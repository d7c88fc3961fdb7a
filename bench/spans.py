"""Layer spans recorded from outside the package.

``Tracer.install`` wraps every public function defined in the four timed
layers (systems, thermo, spectrum, measures) and puts the wrapper into
every thermospec namespace that binds the original, so calls from one
layer into another, and within a layer through its module globals, are
seen.  Spans stay in memory as [function, start, end, parent, raised]
rows until ``summary`` and ``dump`` run at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("systems", "thermo", "spectrum", "measures")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []  # shared by every wrapper, so spans nest across functions
        self.words = 0

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"thermospec.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "thermospec" and not modname.startswith("thermospec."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts_words = qualname == "thermo.pressure_root"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [fid, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(row)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                row[4] = 1
                raise
            finally:
                row[2] = clock()
                stack.pop()
            if counts_words and result.q is not None and result.n_used:
                self.words += sum(result.q ** n for n in range(1, result.n_used + 1))
            return result

        return wrapper

    def summary(self) -> dict:
        """calls, self_s and raised per function and per layer."""
        covered = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {"thermo.words_enumerated": self.words}
        for layer in LAYERS:
            out.update({f"{layer}.calls": 0, f"{layer}.self_s": 0.0, f"{layer}.raised": 0})
        for (fid, start, end, _, raised), cover in zip(self.spans, covered):
            name = self.names[fid]
            layer = name.split(".", 1)[0]
            own = end - start - cover
            for key in (name, layer):
                out[f"{key}.calls"] = out.get(f"{key}.calls", 0) + 1
                out[f"{key}.self_s"] = out.get(f"{key}.self_s", 0.0) + own
                out[f"{key}.raised"] = out.get(f"{key}.raised", 0) + raised
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": ["function", "start", "end", "parent", "raised"],
                       "spans": self.spans}, fh)
