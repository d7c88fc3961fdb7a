"""One cold process: import thermospec, build a workload, run its ops.

Reads a JSON request on standard input and writes one JSON reply on
standard output.  ``run.py`` starts a fresh process of this file for every
set-up sample, probe and pass, because every CLI call pays the import and
the empty caches.  Mode "setup" stops after the set-up, "probe" runs its
share of the unit ops of a workload in ``ops.PROBED`` (nothing for the
others), and "pass" runs the whole op list.  Only the standard library is imported
before the set-up clock starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import ops


def main() -> int:
    req = json.load(sys.stdin)
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, src)
    tracer = None
    if req.get("trace_path"):
        from spans import Tracer
        tracer = Tracer()

    t0 = time.perf_counter()
    import thermospec as ts
    if tracer is not None:
        tracer.install()
    ctx = ops.build(ts, req["workload"], req["inputs"])
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(ts.__file__)) != os.path.join(src, "thermospec"):
        print(f"imported thermospec from {ts.__file__}, not from {src}", file=sys.stderr)
        return 2
    reply = {"setup_s": setup_s}
    todo = ops.ops(ts, req["workload"], req["inputs"], ctx)
    share = ops.PROBED.get(req["workload"])
    if req["mode"] == "probe" and share:
        todo = [op for op in todo if op[3]][req["probe"] % share::share]
    elif req["mode"] != "pass":
        todo = []
    if todo:
        records = []
        start = time.perf_counter()
        for op_id, kind, arg, unit, call, encode in todo:
            t = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # an op that raises is a failed op, not a failed run
                dt = time.perf_counter() - t
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                dt = time.perf_counter() - t
                out, error = encode(result), None
            records.append({"id": op_id, "kind": kind, "arg": arg, "unit": unit,
                            "dt": dt, "out": out, "error": error})
        reply.update(wall_s=time.perf_counter() - start, records=records,
                     peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            reply["layers"] = tracer.summary()
            tracer.dump(req["trace_path"])
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
