"""thermospec benchmark: cold-process timings, layer traces, checked outputs.

    python3 bench/run.py --workload gauss_dimension --seed 0 --seconds 10 --trace 0

Run from the root of a source tree.  Each timed pass is a fresh worker
process (``worker.py``) that imports thermospec from ``src/`` and runs the
workload's op list once, single-threaded.  Passes repeat until
``--seconds`` have elapsed, always in whole passes.  Every output is
checked here against references computed apart from the program
(``checks.py``).  With ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of
the run goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 6  # cold probe processes per round; setup_s is the median over them and the pass
DEADLINE_S = 170.0  # a run must end within 180 s


class RunError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = env.get(var, "")
        if not cur.isdigit() or int(cur) > int(nproc):
            env[var] = nproc
    return env


def _worker(request: dict, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("run deadline reached")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(request), capture_output=True,
                              text=True, timeout=left, env=_worker_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline")
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _median(values) -> float:
    return float(statistics.median(values))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    inputs = workloads.make_inputs(name, seed)
    request = {"root": str(ROOT), "workload": name, "inputs": inputs, "mode": "setup"}
    OUT.mkdir(exist_ok=True)

    _worker(request, deadline)  # warm-up: bytecode and page cache, as a CLI user has them
    if trace:
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        plain = _worker({**request, "mode": "pass"}, deadline)
        traced = _worker({**request, "mode": "pass", "trace_path": str(trace_path)}, deadline)
        passes, probes = [plain, traced], []
    else:
        # whole rounds of probes, one pass, probes: the probes' set-up times
        # and unit ops then span the run rather than one stretch of it
        passes, probes = [], []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            probes += [_worker({**request, "mode": "probe", "probe": k}, deadline)
                       for k in range(PROBES // 2)]
            passes.append(_worker({**request, "mode": "pass"}, deadline))
            probes += [_worker({**request, "mode": "probe", "probe": k}, deadline)
                       for k in range(PROBES // 2, PROBES)]

    attempted, failures = 0, []
    for i, p in enumerate(passes + probes):
        for rec, bad in zip(p.get("records", []), workloads.check(p.get("records", []))):
            attempted += 1
            rec["failures"] = bad
            if bad:
                failures.append((i, rec["id"], bad))
    correct = all(op in workloads.KNOWN_FAULTS for _, op, _ in failures)

    if trace:
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        cold = passes + probes
        values = {
            "setup_s": _median(p["setup_s"] for p in cold),
            "wall_s": _median(p["wall_s"] for p in passes),
            "op_s.p50": _median(r["dt"] for p in cold for r in p.get("records", []) if r["unit"]),
            "peak_rss_mb": _median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    detail = {"workload": name, "seed": seed, "trace": trace, "inputs": inputs,
              "passes": passes, "probes": probes, "result": result}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail), encoding="utf-8")

    print(f"workload {name}, seed {seed}, {len(passes)} pass(es)"
          f"{', traced' if trace else ''}")
    for _, op, bad in (f for f in failures if f[0] == 0):  # every pass runs the same ops
        known = workloads.KNOWN_FAULTS.get(op)
        print(f"  FAILED {op}: {'; '.join(bad)}" + (f"  [known: {known}]" if known else ""))
    print(f"ops attempted {attempted}, failed {len(failures)}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']!r} {m['unit']}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thermospec" / "__init__.py").is_file():
        print(f"no thermospec source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
