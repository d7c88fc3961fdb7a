"""What importing and running the package loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# each step runs in the order given, and the scipy and mpmath modules
# loaded after it are reported
_PROBE = r"""
import json, sys

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

seen = {}
def record(step):
    seen[step] = {"scipy": loaded("scipy"), "mpmath": loaded("mpmath")}

import thermospec as ts
record("import")
g = ts.gauss_system()
ts.pressure_root(ts.restricted_system(g, 10))
record("restricted root")
flat = ts.flat_example_system()
ts.legendre_solve(flat, ts.indicator_potential(1), 0.5)
record("flat legendre row")
ts.flat_bounds(flat)
record("flat_bounds")
ts.maximize_ratio(ts.doubling_system(), ((ts.indicator_potential(1), 0.3, 1e-6),), n=2)
record("maximize_ratio")
rep = ts.feasible(g, (0.6,), eps=1e-6, q=50, potentials=(ts.harmonic_potential(),))
assert rep.verdict == "feasible-with-witness", rep.verdict
record("feasible")
print(json.dumps(seen))
"""


def test_package_runs_without_loading_scipy():
    # importing scipy takes longer than importing the package itself; the
    # package imports it only for the feasibility LP, which runs when a KL
    # projection misses its boxes.  mpmath loads only for the 30-digit
    # flat-window edges (and the verification suite), not for the series
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(seen) == ["import", "restricted root", "flat legendre row",
                          "flat_bounds", "maximize_ratio", "feasible"]
    assert all(step["scipy"] == [] for step in seen.values())
    assert [name for name, step in seen.items() if step["mpmath"]] == [
        "flat_bounds", "maximize_ratio", "feasible"]


_LAZY_ORACLE = r"""
import json, sys
import thermospec as ts
import thermospec.cli
seen = {"import": "thermospec.oracle" in sys.modules}
names = [ts.verification_suite.__name__, ts.sample_orbit.__name__]
seen["after use"] = "thermospec.oracle" in sys.modules
seen["names"] = names
seen["all"] = "verification_suite" in ts.__all__ and "oracle" in ts.__all__
print(json.dumps(seen))
"""


def test_oracle_loads_on_first_use():
    # the verification suite is not part of a plain import, of the package
    # or of the command line, and its names still resolve from the package
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_ORACLE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": False, "after use": True,
                    "names": ["verification_suite", "sample_orbit"], "all": True}
