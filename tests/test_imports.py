"""What importing and running the package loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_envelopes.json"


def _child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

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
ts.spectrum_curve(flat, ts.indicator_potential(1), [])
record("flat spectrum_curve")
ts.flat_certificate(flat, ts.indicator_potential(1), 0.3)
record("flat_certificate")
ts.maximize_ratio(ts.doubling_system(), ((ts.indicator_potential(1), 0.3, 1e-6),), n=2)
record("maximize_ratio")
rep = ts.feasible(g, (0.6,), eps=1e-6, q=50, potentials=(ts.harmonic_potential(),))
assert rep.verdict == "feasible-with-witness", rep.verdict
record("feasible")
print(json.dumps(seen))
"""


def test_package_runs_without_loading_scipy():
    # importing scipy takes longer than importing the package itself, and
    # the package never imports it: only the tests use it, as a reference.
    # mpmath serves only the verification suite: the 30-digit flat-window
    # edges use the standard library's decimal
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(seen) == ["import", "restricted root", "flat legendre row",
                          "flat_bounds", "flat spectrum_curve", "flat_certificate",
                          "maximize_ratio", "feasible"]
    assert all(step["scipy"] == [] for step in seen.values())
    assert [name for name, step in seen.items() if step["mpmath"]] == []


_NO_POOL = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging"))

import thermospec as ts
seen = {"import": loaded()}
ts.pressure_root(ts.gauss_system(), bracket=(0.8, 1.2), q=200, n_max=4)
seen["1-worker root"] = loaded()
print(json.dumps(seen))
"""


def test_one_worker_loads_no_thread_pool():
    # concurrent.futures, which imports logging, serves only the thread pool
    # of a level build with more than one worker
    proc = subprocess.run([sys.executable, "-c", _NO_POOL], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": [], "1-worker root": []}


_NO_JSON = r"""
import sys

def loaded():
    return (sorted(m for m in sys.modules if m.split(".")[0] in ("json", "_json")),
            "thermospec.level3" in sys.modules)

import thermospec as ts
seen = {"import": loaded()}
ts.pressure_root(ts.gauss_system(), bracket=(0.8, 1.2), q=200, n_max=4)
seen["criterion-2 root"] = loaded()
print(seen)
"""


def test_import_loads_neither_json_nor_the_rows():
    # only model and potential files are JSON: the package reads them with
    # a json imported inside the reader, which an import and a root skip.
    # The level-3 rows' module is compiled on the first level 3 summed in
    # rows, so a cold process that enumerates nothing never compiles it
    proc = subprocess.run([sys.executable, "-c", _NO_JSON], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": ([], False), "criterion-2 root": ([], True)}


# numpy loads before the audit hook: its own namedtuples compile source text
_NO_GENERATED_SOURCE = r"""
import json, os, sys
import numpy

generated = []

def hook(event, args):
    if event == "compile":
        name = args[1]
    elif event == "exec":
        name = getattr(args[0], "co_filename", None)
    else:
        return
    if not (isinstance(name, str) and (os.path.isfile(name) or name.startswith("<frozen "))):
        generated.append([event, repr(name)])

sys.addaudithook(hook)
import thermospec
import thermospec.cli
print(json.dumps({"generated": generated, "dataclasses": "dataclasses" in sys.modules}))
"""


def test_import_generates_no_source():
    # the value classes are built from closures: importing the package and
    # its command line compiles and runs the package's files and no source
    # text made at run time (exec, eval or compile of a string), and the
    # dataclasses module is not loaded
    proc = subprocess.run([sys.executable, "-c", _NO_GENERATED_SOURCE], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"generated": [], "dataclasses": False}


# the flat commands of the command line, run in one child
_FLAT_CLI = r"""
import contextlib, io, json, sys
from thermospec.cli import main

codes = []
for argv in (["flat-bounds", "--model", "flat_example"],
             ["spectrum", "--model", "flat_example", "--potential", "chi1", "--points", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] in ("scipy", "mpmath"))}))
"""


def test_flat_commands_load_neither_scipy_nor_mpmath():
    proc = subprocess.run([sys.executable, "-c", _FLAT_CLI], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"codes": [0, 0], "loaded": []}


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
    proc = subprocess.run([sys.executable, "-c", _LAZY_ORACLE], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"import": False, "after use": True,
                    "names": ["verification_suite", "sample_orbit"], "all": True}


# scipy cannot be imported in this child: every feasibility verdict, and the
# golden `feasible` envelopes (argv lists in sys.argv[1]), come from the
# package alone
_NO_SCIPY = r"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
import thermospec as ts
from thermospec.cli import main

d, g = ts.doubling_system(), ts.gauss_system()
chi1, chi2, harm = ts.indicator_potential(1), ts.indicator_potential(2), ts.harmonic_potential()
calls = {
    "ratio chi1,chi2 0.8+-1e-3": lambda: ts.maximize_ratio(d, ((chi1, 0.8, 1e-3), (chi2, 0.8, 1e-3))),
    "ratio chi1 1.5": lambda: ts.maximize_ratio(d, ((chi1, 1.5, 0.0),)),
    "feasible gauss 1.5": lambda: ts.feasible(g, [1.5], q=30),
    "feasible doubling 0.2,0.3": lambda: ts.feasible(d, (0.2, 0.3), eps=0.01),
    "feasible doubling 1.0000005": lambda: ts.feasible(d, [1.0000005], eps=1e-6),
    "feasible gauss 1.0000005": lambda: ts.feasible(g, [1.0000005], eps=1e-6, q=5),
    "feasible gauss harmonic 1.2": lambda: ts.feasible(g, [1.2], eps=0.3, q=5, potentials=(harm,)),
    "feasible gauss 0.6,0.5": lambda: ts.feasible(g, (0.6, 0.5), eps=0.06, q=5),
}
seen = {}
for name, call in calls.items():
    try:
        rep = call()
    except ts.InfeasibleConstraintsError as exc:
        seen[name] = ["infeasible", exc.distance]
    else:
        seen[name] = [rep.verdict, rep.max_violation]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    seen[" ".join(argv)] = [code, out.getvalue()]
print(json.dumps(seen))
"""


def test_feasibility_verdicts_need_no_scipy():
    golden = [case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))
              if case["argv"][0] == "feasible"]
    assert len(golden) == 2
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY,
                           json.dumps([case["argv"] for case in golden])],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, violation in [("ratio chi1,chi2 0.8+-1e-3", 0.299), ("ratio chi1 1.5", 0.5)]:
        assert seen[name][0] == "infeasible" and abs(seen[name][1] - violation) <= 1e-9, name
    for name, violation in [("feasible gauss 1.5", 0.5), ("feasible doubling 0.2,0.3", 0.25)]:
        assert seen[name][0] == "infeasible-at-truncation", name
        assert abs(seen[name][1] - violation) <= 1e-9, name
    for name, eps in [("feasible doubling 1.0000005", 1e-6), ("feasible gauss 1.0000005", 1e-6),
                      ("feasible gauss harmonic 1.2", 0.3), ("feasible gauss 0.6,0.5", 0.06)]:
        assert seen[name][0] == "feasible-with-witness" and seen[name][1] <= eps + 1e-9, name
    for case in golden:
        assert seen[" ".join(case["argv"])] == [case["exit"], case["stdout"]], case["argv"]


def _imports_of(package):
    """(file name, line) of every import of ``package`` under src/thermospec."""
    hits = []
    for path in sorted((SRC / "thermospec").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            hits += [(path.name, node.lineno) for name in names
                     if name == package or name.startswith(package + ".")]
    return hits


def test_no_module_imports_scipy():
    assert _imports_of("scipy") == []


def test_only_the_oracle_imports_mpmath():
    # the verification suite is the one user of mpmath; every computation
    # runs on numpy and the standard library
    hits = _imports_of("mpmath")
    assert hits and {name for name, _ in hits} == {"oracle.py"}, hits


def _tolerance_loops(source):
    """Lines of the while loops whose condition compares a difference of two
    names, as a bisection's `while hi - lo > tol` does."""
    def difference(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Name) and isinstance(node.right, ast.Name))

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.While)
            and any(isinstance(cmp, ast.Compare) and any(map(difference, [cmp.left, *cmp.comparators]))
                    for cmp in ast.walk(node.test))]


def test_no_tolerance_loop_outside_the_oracle():
    # thermo._root is the one iterative solver: a loop that runs until two
    # ends meet within a tolerance cannot end once the tolerance is below
    # the float spacing.  The oracle's reference bisection shows the guard
    # sees one
    hits = {path.name: _tolerance_loops(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "thermospec").glob("*.py"))}
    assert hits.pop("oracle.py")
    assert {name: lines for name, lines in hits.items() if lines} == {}


def _builtin_sums(source):
    """Lines of the calls of builtin ``sum``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_numeric_modules_call_no_builtin_sum():
    # builtin sum() of floats is compensated from Python 3.12 on, so the
    # bits of a sum would depend on the Python version; these modules add
    # floats in explicit loops, numpy sums or math.fsum.  The oracle's
    # sums show the guard sees one
    hits = {name: _builtin_sums((SRC / "thermospec" / name).read_text(encoding="utf-8"))
            for name in ("systems.py", "thermo.py", "level3.py", "spectrum.py", "measures.py",
                         "oracle.py")}
    assert hits.pop("oracle.py")
    assert {name: lines for name, lines in hits.items() if lines} == {}
