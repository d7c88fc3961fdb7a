"""The package's frozen values behave as the frozen dataclasses they replace:
construction, defaults, equality, hashing, refused assignment, ``replace``,
pickling and reprs."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

import thermospec as ts
from thermospec import oracle
from thermospec._frozen import asdict, replace

SRC = Path(__file__).resolve().parent.parent / "src"

# every exported value class and the oracle's two: its arguments in field
# order, and the repr that the dataclass version printed for them
CASES = [
    (ts.Branch, (0.25, 3), "Branch(diameter=0.25, digit=3)"),
    (ts.PowerLogTail, (1.0, 2.0, 1.5, 0.5), "PowerLogTail(c=1.0, a=2.0, b=1.5, d=0.5)"),
    (ts.GaussTail, (), "GaussTail()"),
    (ts.FlatParams, (1.0, 2.0, 0.5), "FlatParams(K=1.0, C=2.0, s_inf=0.5)"),
    (ts.BranchSystem, ((ts.Branch(0.5), ts.Branch(0.25)), ts.GaussTail(), 2.0, 1, None),
     "BranchSystem(head=(Branch(diameter=0.5, digit=None), Branch(diameter=0.25, digit=None)), "
     "tail=GaussTail(), xi=2.0, offset=1, flat=None)"),
    (ts.IndicatorPotential, (1,), "IndicatorPotential(index=1)"),
    (ts.HarmonicPotential, (), "HarmonicPotential()"),
    (ts.ConstantPotential, (1.5,), "ConstantPotential(value_c=1.5)"),
    (ts.TablePotential, (1, (((1,), 0.5), ((2,), 1.5))),
     "TablePotential(level=1, table=(((1,), 0.5), ((2,), 1.5)))"),
    (ts.LogDerivPotential, (), "LogDerivPotential()"),
    (ts.PressureEstimate, ((0.1, 0.2), (1, 2), 4, 1.0, 0.3, (0.0, 0.5), False, (0.0, 0.1)),
     "PressureEstimate(values=(0.1, 0.2), levels=(1, 2), q=4, t=1.0, extrapolated=0.3, "
     "bracket=(0.0, 0.5), diverged=False, var_totals=(0.0, 0.1))"),
    (ts.SInfinityResult, (0.5, "series-exponent", 0.499, 0.5, {"terms_log10": 3.0}),
     "SInfinityResult(value=0.5, method='series-exponent', s_lo=0.499, s_hi=0.5, "
     "certificate={'terms_log10': 3.0})"),
    (ts.RootResult, (1.0, (0.9, 1.1), "sandwich", 0.0, 30, None, (0.5, 2.0)),
     "RootResult(value=1.0, interval=(0.9, 1.1), method='sandwich', residual=0.0, q=30, "
     "n_used=None, bracket=(0.5, 2.0))"),
    (ts.CylinderMeasure, (1, ((1,), (2,)), (0.25, 0.75)),
     "CylinderMeasure(level=1, words=((1,), (2,)), weights=(0.25, 0.75))"),
    (ts.MeasureStats, (0.5, 1.0, 0.5, (0.25,)),
     "MeasureStats(h=0.5, lyapunov=1.0, ratio=0.5, moments=(0.25,))"),
    (ts.FeasibilityReport, ((0.5,), 0.1, 4, 1, "feasible", 0.0, None, (0.5,)),
     "FeasibilityReport(gamma=(0.5,), eps=0.1, q=4, n=1, verdict='feasible', max_violation=0.0, "
     "witness=None, moments=(0.5,))"),
    (ts.MixtureResult, (0.5, 1, ts.MeasureStats(0.5, 1.0, 0.5, (0.25,))),
     "MixtureResult(p=0.5, base_index=1, stats=MeasureStats(h=0.5, lyapunov=1.0, ratio=0.5, "
     "moments=(0.25,)))"),
    (ts.FreqDimResult, (None, 0.5, None, "s_inf-floor"),
     "FreqDimResult(dimension=None, s_inf=0.5, alpha3=None, regime='s_inf-floor')"),
    (ts.SpectrumPoint, (0.5, 0.9, 1.0, 0.0, (1e-16,), "legendre", 0.5, "n"),
     "SpectrumPoint(alpha=0.5, dim=0.9, t=1.0, q=0.0, residuals=(1e-16,), regime='legendre', "
     "s_inf=0.5, note='n')"),
    (ts.FlatBounds, (0.1, 0.9, -1.0, 1.0, 0.5),
     "FlatBounds(alpha_lower=0.1, alpha_upper=0.9, q_minus=-1.0, q_plus=1.0, delta=0.5)"),
    (ts.FlatCertificate, (0.3, 0.5, None, -0.1, 0.1, False, "n"),
     "FlatCertificate(alpha=0.3, delta=0.5, qhat=None, value_lo=-0.1, value_hi=0.1, "
     "witness=False, note='n')"),
    (ts.SpectrumCurve, ((), {"flat": 0.5}), "SpectrumCurve(points=(), transitions={'flat': 0.5})"),
    (oracle.OracleReport, ("E_2", 0.5, 0.5, 0.0, 1e-12, True),
     "OracleReport(quantity='E_2', oracle_value=0.5, module_value=0.5, abs_difference=0.0, "
     "tolerance=1e-12, passed=True)"),
    (oracle.OrbitSample, ((1, 2), np.array([0.5]), (), {1: 0.5}, 0.25),
     "OrbitSample(word=(1, 2), points=array([0.5]), averages=(), frequencies={1: 0.5}, "
     "escape_frequency=0.25)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]

# the fields with defaults, and the defaults
DEFAULTS = {
    ts.Branch: {"digit": None},
    ts.PowerLogTail: {"b": 1.0, "d": 0.0},
    ts.BranchSystem: {"head": (), "tail": None, "xi": 2.0, "offset": 0, "flat": None},
    ts.TablePotential: {"level": 1, "table": ()},  # level from Potential.level
    ts.MeasureStats: {"moments": ()},
    ts.SpectrumPoint: {"note": ""},
    ts.FlatCertificate: {"note": ""},
    oracle.OrbitSample: {"escape_frequency": 0.0},
}
# dict and array fields: these values raise on hashing, as the dataclasses did
UNHASHABLE = (ts.SInfinityResult, ts.SpectrumCurve, oracle.OrbitSample)


def test_every_exported_value_class_is_covered():
    exported = {getattr(ts, name) for name in ts.__all__
                if isinstance(getattr(ts, name), type) and hasattr(getattr(ts, name), "_fields")}
    assert exported | {oracle.OracleReport, oracle.OrbitSample} == {cls for cls, _, _ in CASES}
    assert len(CASES) == 24


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_construction(cls, args, text):
    obj = cls(*args)
    assert len(cls._fields) == len(args)
    assert cls(**dict(zip(cls._fields, args))) == obj
    assert tuple(getattr(obj, k) for k in cls._fields) == args
    defaults = DEFAULTS.get(cls, {})
    required = {k: v for k, v in zip(cls._fields, args) if k not in defaults}
    bare = cls(**required)
    assert {k: getattr(bare, k) for k in defaults} == defaults
    if required:
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(args[0], **{cls._fields[0]: args[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(*args, 0)
    with pytest.raises(TypeError):
        cls(*args, bogus=1)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_equality_and_hashing(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:  # the dataclass hash: that of the fields' tuple
        assert hash(a) == hash(b) == hash(args) == hash(a)
    for other_cls, other_args, _ in CASES:
        if other_cls is not cls:
            assert a != other_cls(*other_args)


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_assignment_is_refused(cls, args, text):
    obj = cls(*args)
    for name in cls._fields[:1] + ("extra",):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert tuple(getattr(obj, k) for k in cls._fields) == args


@pytest.mark.parametrize("cls, args, text", CASES, ids=IDS)
def test_reprs_are_the_dataclass_reprs(cls, args, text):
    assert repr(cls(*args)) == text


def test_replace_runs_the_validation_again():
    tail = ts.PowerLogTail(1.0, 2.0)
    assert replace(tail) == tail and replace(tail, d=0.5) == ts.PowerLogTail(1.0, 2.0, 1.0, 0.5)
    with pytest.raises(ts.ModelError):
        replace(tail, c=-1.0)
    with pytest.raises(ts.InvalidMeasureError):
        replace(ts.CylinderMeasure(1, ((1,),), (1.0,)), weights=(0.5,))
    with pytest.raises(TypeError):
        replace(tail, e=1.0)


def test_asdict_lists_the_fields_in_order():
    stats = ts.MeasureStats(0.5, 1.0, 0.5, (0.25,))
    assert asdict(ts.MixtureResult(0.5, 1, stats)) == {"p": 0.5, "base_index": 1, "stats": stats}
    assert list(asdict(ts.BranchSystem())) == ["head", "tail", "xi", "offset", "flat"]


_CHILD = r"""
import pickle, sys, json
objs = pickle.load(sys.stdin.buffer)
out = []
for obj in objs:
    fields = tuple(getattr(obj, k) for k in obj._fields)
    fresh = type(obj)(*fields)
    try:
        same_hash = hash(obj) == hash(fresh) == hash(fields)
    except TypeError:
        same_hash = None
    out.append([type(obj).__name__, obj == fresh, same_hash])
print(json.dumps(out))
"""


def test_pickles_load_equal_and_hash_again():
    # a pickle carries no kept hash: hashes of None and of strings differ
    # between processes, so the process that loads a value hashes it again
    objs = [cls(*args) for cls, args, _ in CASES]
    for obj in objs:
        if type(obj) not in UNHASHABLE:
            hash(obj)
    data = pickle.dumps(objs)
    assert all(a == b for a, b in zip(pickle.loads(data), objs))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]),
        PYTHONHASHSEED="12345" if os.environ.get("PYTHONHASHSEED") != "12345" else "54321")
    proc = subprocess.run([sys.executable, "-c", _CHILD], input=data, capture_output=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    seen = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    assert seen == [[cls.__name__, True, None if cls in UNHASHABLE else True]
                    for cls, _, _ in CASES]
