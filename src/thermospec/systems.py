"""Branch systems, words, potentials and cylinder geometry.

A branch system models a map of the unit interval that is a bijection from
each of countably many disjoint subintervals I_1, I_2, ... onto [0, 1].
Branches are either "linear" (described by the diameter of I_i alone) or
"analytic" (described by the inverse map and the log-derivative along the
branch).  Infinite families carry a parametric tail: either the power-log
family diam(I_n) = c * n^(-a) * (log(n + b))^(-d), or the continued-fraction
family diam(I_n) = 1/(n(n+1)).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import mpmath
import numpy as np
from scipy.special import logsumexp

from .errors import (
    InfeasibleModelError,
    InvalidWordError,
    ModelError,
    UnderdeterminedWordError,
    UndeterminedError,
    UnsupportedPotentialError,
)

Word = tuple  # tuple of 1-based branch indices

SERIES_HEAD_TERMS = 100_000  # explicit terms summed before the integral tail bound
_PACKING_SLACK = 1e-9


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True)
class Branch:
    """One inverse branch of the map.

    Linear branches know only their diameter.  Analytic branches carry the
    inverse map y -> T_i^{-1}(y) on [0, 1] and the log-derivative
    x -> log|T'(x)| on I_i.
    """

    index: int
    kind: str  # "linear" | "analytic"
    diameter: float | None = None
    inverse: Callable[[float], float] | None = None
    log_deriv: Callable[[float], float] | None = None

    @staticmethod
    def linear(index: int, diameter: float) -> "Branch":
        if not (0.0 < diameter < 1.0):
            raise ModelError(f"branch {index}: diameter must lie in (0, 1), got {diameter}")
        return Branch(index=index, kind="linear", diameter=float(diameter))


@dataclass(frozen=True)
class Tail:
    """Parametric model for branch diameters beyond the explicit head.

    kind "powerlog": diam(I_n) = c * n^(-a) * (log(n + b))^(-d), n physical.
    kind "gauss":    diam(I_n) = 1 / (n (n + 1)), n physical.
    """

    kind: str
    c: float = 1.0
    a: float = 2.0
    b: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if self.kind not in ("powerlog", "gauss"):
            raise ModelError(f"unknown tail kind {self.kind!r}")
        if self.kind == "powerlog":
            if self.c <= 0 or self.a <= 0 or self.d < 0 or self.b < 1:
                raise ModelError("powerlog tail requires c>0, a>0, d>=0, b>=1")


@dataclass(frozen=True)
class FlatParams:
    K: float
    C: float
    s_inf: float


@dataclass(frozen=True)
class BranchSystem:
    """Immutable description of a countable expanding branch family.

    ``offset`` maps the 1-based logical index i used in words to the physical
    label i + offset (restricted subsystems keep their original labels this
    way).  ``xi`` is the uniform bound with diam(I_i) <= 1/xi for all i.
    ``var_schedule`` gives certified upper bounds var_n(log|T'|) for the
    oscillation of log|T'| over n-cylinders; identically zero for all-linear
    systems.
    """

    kind: str  # "linear" | "gauss" | "flat_example" | "custom"
    head: tuple = ()
    tail: Tail | None = None
    xi: float = 2.0
    offset: int = 0
    var_schedule: Callable[[int], float] | None = None
    flat: FlatParams | None = None

    def digit(self, i: int) -> int:
        """Physical branch label for logical index i."""
        return i + self.offset

    @property
    def finite(self) -> bool:
        return self.tail is None

    def branch_count(self) -> int | None:
        return len(self.head) if self.tail is None else None


def var_log_deriv(system: BranchSystem, n: int) -> float:
    """Certified bound for the oscillation of log|T'| over n-cylinders."""
    if n < 1:
        raise ValueError("variation index must be >= 1")
    if system.var_schedule is None:
        return 0.0
    return float(system.var_schedule(n))


@functools.lru_cache(maxsize=256)
def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _gauss_var(n: int) -> float:
    # var_1 = sup_k 2 log((k+1)/k) = 2 log 2; for n >= 2 the oscillation of
    # -2 log x over an n-cylinder is at most twice the largest (n-1)-cylinder,
    # which is the all-ones cylinder of size 1/(F_n F_{n+1}).
    if n == 1:
        return 2.0 * math.log(2.0)
    return 2.0 / (_fib(n) * _fib(n + 1))


def _gauss_branch(m: int, logical_index: int) -> Branch:
    def inverse(y, _m=m):
        return 1.0 / (_m + y)

    def log_deriv(x):
        return -2.0 * math.log(x)

    return Branch(index=logical_index, kind="analytic", inverse=inverse, log_deriv=log_deriv)


def branch(system: BranchSystem, i: int) -> Branch:
    """Branch for logical index i, materialized from the tail if needed."""
    if i < 1:
        raise InvalidWordError(f"branch indices are 1-based, got {i}")
    if i <= len(system.head):
        return system.head[i - 1]
    if system.tail is None:
        raise InvalidWordError(f"index {i} exceeds the {len(system.head)} available branches")
    m = system.digit(i)
    if system.tail.kind == "gauss":
        return _gauss_branch(m, i)
    d = _powerlog_diam(system.tail, m)
    return Branch.linear(i, d)


def _powerlog_diam(tail: Tail, m: int) -> float:
    return tail.c * m ** (-tail.a) * math.log(m + tail.b) ** (-tail.d)


def branch_diameter(system: BranchSystem, i: int) -> float:
    """Exact diameter of I_i."""
    b = branch(system, i)
    if b.kind == "linear":
        return b.diameter
    lo, hi = b.inverse(1.0), b.inverse(0.0)
    return abs(hi - lo)


def diameters(system: BranchSystem, q: int) -> np.ndarray:
    """Diameters of the first q branches as a vector."""
    if q < 1:
        raise ValueError("q must be >= 1")
    out = np.empty(q, dtype=float)
    nh = min(q, len(system.head))
    for i in range(nh):
        out[i] = branch_diameter(system, i + 1)
    if q > nh:
        if system.tail is None:
            raise InvalidWordError(f"truncation {q} exceeds the finite system size {nh}")
        m = np.arange(nh + 1, q + 1, dtype=float) + system.offset
        if system.tail.kind == "gauss":
            out[nh:] = 1.0 / (m * (m + 1.0))
        else:
            t = system.tail
            out[nh:] = t.c * m ** (-t.a) * np.log(m + t.b) ** (-t.d)
    return out


def is_linear(system: BranchSystem) -> bool:
    """True when every branch (head and tail) is linear."""
    if any(b.kind != "linear" for b in system.head):
        return False
    return system.tail is None or system.tail.kind == "powerlog"


# ---------------------------------------------------------------------------
# series of diameters: head sums plus certified integral tail brackets


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) of a 1-D float array, bit-identical to scipy's.

    Performs ``scipy.special.logsumexp``'s arithmetic without its
    array-API dispatch, which dominates on few-element arrays: shift by
    the maximum, drop the maximal entries from the sum, divide by their
    count m, and return log1p(s) + log(m) + max.  Empty, non-finite or
    overflowing cases defer to scipy.
    """
    if a.size:
        a_max = a.max()
        if math.isfinite(a_max):
            ismax = a == a_max
            m = float(np.count_nonzero(ismax))
            e = np.exp(a - a_max)
            e[ismax] = 0.0
            out = np.log1p(e.sum() / m) + np.log(m) + a_max
            if math.isfinite(out):
                return float(out)
    return float(logsumexp(a))


def _powerlog_integral(x0: float, p: float, r: float) -> float:
    """Upper bound context: integral of x^(-p) (log x)^(-r) over [x0, inf)."""
    if p > 1.0:
        L = (p - 1.0) * math.log(x0)
        return float((p - 1.0) ** (r - 1.0) * mpmath.gammainc(1.0 - r, L))
    if p == 1.0 and r > 1.0:
        return math.log(x0) ** (1.0 - r) / (r - 1.0)
    return math.inf


def _powerlog_series_converges(s: float, a: float, d: float) -> bool:
    p = a * s
    if p > 1.0:
        return True
    if p == 1.0:
        return d * s > 1.0
    return False


def _powerlog_tail_bracket(tail: Tail, s: float, first: int) -> tuple[float, float]:
    """Bracket for sum_{m >= first} (c m^-a log(m+b)^-d)^s, m physical."""
    if not _powerlog_series_converges(s, tail.a, tail.d):
        return math.inf, math.inf
    p, r = tail.a * s, tail.d * s
    cs = tail.c ** s
    x0 = float(first)
    base = _powerlog_integral(x0, p, r)
    # log(x+b) >= log(x) shrinks terms; the ratio at x0 bounds the defect.
    kappa = (math.log(x0) / math.log(x0 + tail.b)) ** r if r > 0 else 1.0
    g0 = cs * x0 ** (-p) * math.log(x0 + tail.b) ** (-r)
    return cs * kappa * base, cs * base + g0


def _gauss_tail_bracket(s: float, first: int) -> tuple[float, float]:
    """Bracket for sum_{m >= first} (m(m+1))^(-s), m physical."""
    if s <= 0.5:
        return math.inf, math.inf
    x0 = float(first)
    base = x0 ** (1.0 - 2.0 * s) / (2.0 * s - 1.0)  # integral of x^(-2s)
    lo = (1.0 + 1.0 / x0) ** (-s) * base
    g0 = (x0 * (x0 + 1.0)) ** (-s)
    return lo, base + g0


def series_converges(system: BranchSystem, s: float) -> bool:
    """Does sum_i diam(I_i)^s converge?  Finite systems always converge."""
    if system.tail is None:
        return True
    if system.tail.kind == "gauss":
        return s > 0.5
    return _powerlog_series_converges(s, system.tail.a, system.tail.d)


@functools.lru_cache(maxsize=16384)
def _diam_series_cached(system: BranchSystem, s: float, start: int,
                        head_terms: int) -> tuple[float, float]:
    if s < 0:
        raise ValueError("series exponent must be >= 0")
    n_explicit = len(system.head)
    total = 0.0
    if start <= n_explicit:
        ds = diameters(system, n_explicit)[start - 1:]
        total += float(np.sum(ds ** s))
    if system.tail is None:
        return total, total
    if not series_converges(system, s):
        return math.inf, math.inf
    first_logical = max(start, n_explicit + 1)
    part_hi = first_logical + head_terms
    m = np.arange(first_logical, part_hi, dtype=float) + system.offset
    if system.tail.kind == "gauss":
        total += float(np.sum((m * (m + 1.0)) ** (-s)))
        lo, hi = _gauss_tail_bracket(s, part_hi + system.offset)
    else:
        t = system.tail
        total += float(np.sum((t.c * m ** (-t.a) * np.log(m + t.b) ** (-t.d)) ** s))
        lo, hi = _powerlog_tail_bracket(t, s, part_hi + system.offset)
    return total + lo, total + hi


def diam_series(system: BranchSystem, s: float, *, start: int = 1,
                head_terms: int = SERIES_HEAD_TERMS) -> tuple[float, float]:
    """Certified bracket for sum_{i >= start} diam(I_i)^s (logical indices)."""
    return _diam_series_cached(system, float(s), int(start), int(head_terms))


def s_inf_exact(system: BranchSystem) -> float:
    """Critical exponent of the diameter series.

    Equals 0 for finite systems, 1/a for power-log tails and 1/2 for the
    continued-fraction tail.
    """
    if system.tail is None:
        return 0.0
    if system.tail.kind == "gauss":
        return 0.5
    return 1.0 / system.tail.a


# ---------------------------------------------------------------------------
# constructors


def _check_packing(system: BranchSystem) -> None:
    lo, hi = diam_series(system, 1.0)
    if lo > 1.0 + _PACKING_SLACK:
        raise InfeasibleModelError(f"branch diameters sum to at least {lo:.6g} > 1")
    for i in range(1, len(system.head) + 1):
        if branch_diameter(system, i) > 1.0 / system.xi + 1e-12:
            raise ModelError(f"branch {i} larger than 1/xi")


def linear_system(diams: Sequence[float], xi: float | None = None) -> BranchSystem:
    """Finite all-linear system with the given branch diameters."""
    ds = [float(d) for d in diams]
    if not ds:
        raise ModelError("at least one branch is required")
    head = tuple(Branch.linear(i + 1, d) for i, d in enumerate(ds))
    if xi is None:
        xi = 1.0 / max(ds)
    sys_ = BranchSystem(kind="linear", head=head, tail=None, xi=float(xi))
    _check_packing(sys_)
    return sys_


def gauss_system() -> BranchSystem:
    """Continued-fraction map x -> 1/x mod 1 with branches I_n = (1/(n+1), 1/n)."""
    sys_ = BranchSystem(kind="gauss", head=(), tail=Tail(kind="gauss"), xi=2.0,
                        var_schedule=_gauss_var)
    return sys_


def powerlog_system(head_diams: Sequence[float], c: float, a: float, b: float = 1.0,
                    d: float = 0.0, xi: float | None = None) -> BranchSystem:
    """All-linear system with explicit head and power-log tail."""
    head = tuple(Branch.linear(i + 1, float(dd)) for i, dd in enumerate(head_diams))
    tail = Tail(kind="powerlog", c=float(c), a=float(a), b=float(b), d=float(d))
    first_tail = _powerlog_diam(tail, len(head) + 1)
    biggest = max([b_.diameter for b_ in head] + [first_tail])
    if xi is None:
        xi = 1.0 / biggest
    sys_ = BranchSystem(kind="custom", head=head, tail=tail, xi=float(xi))
    _check_packing(sys_)
    return sys_


def flat_example_system(K: float = 0.55, C: float = 0.6, s_inf: float = 0.5) -> BranchSystem:
    """Linear system whose critical exponent s_inf is attained with a finite
    critical series.

    diam(I_1) = K^(1/s_inf) so that diam(I_1)^s_inf = K, and the tail
    diam(I_n) = c n^(-1/s_inf) log(n+1)^(-2/s_inf) for n >= 2 is calibrated so
    that sum_{n>=2} diam(I_n)^s_inf = C.  The critical series converges at
    s_inf itself while diverging below it, so the computed critical exponent
    equals the target exactly.
    """
    if not (0.0 < s_inf < 1.0):
        raise ModelError("target exponent must lie in (0, 1)")
    if not (0.0 < C < 1.0 and K > 0.0 and K + C > 1.0):
        raise InfeasibleModelError("flat construction requires 0 < C < 1 and K + C > 1")
    d1 = K ** (1.0 / s_inf)
    if d1 >= 1.0:
        raise InfeasibleModelError("head diameter K^(1/s_inf) must be < 1")
    a = 1.0 / s_inf
    d = 2.0 / s_inf
    # calibrate: (c^s_inf) * sum_{n>=2} n^-1 log(n+1)^-2 = C
    probe = BranchSystem(kind="custom", head=(Branch.linear(1, d1),),
                         tail=Tail(kind="powerlog", c=1.0, a=a, b=1.0, d=d), xi=1.0 / d1)
    s_lo, s_hi = diam_series(probe, s_inf, start=2)
    s0 = 0.5 * (s_lo + s_hi)
    c = (C / s0) ** (1.0 / s_inf)
    tail = Tail(kind="powerlog", c=c, a=a, b=1.0, d=d)
    xi = 1.0 / max(d1, _powerlog_diam(tail, 2))
    sys_ = BranchSystem(kind="flat_example", head=(Branch.linear(1, d1),), tail=tail,
                        xi=xi, flat=FlatParams(K=float(K), C=float(C), s_inf=float(s_inf)))
    _check_packing(sys_)
    return sys_


def doubling_system() -> BranchSystem:
    return linear_system([0.5, 0.5])


def truncate(system: BranchSystem, q: int) -> BranchSystem:
    """Finite subsystem on the first q branches."""
    if q < 1:
        raise ModelError("truncation must keep at least one branch")
    if system.tail is None and q > len(system.head):
        raise InvalidWordError(f"cannot truncate to {q} branches, only {len(system.head)} exist")
    head = tuple(branch(system, i) for i in range(1, q + 1))
    return replace(system, head=head, tail=None)


def restricted_system(system: BranchSystem, N: int) -> BranchSystem:
    """Subsystem on branches {N, N+1, ...}, reindexed from 1."""
    if N < 1:
        raise ModelError("restriction start must be >= 1")
    if system.tail is None:
        if N > len(system.head):
            raise ModelError("restriction removes every branch")
        head = tuple(replace(b, index=i + 1) for i, b in enumerate(system.head[N - 1:]))
        return replace(system, head=head, offset=system.offset + N - 1)
    drop = min(N - 1, len(system.head))
    head = tuple(replace(b, index=i + 1) for i, b in enumerate(system.head[drop:]))
    return replace(system, head=head, offset=system.offset + N - 1)


# ---------------------------------------------------------------------------
# words and cylinders


def check_word(system: BranchSystem, word: Sequence[int]) -> Word:
    w = tuple(int(s) for s in word)
    if not w:
        raise InvalidWordError("empty word")
    n_head = len(system.head)
    for s in w:
        if s < 1:
            raise InvalidWordError(f"branch indices are 1-based, got {s}")
        if s > n_head and system.tail is None:
            raise InvalidWordError(f"index {s} exceeds the {n_head} available branches")
    return w


def cylinder_diameter(system: BranchSystem, word: Sequence[int]) -> float:
    """Diameter of the cylinder set C_n(word).

    Linear systems: exact product of branch diameters.  Analytic systems: the
    cylinder is the image of [0, 1] under the composed inverse branches, so
    its endpoints are the images of 0 and 1.
    """
    w = check_word(system, word)
    if is_linear(system):
        out = 0.0
        for s in w:
            out += math.log(branch_diameter(system, s))
        return math.exp(out)
    lo = _compose_inverse(system, w, 0.0)
    hi = _compose_inverse(system, w, 1.0)
    return abs(hi - lo)


def cylinder_diameter_bracket(system: BranchSystem, word: Sequence[int]) -> tuple[float, float]:
    """Interval certain to contain the cylinder diameter.

    The log-width of the interval never exceeds the cumulative variation
    sum_{j<=n} var_j(log|T'|); for the direct endpoint computation used here
    it is bounded by floating-point roundoff alone.
    """
    w = check_word(system, word)
    d = cylinder_diameter(system, w)
    fuzz = 64.0 * len(w) * np.finfo(float).eps
    return d * (1.0 - fuzz), d * (1.0 + fuzz)


def _compose_inverse(system: BranchSystem, word: Word, y: float) -> float:
    x = y
    for s in reversed(word):
        b = branch(system, s)
        if b.kind != "analytic":
            raise ModelError("inverse composition requires analytic branches")
        x = b.inverse(x)
    return x


def periodic_points(system: BranchSystem, word: Sequence[int]) -> list[float]:
    """Orbit z_0, ..., z_{n-1} of the periodic point coded by word^infinity.

    z_j is the projection of the j-th shift of the periodic sequence; it
    satisfies z_j = T_{w_j}^{-1}(z_{j+1}) cyclically.
    """
    w = check_word(system, word)
    x = 0.5
    for _ in range(200):
        x_prev = x
        x = _compose_inverse(system, w, x)
        if abs(x - x_prev) <= 1e-16:
            break
    n = len(w)
    zs = [0.0] * n
    zs[0] = x
    z = x
    for j in range(n - 1, 0, -1):
        z = branch(system, w[j]).inverse(z)
        zs[j] = z
    return zs


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class Potential:
    """Observable evaluated along symbol sequences.

    ``level`` is the dependence length: the value on a point depends only on
    its first ``level`` symbols.  The built-in kinds are:

    - "indicator": 1 on branch ``index``, 0 elsewhere (level 1);
    - "harmonic": 1 / physical digit (level 1);
    - "constant": fixed value (level 1);
    - "table": explicit value map on level-m words;
    - "log_deriv": log|T'|, evaluated through the branch data (not locally
      constant on analytic systems).

    ``lower``/``upper`` are bounds over the whole system when finite.
    """

    kind: str
    level: int = 1
    index: int | None = None
    value_c: float | None = None
    table: tuple | None = None
    lower: float | None = None
    upper: float | None = None

    @property
    def bounded(self) -> bool:
        return self.lower is not None and self.upper is not None


def indicator_potential(index: int) -> Potential:
    if index < 1:
        raise ModelError("indicator index must be >= 1")
    return Potential(kind="indicator", level=1, index=index, lower=0.0, upper=1.0)


def harmonic_potential() -> Potential:
    return Potential(kind="harmonic", level=1, lower=0.0, upper=1.0)


def constant_potential(value: float) -> Potential:
    return Potential(kind="constant", level=1, value_c=float(value),
                     lower=float(value), upper=float(value))


def table_potential(level: int, values: dict) -> Potential:
    if level < 1:
        raise ModelError("potential level must be >= 1")
    items = tuple(sorted((tuple(k), float(v)) for k, v in values.items()))
    for k, _ in items:
        if len(k) != level:
            raise ModelError("table keys must be words of the stated level")
    vals = [v for _, v in items]
    return Potential(kind="table", level=level, table=items,
                     lower=min(vals), upper=max(vals))


def log_deriv_potential() -> Potential:
    return Potential(kind="log_deriv", level=1)


def potential_value(system: BranchSystem, potential: Potential, window: Sequence[int]) -> float:
    """Value of a locally constant potential on the cylinder of ``window``."""
    w = tuple(window)
    if potential.kind == "indicator":
        return 1.0 if w[0] == potential.index else 0.0
    if potential.kind == "harmonic":
        return 1.0 / system.digit(w[0])
    if potential.kind == "constant":
        return potential.value_c
    if potential.kind == "table":
        for k, v in potential.table:
            if k == w[: potential.level]:
                return v
        raise InvalidWordError(f"no table value for window {w[:potential.level]}")
    if potential.kind == "log_deriv":
        b = branch(system, w[0])
        if b.kind == "linear":
            return -math.log(b.diameter)
        raise UnsupportedPotentialError(
            "log|T'| is not locally constant on analytic systems")
    raise ModelError(f"unknown potential kind {potential.kind!r}")


def level1_values(system: BranchSystem, potential: Potential, q: int) -> np.ndarray:
    """Vector of values of a level-1 potential on branches 1..q."""
    if potential.level != 1:
        raise UnsupportedPotentialError("vectorized values require a level-1 potential")
    idx = np.arange(1, q + 1, dtype=float)
    if potential.kind == "indicator":
        return (idx == float(potential.index)).astype(float)
    if potential.kind == "harmonic":
        return 1.0 / (idx + system.offset)
    if potential.kind == "constant":
        return np.full(q, potential.value_c)
    if potential.kind == "log_deriv":
        if not is_linear(system):
            raise UnsupportedPotentialError(
                "log|T'| is not locally constant on analytic systems")
        return -np.log(diameters(system, q))
    if potential.kind == "table":
        return np.array([potential_value(system, potential, (i,)) for i in range(1, q + 1)])
    raise ModelError(f"unknown potential kind {potential.kind!r}")


def potential_tail_bounds(system: BranchSystem, potential: Potential,
                          after: int) -> tuple[float, float]:
    """Bounds for a level-1 potential over branches with logical index > after."""
    if potential.kind == "indicator":
        if potential.index <= after:
            return 0.0, 0.0
        return 0.0, 1.0
    if potential.kind == "harmonic":
        return 0.0, 1.0 / system.digit(after + 1)
    if potential.kind == "constant":
        return potential.value_c, potential.value_c
    if potential.bounded:
        return potential.lower, potential.upper
    raise UndeterminedError("potential lacks tail bounds")


def potential_var(system: BranchSystem, potential: Potential, n: int) -> float:
    """Certified oscillation of the potential over n-cylinders."""
    if potential.kind == "log_deriv":
        return var_log_deriv(system, n)
    if n >= potential.level:
        return 0.0
    if potential.bounded:
        return potential.upper - potential.lower
    raise UndeterminedError("unbounded potential lacks a variation bound")


def birkhoff_sum(system: BranchSystem, potential: Potential, word: Sequence[int]) -> float:
    """Sum of the potential along the periodic orbit coded by ``word``.

    Exact for locally constant potentials (cyclic windows of symbols); for
    log|T'| on analytic systems the periodic orbit is computed and the
    log-derivative evaluated at each point.
    """
    w = check_word(system, word)
    n = len(w)
    if potential.kind == "log_deriv" and not is_linear(system):
        zs = periodic_points(system, w)
        return sum(branch(system, s).log_deriv(z) for s, z in zip(w, zs))
    m = potential.level
    if n < m:
        raise UnderdeterminedWordError(f"word of length {n} cannot carry a level-{m} potential")
    total = 0.0
    for j in range(n):
        window = tuple(w[(j + k) % n] for k in range(m))
        total += potential_value(system, potential, window)
    return total


# ---------------------------------------------------------------------------
# model serialization


def load_model(source) -> BranchSystem:
    """Build a system from a JSON file path, JSON text, or a parsed dict."""
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    kind = data.get("kind")
    if kind == "gauss":
        return gauss_system()
    if kind == "flat_example":
        return flat_example_system(K=float(data.get("K", 0.55)),
                                   C=float(data.get("C", 0.6)),
                                   s_inf=float(data.get("s_inf", 0.5)))
    if kind == "linear":
        head = data.get("head")
        if not head:
            raise ModelError("linear model requires a nonempty head")
        return linear_system([float(d) for d in head], xi=data.get("xi"))
    if kind == "custom":
        head = [float(d) for d in data.get("head", [])]
        tail = data.get("tail")
        if tail is None:
            if not head:
                raise ModelError("custom model requires a head or a tail")
            return linear_system(head, xi=data.get("xi"))
        return powerlog_system(head, c=float(tail["c"]), a=float(tail["a"]),
                               b=float(tail.get("b", 1.0)), d=float(tail.get("d", 0.0)),
                               xi=data.get("xi"))
    raise ModelError(f"unknown model kind {kind!r}")


def dump_model(system: BranchSystem) -> dict:
    """JSON-serializable description; inverse of load_model for linear kinds."""
    if system.kind == "gauss" and system.offset == 0:
        return {"kind": "gauss"}
    if system.kind == "flat_example" and system.flat is not None:
        t = system.tail
        return {"kind": "flat_example", "K": system.flat.K, "C": system.flat.C,
                "s_inf": system.flat.s_inf,
                "head": [branch_diameter(system, 1)],
                "tail": {"c": t.c, "a": t.a, "b": t.b, "d": t.d}, "xi": system.xi}
    if not is_linear(system):
        raise ModelError("only linear and built-in systems serialize to JSON")
    out = {"kind": "custom" if system.tail is not None else "linear",
           "head": [b.diameter for b in system.head]}
    if system.tail is not None:
        t = system.tail
        out["tail"] = {"c": t.c, "a": t.a, "b": t.b, "d": t.d}
    out["xi"] = system.xi
    return out


def load_potential(source) -> Potential:
    if isinstance(source, dict):
        data = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    kind = data.get("kind")
    if kind == "indicator":
        return indicator_potential(int(data["index"]))
    if kind == "harmonic":
        return harmonic_potential()
    if kind == "constant":
        return constant_potential(float(data["value"]))
    if kind == "log_deriv":
        return log_deriv_potential()
    if kind == "table":
        values = {tuple(int(s) for s in k.split(",")): float(v)
                  for k, v in data["values"].items()}
        return table_potential(int(data["level"]), values)
    raise ModelError(f"unknown potential kind {kind!r}")


def dump_potential(potential: Potential) -> dict:
    if potential.kind == "indicator":
        return {"kind": "indicator", "index": potential.index}
    if potential.kind == "harmonic":
        return {"kind": "harmonic"}
    if potential.kind == "constant":
        return {"kind": "constant", "value": potential.value_c}
    if potential.kind == "log_deriv":
        return {"kind": "log_deriv"}
    if potential.kind == "table":
        return {"kind": "table", "level": potential.level,
                "values": {",".join(str(s) for s in k): v for k, v in potential.table}}
    raise ModelError(f"unknown potential kind {potential.kind!r}")
