"""Topological pressure, the critical exponent of the diameter series, and
Bowen-type pressure roots.

Pressure is estimated from periodic-word sums

    v_n = (1/n) log sum_{|w| = n, symbols <= q} exp(S_n f(periodic point of w))

with a certified bracket [(log Z_n - V_n)/n, (log Z_n + V_n)/n] around the
truncated pressure, where V_n is the cumulative variation of the potential
over cylinders (a block-concatenation argument: Z_{kn} lies between
Z_n^k e^{-k V_n} and Z_n^k e^{+k V_n} for every k).
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp
from scipy.special import zeta as _hurwitz_zeta

from .errors import (
    BracketError,
    BudgetExceededError,
    ModelError,
    UndeterminedError,
    UnsupportedPotentialError,
)
from .systems import (
    BranchSystem,
    Potential,
    _logsumexp,
    branch_diameter,
    diam_series,
    diameters,
    is_linear,
    level1_values,
    potential_tail_bounds,
    potential_var,
    restricted_system,
    s_inf_exact,
    series_converges,
    var_log_deriv,
)

__all__ = [
    "PressureEstimate",
    "SInfinityResult",
    "RootResult",
    "pressure",
    "pressure_locally_constant",
    "pressure_locally_constant_bracket",
    "s_infinity",
    "pressure_root",
    "restricted_system",
    "default_budget",
]

_CHUNK = 1 << 19
_SWEEPS = 60  # cyclic backward iterations; contraction is at least 0.382/sweep
_FALLBACK_BUDGET = 100_000_000


def default_budget() -> int:
    """Enumeration cap (word evaluations per call); THERMOSPEC_BUDGET overrides."""
    raw = os.environ.get("THERMOSPEC_BUDGET")
    if raw:
        try:
            value = int(float(raw))
        except ValueError:
            raise ModelError(f"THERMOSPEC_BUDGET must be numeric, got {raw!r}")
        if value < 1:
            raise ModelError("THERMOSPEC_BUDGET must be >= 1")
        return value
    return _FALLBACK_BUDGET


# ---------------------------------------------------------------------------
# enumeration engine


def _decode_chunk(q: int, n: int, start: int, end: int) -> list[np.ndarray]:
    """Symbols (1-based) of lexicographic word indices [start, end)."""
    idx = np.arange(start, end, dtype=np.int64)
    cols = []
    for j in range(n):
        power = q ** (n - 1 - j)
        cols.append((idx // power) % q + 1)
    return cols


def _table_lookup(potential: Potential, q: int) -> np.ndarray:
    m = potential.level
    flat = np.full(q ** m, np.nan)
    for key, val in potential.table:
        if all(1 <= s <= q for s in key):
            pos = 0
            for s in key:
                pos = pos * q + (s - 1)
            flat[pos] = val
    return flat


def _potential_sums(system, potential, cols, q):
    """S_n(potential) on the periodic points of the chunk, by cyclic windows."""
    n = len(cols)
    if potential is None:
        return None
    if potential.kind == "log_deriv":
        return "log_deriv"  # handled by the caller from the orbit itself
    if potential.level == 1:
        vals = level1_values(system, potential, q)
        total = np.zeros(len(cols[0]))
        for c in cols:
            total += vals[c - 1]
        return total
    flat = _table_lookup(potential, q)
    m = potential.level
    total = np.zeros(len(cols[0]))
    for j in range(n):
        pos = np.zeros(len(cols[0]), dtype=np.int64)
        for k in range(m):
            pos = pos * q + (cols[(j + k) % n] - 1)
        window = flat[pos]
        if np.isnan(window).any():
            raise ModelError("table potential lacks values for some windows")
        total += window
    return total


def _orbit_log_derivs(system, cols):
    """Sum of log|T'| along each periodic orbit of the chunk (analytic tails)."""
    n = len(cols)
    ms = [c.astype(float) + system.offset for c in cols]
    x = np.full(len(cols[0]), 0.5)
    tmp = np.empty_like(x)
    for _ in range(_SWEEPS):
        for j in range(n - 1, -1, -1):
            np.add(ms[j], x, out=tmp)
            np.divide(1.0, tmp, out=x)
    lnsum = np.zeros_like(x)
    ly = np.empty_like(x)
    for j in range(n - 1, -1, -1):
        np.add(ms[j], x, out=tmp)
        np.divide(1.0, tmp, out=x)
        np.log(x, out=ly)
        lnsum += ly
    return -2.0 * lnsum


class _ArrayCache:
    """Per-level weight arrays keyed by (system, potential, q, n)."""

    def __init__(self, slots: int = 4):
        self.slots = slots
        self.data: dict = {}
        self.order: list = []
        self.lock = threading.Lock()

    def get(self, system, potential, q, n, workers):
        key = (system, potential, q, n)
        with self.lock:
            if key in self.data:
                return self.data[key]
        arrays = _build_level_arrays(system, potential, q, n, workers)
        with self.lock:
            self.data[key] = arrays
            self.order.append(key)
            while len(self.order) > self.slots:
                old = self.order.pop(0)
                self.data.pop(old, None)
        return arrays


_LEVEL_CACHE = _ArrayCache()


def _build_level_arrays(system, potential, q, n, workers):
    """(L, phi): summed log-derivatives and potential sums per word.

    The arrays are filled chunk by chunk into preallocated buffers, so the
    result is identical for any worker count.
    """
    total = q ** n
    L = np.empty(total)
    needs_phi = potential is not None and potential.kind != "log_deriv"
    phi = np.empty(total) if needs_phi else None
    linear = is_linear(system)
    logr = np.log(diameters(system, q)) if linear else None

    def fill(start):
        end = min(start + _CHUNK, total)
        cols = _decode_chunk(q, n, start, end)
        if linear:
            acc = np.zeros(end - start)
            for c in cols:
                acc += logr[c - 1]
            L[start:end] = -acc
        else:
            L[start:end] = _orbit_log_derivs(system, cols)
        if needs_phi:
            phi[start:end] = _potential_sums(system, potential, cols, q)

    starts = list(range(0, total, _CHUNK))
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, starts))
    else:
        for s in starts:
            fill(s)

    if potential is not None and potential.kind == "log_deriv":
        phi = L.copy()
    return L, phi


def _ordered_logsumexp(arr: np.ndarray) -> float:
    """Log-sum-exp over fixed chunks combined in index order (bit-stable)."""
    parts = [logsumexp(arr[i:i + _CHUNK]) for i in range(0, len(arr), _CHUNK)]
    out = parts[0]
    for p in parts[1:]:
        out = np.logaddexp(out, p)
    return float(out)


def _log_partition(L, phi, t):
    if phi is None:
        return _ordered_logsumexp(-t * L)
    return _ordered_logsumexp(phi - t * L)


# ---------------------------------------------------------------------------
# pressure


@dataclass(frozen=True)
class PressureEstimate:
    """Finite-truncation pressure data.

    ``values[i]`` is v_{levels[i]} for the truncated system on symbols
    {1..q}.  ``bracket`` certifies the truncated pressure; when ``diverged``
    is set the full-system pressure is +inf (the tail series diverges) and
    the bracket upper end is +inf as well.
    """

    values: tuple
    levels: tuple
    q: int
    t: float
    extrapolated: float
    bracket: tuple
    diverged: bool
    var_totals: tuple


def _aitken(values) -> float:
    if len(values) < 3:
        return values[-1]
    x0, x1, x2 = values[-3:]
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-13 * max(1.0, abs(x2)):
        return x2
    return x2 - (x2 - x1) ** 2 / denom


def _variation_total(system, potential, t, n) -> float:
    total = 0.0
    for j in range(1, n + 1):
        total += abs(t) * var_log_deriv(system, j)
        if potential is not None:
            total += potential_var(system, potential, j)
    return total


def _full_pressure_finite(system, potential, t) -> bool:
    """Finiteness of the untruncated pressure via the level-1 tail test."""
    if system.tail is None:
        return True
    if potential is not None and not (potential.bounded or potential.kind == "log_deriv"):
        raise UndeterminedError("potential lacks bounds for the divergence test")
    if system.tail.kind == "gauss":
        return t > 0.5
    return series_converges(system, t)


def pressure(system: BranchSystem, potential: Potential | None = None, *,
             t: float = 0.0, q: int | None = None, n_max: int = 3,
             budget: int | None = None, workers: int = 1) -> PressureEstimate:
    """Estimate P(potential - t log|T'|) on the truncation to symbols {1..q}.

    Exact word enumeration level by level; level-1 potentials on all-linear
    systems factorize (Z_n = Z_1^n exactly) and skip the enumeration.  Raises
    a budget error carrying the completed levels when q^n exceeds the cap.
    """
    nb = system.branch_count()
    if q is None:
        q = nb
        if q is None:
            raise ModelError("a truncation level q is required for infinite systems")
    elif nb is not None:
        q = min(q, nb)
    if q < 1 or n_max < 1:
        raise ModelError("q and n_max must be >= 1")
    level = 1 if potential is None else potential.level
    if level > n_max:
        raise UnsupportedPotentialError(
            f"potential level {level} exceeds n_max={n_max}")
    if budget is None:
        budget = default_budget()

    diverged = not _full_pressure_finite(system, potential, t)
    simple = (is_linear(system) and level == 1
              and (potential is None or potential.kind != "log_deriv"))

    values: list[float] = []
    levels: list[int] = []
    if simple:
        logd = np.log(diameters(system, q))
        vals = level1_values(system, potential, q) if potential is not None else 0.0
        v1 = _logsumexp(vals + t * logd)
        for n in range(1, n_max + 1):
            values.append(v1)
            levels.append(n)
    else:
        spent = 0
        for n in range(1, n_max + 1):
            spent += q ** n
            if spent > budget:
                partial = _finish_estimate(system, potential, t, q, values, levels, diverged)
                raise BudgetExceededError(
                    f"enumeration of q={q}, n={n} exceeds budget {budget}",
                    partial=partial)
            L, phi = _LEVEL_CACHE.get(system, potential, q, n, workers)
            values.append(_log_partition(L, phi, t) / n)
            levels.append(n)

    return _finish_estimate(system, potential, t, q, values, levels, diverged)


def _finish_estimate(system, potential, t, q, values, levels, diverged):
    if not values:
        return PressureEstimate(values=(), levels=(), q=q, t=t,
                                extrapolated=math.nan, bracket=(math.nan, math.nan),
                                diverged=diverged, var_totals=())
    var_totals = tuple(_variation_total(system, potential, t, n) for n in levels)
    lows = [v - vt / n for v, vt, n in zip(values, var_totals, levels)]
    highs = [v + vt / n for v, vt, n in zip(values, var_totals, levels)]
    lo = max(lows)
    hi = math.inf if diverged else min(highs)
    lo = min(lo, hi)
    if diverged:
        extrapolated = math.inf
    else:
        extrapolated = min(max(_aitken(values), lo), hi)
    return PressureEstimate(values=tuple(values), levels=tuple(levels), q=q, t=t,
                            extrapolated=extrapolated, bracket=(lo, hi),
                            diverged=diverged, var_totals=var_totals)


# ---------------------------------------------------------------------------
# level-1 closed form for all-linear systems


_PLC_HEAD = 100_000


@functools.lru_cache(maxsize=4096)
def _plc_head_arrays(system, potential):
    count = system.branch_count()
    H = count if count is not None else _PLC_HEAD
    logd = np.log(diameters(system, H))
    vals = level1_values(system, potential, H) if potential is not None else np.zeros(H)
    return H, logd, vals


def pressure_locally_constant_bracket(system: BranchSystem,
                                      potential: Potential | None = None,
                                      t: float = 1.0,
                                      coeff: float = 1.0) -> tuple[float, float]:
    """Certified bracket for log sum_i e^{coeff phi(i)} diam(I_i)^t.

    This is the exact pressure of coeff*phi - t log|T'| for all-linear
    systems with a level-1 potential (the full shift factorizes).  Returns
    (+inf, +inf) when the series diverges.
    """
    if not is_linear(system):
        raise UnsupportedPotentialError("closed-form pressure requires an all-linear system")
    if potential is not None and potential.level != 1:
        raise UnsupportedPotentialError("closed-form pressure requires a level-1 potential")
    if system.tail is not None and not series_converges(system, t):
        return math.inf, math.inf
    H, logd, vals = _plc_head_arrays(system, potential)
    head = _logsumexp(coeff * vals + t * logd)
    if system.tail is None:
        return head, head
    t_lo, t_hi = diam_series(system, t, start=H + 1)
    if potential is None:
        p_lo = p_hi = 0.0
    else:
        p_lo, p_hi = potential_tail_bounds(system, potential, H)
    if coeff >= 0:
        tail_lo, tail_hi = coeff * p_lo + math.log(t_lo), coeff * p_hi + math.log(t_hi)
    else:
        tail_lo, tail_hi = coeff * p_hi + math.log(t_lo), coeff * p_lo + math.log(t_hi)
    return (float(np.logaddexp(head, tail_lo)), float(np.logaddexp(head, tail_hi)))


def pressure_locally_constant(system: BranchSystem,
                              potential: Potential | None = None,
                              t: float = 1.0, coeff: float = 1.0) -> float:
    """Midpoint of the certified bracket; +inf when the series diverges."""
    lo, hi = pressure_locally_constant_bracket(system, potential, t, coeff)
    if math.isinf(hi) and hi > 0:
        return math.inf
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# critical exponent of the diameter series


@dataclass(frozen=True)
class SInfinityResult:
    """Critical exponent with a convergence/divergence certificate.

    ``value`` is exact (from the tail exponents); ``s_lo``/``s_hi`` come from
    bisecting the convergence predicate to width <= tol.  The certificate
    records the convergent tail bound at s_hi and, at s_lo, how many terms
    the partial sum would need to exceed a probe bound (log10; typically
    astronomically large, which is why the divergence evidence is the
    integral lower bound rather than a literal partial sum).
    """

    value: float
    method: str
    s_lo: float
    s_hi: float
    certificate: dict
    cross_check: float
    agree: bool


def _terms_to_exceed_log10(system, s, bound) -> float:
    """log10 of a term count whose partial sum provably exceeds ``bound``."""
    if system.tail is None:
        return math.nan
    if system.tail.kind == "gauss":
        p = 2.0 * s
        if p >= 1.0:
            return math.inf
        # sum_{m<=K} (m(m+1))^{-s} >= ((K+1)^{1-p} - 2^{1-p}) / ((1-p) 2^s)
        target = bound * (1.0 - p) * 2.0 ** s + 2.0 ** (1.0 - p)
        return math.log10(target) / (1.0 - p)
    tail = system.tail
    p = tail.a * s
    r = tail.d * s
    if p > 1.0 or (p == 1.0 and r > 1.0):
        return math.inf
    cs = tail.c ** s
    if p < 1.0:
        # ignore the log factor's help; bound each term below by
        # cs * m^{-p} (log(m+b))^{-r} >= cs * m^{-p-eps} for large m; use the
        # crude certified bound with the log factor frozen at K.
        # Solve cs * K^{1-p} / ((1-p) (log K)^r) >= bound iteratively in log10.
        x = 10.0
        for _ in range(200):
            lx = x * math.log(10.0)
            need = (math.log10(bound * (1.0 - p)) - math.log10(cs)
                    + r * math.log10(lx)) / (1.0 - p)
            if abs(need - x) < 1e-9:
                return need
            x = max(need, 1.0)
        return x
    # p == 1, r < 1: partial sums grow like cs (log K)^{1-r} / (1-r), so
    # log K = (bound (1-r) / cs)^{1/(1-r)} and the report is log10 K.
    if r < 1.0:
        return (bound * (1.0 - r) / cs) ** (1.0 / (1.0 - r)) / math.log(10.0)
    return math.inf  # r == 1: log log growth; report as out of reach


def _pressure_scan_finite(system, t) -> bool:
    """Dual finiteness test through the pressure machinery."""
    if system.tail is None:
        return True
    if system.tail.kind == "gauss":
        # level-1 upper sums use the derivative range: sum_m m^{-2t}
        if 2.0 * t <= 1.0:
            return False
        return math.isfinite(float(_hurwitz_zeta(2.0 * t, 1 + system.offset)))
    return math.isfinite(pressure_locally_constant(system, None, t))


def s_infinity(system: BranchSystem, tol: float = 1e-3) -> SInfinityResult:
    """Critical exponent s_inf = inf{s >= 0 : sum diam(I_i)^s < inf}."""
    if tol <= 0:
        raise ModelError("tolerance must be positive")
    if system.tail is None:
        cert = {"finite_system": True, "series_at_0": float(len(system.head))}
        return SInfinityResult(value=0.0, method="series-exponent", s_lo=0.0,
                               s_hi=0.0, certificate=cert, cross_check=0.0,
                               agree=True)

    def bisect(pred):
        lo, hi = 0.0, 1.0
        if not pred(hi):
            raise UndeterminedError("series diverges at s=1; packing violated")
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if pred(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    s_lo, s_hi = bisect(lambda s: series_converges(system, s))
    value = s_inf_exact(system)
    upper_lo, upper_hi = diam_series(system, s_hi)
    cert = {
        "series_upper_bound_at_s_hi": upper_hi,
        "series_lower_bound_at_s_lo": math.inf,
        "probe_bound": 1e6,
        "log10_terms_to_exceed_probe_at_s_lo": _terms_to_exceed_log10(system, s_lo, 1e6),
        "converges_at_value": series_converges(system, value),
    }
    scan_lo, scan_hi = bisect(lambda s: _pressure_scan_finite(system, s))
    cross = 0.5 * (scan_lo + scan_hi)
    agree = abs(value - cross) <= tol
    return SInfinityResult(value=value, method="series-exponent", s_lo=s_lo,
                           s_hi=s_hi, certificate=cert, cross_check=cross,
                           agree=agree)


# ---------------------------------------------------------------------------
# pressure roots


@dataclass(frozen=True)
class RootResult:
    """Root of t -> P(-t log|T'|) with a certified enclosure.

    ``value`` is the point estimate; ``interval`` encloses the true root of
    the truncation-free pressure given the search bracket, combining series
    brackets, level-1 derivative-range sandwiches and (when enumeration ran)
    distortion-corrected periodic-word bounds.
    """

    value: float
    interval: tuple
    method: str
    residual: float
    q: int | None
    n_used: int | None
    bracket: tuple


def _bisect_root(fn, lo, hi, tol=1e-12, max_iter=200):
    """Root of a decreasing function with fn(lo) >= 0 >= fn(hi)."""
    flo, fhi = fn(lo), fn(hi)
    if flo < 0 or fhi > 0:
        raise BracketError(f"function does not straddle zero on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if fn(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


def _root_ends(fn, lo, hi, tol):
    """Final bisection bracket of a decreasing fn's root on [lo, hi].

    When fn does not straddle zero there, both ends are the end of [lo, hi]
    that the root lies beyond.
    """
    try:
        return _bisect_root(fn, lo, hi, tol=tol)[1:]
    except BracketError:
        r = lo if fn(lo) < 0 else hi
        return r, r


def _zeta_tail(s: float, first: float) -> float:
    """sum_{m >= first} m^{-s} for s > 1 (Hurwitz zeta)."""
    if s <= 1.0:
        return math.inf
    return float(_hurwitz_zeta(s, first))


def _moran_point(system, t):
    lo, hi = diam_series(system, t)
    if math.isinf(hi):
        return math.inf
    return math.log(0.5 * (lo + hi))


def pressure_root(system: BranchSystem, bracket=None, tol: float = 1e-10, *,
                  q: int | None = None, n_max: int = 3,
                  budget: int | None = None, workers: int = 1) -> RootResult:
    """Solve P(-t log|T'|) = 0 for t.

    Finite all-linear systems solve the Moran equation directly.  Infinite
    all-linear systems bisect the certified series bracket.  Analytic tail
    systems combine a level-1 derivative-range sandwich (upper weights m^-2t,
    lower weights (m+1)^-2t per branch m) with optional periodic-word
    enumeration when the truncation captures >= 99% of the level-1 mass.
    """
    if budget is None:
        budget = default_budget()

    if is_linear(system):
        if system.tail is None:
            return _root_finite_linear(system, bracket, tol)
        return _root_series(system, bracket, tol)
    return _root_analytic(system, bracket, tol, q, n_max, budget, workers)


def _normalize_bracket(bracket, default_lo, default_hi):
    if bracket is None:
        return float(default_lo), float(default_hi)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise BracketError(f"bracket must be ordered, got [{lo}, {hi}]")
    return lo, hi


def _root_finite_linear(system, bracket, tol):
    logd = np.log(diameters(system, len(system.head)))

    def P(t):
        return _logsumexp(t * logd)

    lo, hi = _normalize_bracket(bracket, 0.0, 1.0)
    if bracket is None:
        while P(hi) > 0:
            hi *= 2.0
            if hi > 64:
                raise BracketError("no pressure root below t=64")
    if P(lo) < 0 or P(hi) > 0:
        raise BracketError(
            f"pressure does not straddle 0 on [{lo}, {hi}]: P({lo})={P(lo):.3g}, P({hi})={P(hi):.3g}")
    value, tlo, thi = _bisect_root(P, lo, hi, tol=min(tol, 1e-12))
    return RootResult(value=value, interval=(tlo, thi), method="moran",
                      residual=P(value), q=None, n_used=None, bracket=(lo, hi))


def _root_series(system, bracket, tol):
    s_inf = s_inf_exact(system)
    lo_default = s_inf if series_converges(system, s_inf) else s_inf + 1e-6

    def P_parts(t):
        slo, shi = diam_series(system, t)
        return slo, shi

    def P_mid(t):
        slo, shi = P_parts(t)
        if math.isinf(shi):
            return math.inf
        return math.log(0.5 * (slo + shi))

    lo, hi = _normalize_bracket(bracket, lo_default, 1.0)
    if P_mid(lo) < 0 or P_mid(hi) > 1e-15:
        raise BracketError(
            f"pressure does not straddle 0 on [{lo}, {hi}]: "
            f"P({lo})={P_mid(lo):.3g}, P({hi})={P_mid(hi):.3g}")
    value, _, _ = _bisect_root(P_mid, lo, hi, tol=min(tol, 1e-12))

    def P_low(t):
        slo = P_parts(t)[0]
        return math.log(slo) if slo > 0 else -math.inf

    def P_high(t):
        shi = P_parts(t)[1]
        return math.log(shi) if math.isfinite(shi) else math.inf

    # each certified end is the outer end of its final bisection bracket
    root_lo = _root_ends(P_low, lo, hi, 1e-13)[0]
    root_hi = _root_ends(P_high, lo, hi, 1e-13)[1]
    value = min(max(value, root_lo), root_hi)
    interval = (root_lo, root_hi)
    return RootResult(value=value, interval=interval, method="series",
                      residual=P_mid(value), q=None, n_used=None, bracket=(lo, hi))


def _root_analytic(system, bracket, tol, q, n_max, budget, workers):
    if system.tail is None or system.tail.kind != "gauss":
        raise ModelError("analytic root finding is implemented for the continued-fraction family")
    N = 1 + system.offset  # first physical digit

    def sandwich_hi(t):  # upper pressure bound: sup derivative weights
        return math.log(_zeta_tail(2.0 * t, N)) if 2.0 * t > 1.0 else math.inf

    def sandwich_lo(t):  # lower pressure bound: inf derivative weights
        return math.log(_zeta_tail(2.0 * t, N + 1)) if 2.0 * t > 1.0 else math.inf

    lo, hi = _normalize_bracket(bracket, 0.5 + 1e-6, 2.0)

    use_enum = False
    n_eff = 0
    if q is not None:
        t_mid = 0.5 * (lo + hi)
        full = _zeta_tail(2.0 * t_mid, N)
        captured = full - _zeta_tail(2.0 * t_mid, N + q)
        use_enum = math.isfinite(full) and captured / full >= 0.99
        if use_enum:
            spent = 0
            for n in range(1, n_max + 1):
                spent += q ** n
                if spent > budget:
                    break
                n_eff = n
            use_enum = n_eff >= 1

    levels = {}

    def ensure_levels(upto):
        for n in range(1, upto + 1):
            if n not in levels:
                levels[n] = _LEVEL_CACHE.get(system, None, q, n, workers)

    def point_pressure(t):
        if use_enum:
            vs = [_log_partition(levels[n][0], levels[n][1], t) / n
                  for n in sorted(levels)]
            est = _aitken(vs)
            c_lo, c_hi = certified_at(t)
            return min(max(est, c_lo), c_hi)
        return _moran_point(system, t)

    def certified_at(t):
        lows = [sandwich_lo(t)]
        highs = [sandwich_hi(t)]
        if use_enum:
            for n in sorted(levels):
                L, phi = levels[n]
                logZ = _log_partition(L, phi, t)
                V = _variation_total(system, None, t, n)
                lows.append((logZ - V) / n)
                S_full = _zeta_tail(2.0 * t, N)
                S_q = S_full - _zeta_tail(2.0 * t, N + q)
                missing = max(S_full ** n - S_q ** n, 0.0)
                completed = np.logaddexp(logZ + V, math.log(missing) if missing > 0 else -math.inf)
                highs.append(float(completed) / n)
        return max(lows), min(highs)

    if use_enum:
        ensure_levels(n_eff)

    p_lo, p_hi = point_pressure(lo), point_pressure(hi)
    if p_lo < 0 or p_hi > 0:
        raise BracketError(
            f"pressure does not straddle 0 on [{lo}, {hi}]: P({lo})={p_lo:.3g}, P({hi})={p_hi:.3g}")

    # refine the level ladder before narrowing t whenever the certified
    # bracket at the midpoint still straddles zero and budget remains
    if use_enum:
        while True:
            c_lo, c_hi = certified_at(0.5 * (lo + hi))
            if not (c_lo <= 0.0 <= c_hi) or n_eff >= n_max:
                break
            spent = sum(q ** n for n in range(1, n_eff + 2))
            if spent > budget:
                break
            n_eff += 1
            ensure_levels(n_eff)

    value, _, _ = _bisect_root(point_pressure, lo, hi, tol=min(tol, 1e-10))

    # each certified end is the outer end of its final bisection bracket
    cert_lo = _root_ends(lambda t: certified_at(t)[0], lo, hi, 1e-12)[0]
    cert_hi = _root_ends(lambda t: certified_at(t)[1], lo, hi, 1e-12)[1]
    value = min(max(value, cert_lo), cert_hi)
    interval = (cert_lo, cert_hi)
    method = "enumeration" if use_enum else "level1-sandwich"
    return RootResult(value=value, interval=interval, method=method,
                      residual=point_pressure(value), q=q if use_enum else None,
                      n_used=n_eff if use_enum else None, bracket=(lo, hi))
