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

import numpy as np

from ._frozen import frozen
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
    _decode_words,
    _logaddexp,
    _logsumexp,
    constant_potential,
    diam_series,
    diameters,
    has_gauss_tail,
    hurwitz_zeta,
    is_linear,
    level1_values,
    log_deriv_potential,
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

_CHUNK = 1 << 19  # a threaded build's block; one worker's and a pass's are a tile
_TILE = 1 << 15
_LOG_DERIV = log_deriv_potential()
_FALLBACK_BUDGET = 100_000_000
_EPS = float(np.finfo(float).eps)


def default_budget() -> int:
    """Enumeration cap (word evaluations per call); THERMOSPEC_BUDGET overrides."""
    raw = os.environ.get("THERMOSPEC_BUDGET")
    if raw:
        try:
            value = int(float(raw))
        except (ValueError, OverflowError):
            raise ModelError(f"THERMOSPEC_BUDGET must be numeric, got {raw!r}")
        if value < 1:
            raise ModelError("THERMOSPEC_BUDGET must be >= 1")
        return value
    return _FALLBACK_BUDGET


# ---------------------------------------------------------------------------
# enumeration engine


class _LevelArray(np.ndarray):
    """A level's L with ``segments`` and ``minima``.

    ``segments`` are (mult, start, stop): each value in L[start:stop] stands
    for ``mult`` words.  ``minima`` holds the least value of each of the
    segments' tiles, in pass order (``_tiles``).  Slices, copies and other
    views have both None, which reads as one segment of single words."""

    segments = None
    minima = None


def _tiles(L):
    """(mult, [slices]) per segment of L: its ``_TILE``-long pieces."""
    segments = getattr(L, "segments", None) or ((1, 0, len(L)),)
    return [(mult, [slice(i, min(i + _TILE, stop)) for i in range(start, stop, _TILE)])
            for mult, start, stop in segments]


def _with_minima(L, segments=None):
    """L as a ``_LevelArray`` carrying its segments (None: one segment of
    single words) and the minima of its tiles."""
    L = L.view(_LevelArray)
    L.segments = segments
    L.minima = tuple(float(L[s].min()) for _, tiles in _tiles(L) for s in tiles)
    return L


def _level_plan(q, n, multiset, size):
    """(segments, blocks) of a level over the digits 1..q.

    Each block is a function that returns (cols, places): digit columns
    that broadcast to the block's shape, and (index, start) pairs that put
    the block's values ``[index]`` (index None: all), in row-major order,
    at [start:] of the level's array.  Every value is the potential's at
    its word whatever block forms it, so the level is the same for any
    block ``size``.  A block's scratch fits ``size`` values: the potential
    makes one temporary of the block's shape (see
    ``LogDerivPotential.birkhoff_sums``), so a block written in place takes
    ``size`` values, and one formed in an array of its own, then placed,
    half as many (at least one row either way).

    All words: one segment of single words, written in place as whole
    (n-1)-prefixes, as columns (P, 1) against the q last digits as (1, q).

    One value per digit multiset (n = 3): segments of multiplicity
    3!/prod k_i!, the number of words that reorder the multiset, and
    C(q+2, 3) values in all.  The words (v, v, w) are formed in rows v, as
    prefixes above, and split by mask: w = v is the multiset {v, v, v},
    multiplicity 1, and w != v is {v, v, w}, multiplicity 3.  The
    multisets of three distinct digits, multiplicity 6, are the words
    (a, m, b) with a < m < b, each middle digit's (m-1) x (q-m) rectangle
    of them in turn.  A block forms the next rows (a, m) that fit against
    the columns b > m0, its first row's m, and each middle digit's run of
    rows r gives the slice [r, m - m0:].  Continuant steps run on rows.
    """
    digits = np.arange(1, q + 1)
    last = digits[None, :]
    if not multiset:
        prefixes, rows = q ** (n - 1), max(1, size // q)

        def words(first):
            p = _decode_words(q, n - 1, first, min(first + rows, prefixes))
            return [c[:, None] for c in p.T] + [last], [(None, first * q)]

        blocks = [functools.partial(words, f) for f in range(0, prefixes, rows)]
        return ((1, 0, q ** n),), blocks

    size //= 2  # formed in an array of its own
    rows = max(1, size // q)

    def by_row(r0):
        v = digits[r0:r0 + rows, None]
        return [v, v, last], [(v == last, r0), (last != v, q + r0 * (q - 1))]

    def by_middle(runs, start):
        m0, places, r = runs[0][0], [], 0
        for m, a0, a1 in runs:
            places.append(((slice(r, r + a1 - a0), slice(m - m0, None)), start))
            start, r = start + (a1 - a0) * (q - m), r + a1 - a0
        a = np.concatenate([digits[a0 - 1:a1 - 1] for _, a0, a1 in runs])[:, None]
        m = np.repeat([m for m, _, _ in runs], [a1 - a0 for _, a0, a1 in runs])[:, None]
        return [a, m, digits[None, m0:]], places

    blocks = [functools.partial(by_row, r0) for r0 in range(0, q, rows)]
    start = distinct = q * q
    m, a = 2, 1  # the next row (a, m)
    while m < q:
        runs, room, first = [], max(1, size // (q - m)), start
        while m < q and room:
            k = min(room, m - a)
            runs.append((m, a, a + k))
            start, room, a = start + k * (q - m), room - k, a + k
            if a == m:
                m, a = m + 1, 1
        blocks.append(functools.partial(by_middle, runs, first))
    segments = ((1, 0, q), (3, q, distinct), (6, distinct, start))
    return tuple(seg for seg in segments if seg[2] > seg[1]), blocks


@functools.lru_cache(maxsize=8)
def _level_sums(system, potential, q, n, multiset, workers):
    """Birkhoff sums of ``potential`` over the words of level n, in the
    layout of ``_level_plan``, block by block.  For the log|T'| potential
    this is L, a ``_LevelArray`` with its segments and the minima of its
    tiles; for any other potential it is phi, per word.  ``workers`` threads fill the
    blocks; the bits do not depend on them.  One worker's blocks fit a
    ``_TILE``, so the build holds about a tile beyond the level.  Threads
    pass the interpreter lock at each numpy call, and on a tile's calls
    that handover outweighs the work, so with more workers a block fits a
    ``_CHUNK``.
    """
    segments, blocks = _level_plan(q, n, multiset, _TILE if workers == 1 else _CHUNK)
    sums = np.empty(segments[-1][2])

    def fill(block):
        cols, places = block()
        index, start = places[0]
        if index is None:
            shape = np.broadcast_shapes(*(np.shape(c) for c in cols))
            out = sums[start:start + math.prod(shape)].reshape(shape)
            potential.birkhoff_sums(system, cols, out=out)
        else:  # a multiset block, picked by mask or by row runs
            values = potential.birkhoff_sums(system, cols)
            for index, start in places:
                part = values[index]
                sums[start:start + part.size].reshape(part.shape)[...] = part

    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # pulls in logging
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    else:
        for block in blocks:
            fill(block)
    return _with_minima(sums, segments) if potential == _LOG_DERIV else sums


def _level_arrays(system, potential, q, n, workers):
    """(L, phi) of level n: phi is None with no potential and L itself for
    the log|T'| one.  Those two hold one value per digit multiset at n = 3:
    the continuant trace that gives log|(T^3)'| is symmetric in the digits.
    A level-1 potential's sum is symmetric too, but it would then be
    rounded once for up to six orderings, each rounded on its own in the
    all-word layout, so with any other potential both keep every word."""
    if potential is None or potential == _LOG_DERIV:
        L = _level_sums(system, _LOG_DERIV, q, n, n == 3, workers)
        return L, None if potential is None else L
    return (_level_sums(system, _LOG_DERIV, q, n, False, workers),
            _level_sums(system, potential, q, n, False, workers))


def _levels_within(q, n_max, budget):
    """The deepest level n <= n_max whose words q + q^2 + ... + q^n fit the
    budget."""
    spent = 0
    for n in range(1, n_max + 1):
        spent += q ** n
        if spent > budget:
            return n - 1
    return n_max


def _log_partition(L, phi, t):
    """log sum exp(phi - t L) over the words of one level (phi None: 0).

    Each segment of L (``_LevelArray``) stands for mult words per value, so
    its log-sum-exp, plus log(mult), is its words' share; the segments are
    folded in order with ``_logaddexp``.  A segment's log-sum-exp is
    ``_logsumexp``'s arithmetic streamed one ``_TILE`` at a time: one
    maximum a_max, the ties (exponents equal to it) zeroed and counted, and
    each tile's shifted exponentials summed by numpy, the tiles' sums then
    added exactly rounded (``math.fsum``).  So a segment of one tile has
    ``_logsumexp``'s bits.  The pass holds one tile of floats and one of
    bools, made once, whatever the level's size.

    With phi None, t > 0 and L a ``_LevelArray``, rounding is monotone, so
    a tile's largest exponent is exactly fl(-t min), its stored minimum
    times -t: the tiles are spared their maximum search.
    """
    minima = iter(L.minima) if phi is None and t > 0 and isinstance(L, _LevelArray) else None
    tile, ties = np.empty(_TILE), np.empty(_TILE, bool)

    def exponents(s):
        a = np.multiply(L[s], -t, out=tile[:s.stop - s.start])
        return a if phi is None else np.add(phi[s], a, out=a)

    out = None
    for mult, tiles in _tiles(L):
        if minima:  # tiles first, so zip takes no minimum past the segment's
            tops = [lo * -t for _, lo in zip(tiles, minima)]
        else:
            tops = [exponents(s).max() for s in tiles]
        a_max = float(np.max(tops))
        if not math.isfinite(a_max):
            # a sum of 0, inf or NaN whatever the order, so a plain one:
            # fsum raises on a finite overflow even beside an inf
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                total = float(np.sum([np.exp(a, out=a).sum() for a in map(exponents, tiles)]))
                seg = float(np.log(total))
        else:
            m, sums = 0, []
            for s, top in zip(tiles, tops):
                a = exponents(s)
                a -= a_max
                if top == a_max:
                    tie = np.equal(a, 0.0, out=ties[:len(a)])
                    m += int(np.count_nonzero(tie))
                    np.exp(a, out=a)
                    a[tie] = 0.0
                else:
                    np.exp(a, out=a)
                sums.append(float(a.sum()))
            seg = float(np.log1p(math.fsum(sums) / m) + np.log(float(m)) + a_max)
        if mult != 1:
            seg += math.log(mult)
        out = seg if out is None else _logaddexp(out, seg)
    return out


_ROWS_FROM = 64  # H: level 3 is summed in rows past this digit
_ROWS_BELOW = 2 ** 100  # digits below it keep the traces' squares finite


def _level_log_partition(system, potential, q, n, t, workers):
    """log Z_n(t), the log of sum exp(phi - t L) over the words of level n
    on the digits 1..q (phi None: 0).  Level 3 with no potential, t > 0
    (or log|T'| at t - 1 > 0, as phi - t L = -(t - 1) L) and q >= ``_ROWS_FROM``
    on the continued-fraction family is summed in rows (``level3.log_partition``);
    every other level, and those where the rows' remainder bound fails, is a
    pass over the level's arrays.  The rows' module is imported here, so
    that only enumeration compiles it."""
    rows_t = t if potential is None else t - 1.0 if potential == _LOG_DERIV else 0.0
    if (n == 3 and rows_t > 0 and _ROWS_FROM <= q < _ROWS_BELOW - system.offset
            and not is_linear(system)):
        from .level3 import log_partition
        value = log_partition(system, q, rows_t, workers)
        if value is not None:
            return value
    return _log_partition(*_level_arrays(system, potential, q, n, workers), t)


# ---------------------------------------------------------------------------
# pressure


@frozen
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
            total += potential.var(system, j)
    return total


def pressure(system: BranchSystem, potential: Potential | None = None, *,
             t: float = 0.0, q: int | None = None, n_max: int = 3,
             budget: int | None = None, workers: int = 1) -> PressureEstimate:
    """Estimate P(potential - t log|T'|) on the truncation to symbols {1..q}.

    Exact word enumeration level by level; level-1 potentials on all-linear
    systems factorize (Z_n = Z_1^n exactly) and skip the enumeration.  Raises
    a budget error carrying the completed levels when q^n exceeds the cap,
    which counts every word of a level however it is summed.  Level 3 with
    no potential, t > 0 and q >= 64 on the continued-fraction family is not
    built: past digit 64 it is summed in Euler-Maclaurin rows whose
    remainder, bounded by the first omitted term, must stay within 2^-56
    of the level's sum, or the level's array is built after all
    (``_level_log_partition``).
    """
    if not math.isfinite(t):
        raise ModelError(f"t must be finite, got {t}")
    nb = system.branch_count()
    if q is None:
        q = nb
        if q is None:
            raise ModelError("a truncation level q is required for infinite systems")
    elif nb is not None:
        q = min(q, nb)
    if q < 1 or n_max < 1:
        raise ModelError("q and n_max must be >= 1")
    if workers < 1:
        raise ModelError(f"workers must be >= 1, got {workers}")
    level = 1 if potential is None else potential.level
    if level > n_max:
        raise UnsupportedPotentialError(
            f"potential level {level} exceeds n_max={n_max}")
    if budget is None:
        budget = default_budget()

    # finiteness of the untruncated pressure via the level-1 tail test;
    # log|T'| - t log|T'| is -(t - 1) log|T'|
    s = t - 1.0 if potential == _LOG_DERIV else t
    diverged = system.tail is not None and not series_converges(system, s)
    simple = is_linear(system) and level == 1 and potential != _LOG_DERIV

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
        fits = _levels_within(q, n_max, budget)
        for n in range(1, fits + 1):
            values.append(_level_log_partition(system, potential, q, n, t, workers) / n)
            levels.append(n)
        if fits < n_max:
            partial = _finish_estimate(system, potential, t, q, values, levels, diverged)
            raise BudgetExceededError(
                f"enumeration of q={q}, n={fits + 1} exceeds budget {budget}",
                partial=partial)

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
# the tilted level-1 series
#
#     f(t, q) = log sum_i e^{q phi(i)} w_i^t
#
# for a level-1 potential phi: an explicit head of digits and a certified
# tail beyond it.  On all-linear systems w_i = diam(I_i) and f is the exact
# pressure of q phi - t log|T'| (the full shift factorizes).


_PLC_HEAD = 100_000
_ZERO = constant_potential(0.0)


def _log(x: float) -> float:
    """math.log, with -inf for a sum that underflowed to 0."""
    return math.log(x) if x > 0 else -math.inf


def _zeta_tail(s: float, first: float) -> float:
    """sum_{m >= first} m^{-s} for s > 1 (Hurwitz zeta)."""
    if s <= 1.0:
        return math.inf
    return hurwitz_zeta(s, first)


@functools.lru_cache(maxsize=16)
def _level1_head(system: BranchSystem, potential: Potential):
    """t-independent head of the tilted series: the one cache of its data.

    Returns (H, vals, logd, term_vals, digits, short), one entry per digit
    in digit order: the head length, the potential values (a view of the
    term values) and log diam(I_i), the term values, which on a system with
    a tail end with the midpoint of the potential's tail bounds, the
    physical digits (None on linear systems), and (term_vals, logd) as
    lists for ``_series_groups``' short form, or None past 7 terms.

    A finite system's head is all of it.  Otherwise the head is the
    shortest max(1, len(head)) 2^j digits past which the potential is one
    constant (equal ``tail_bounds``), and the tail sum carries every later
    digit; a potential that is not constant past ``_PLC_HEAD`` digits keeps
    that many explicit.
    """
    H = system.branch_count()
    if H is None:
        H = max(1, len(system.head))
        while H < _PLC_HEAD and len(set(potential.tail_bounds(system, H))) > 1:
            H = min(2 * H, _PLC_HEAD)
    p_mid = []
    if system.tail is not None:
        p_lo, p_hi = potential.tail_bounds(system, H)
        p_mid = [0.5 * (p_lo + p_hi)]
    term_vals = np.append(level1_values(system, potential, H), p_mid)
    logd = np.log(diameters(system, H))
    digits = None if is_linear(system) else np.arange(1, H + 1, dtype=float) + system.offset
    short = (term_vals.tolist(), logd.tolist()) if len(term_vals) <= 7 else None
    return H, term_vals[:H], logd, term_vals, digits, short


@functools.lru_cache(maxsize=16)
def _series_groups(system: BranchSystem, potential: Potential, t: float):
    """Terms of the tilted series at tilt q = 0: the log-weights of
    e^{q phi} x w_i, one per head digit, then the tail as one more term.

    The system chooses the weights w_i: diam(I_i)^t with the ``diam_series``
    tail on linear systems; on the continued-fraction family the
    derivative-range surrogates m^(-2t) for the point and upper values and
    (m+1)^(-2t) for the lower one, with Hurwitz tails, which bracket it.
    Returns (H, vals, logS, logS_lo, tail): the head length; the term
    values of ``_level1_head`` and their point log-weights, the tail's
    being the log of its point sum; the lower log-weights of the head
    alone, or None where they are the point ones (linear systems); and for
    a system with a tail (p_lo, p_hi, logT_lo, logT_hi), the potential's
    tail bounds and the logs of the lower and upper tail sums, else None.
    Every q-step of ``_f_alpha`` reads them as they are.

    The form is chosen here, once per t.  Series of at most 7 terms (6
    digits and the tail) are lists of Python floats, which ``_f_alpha``
    tilts and log-sums without numpy's per-call dispatch: numpy's sum adds
    in sequence below 8 terms, as the list loop of ``_logsumexp`` does, and
    from 8 on keeps 8 partial sums, so longer series stay arrays.
    """
    H, _, logd, term_vals, digits, short = _level1_head(system, potential)
    tail, tail_term = None, []
    if system.tail is not None:
        p_lo, p_hi = potential.tail_bounds(system, H)
        if digits is None:
            logT_lo, logT_hi = map(_log, diam_series(system, t, start=H + 1))
            logT = 0.5 * (logT_lo + logT_hi)
        else:
            first = H + 1 + system.offset
            logT_lo = _log(_zeta_tail(2.0 * t, first + 1))
            logT = logT_hi = _log(_zeta_tail(2.0 * t, first))
        tail, tail_term = (p_lo, p_hi, logT_lo, logT_hi), [logT]
    if digits is None:
        if short:  # t log diam, as numpy's product rounds it
            return H, short[0], [float(t) * x for x in short[1]] + tail_term, None, tail
        logS, logS_lo = np.append(t * logd, tail_term), None
    else:
        logS_lo = -2.0 * t * np.log(digits + 1.0)
        logS = np.append(-2.0 * t * np.log(digits), tail_term)
    if short is None:
        return H, term_vals, logS, logS_lo, tail
    return H, short[0], logS.tolist(), logS_lo.tolist(), tail


def _tilt(q, vals, logw):
    """q * vals + logw over the first len(logw) terms, in the form of logw."""
    if isinstance(logw, list):
        return [q * u + l for u, l in zip(vals, logw)]
    return q * vals[:len(logw)] + logw


def _f_alpha(system, potential, t, q, var=False):
    """(f_lo, f, f_hi, alpha) of the tilted series at (t, q).

    f_lo <= f_hi is the certified bracket, and f the point value: it folds
    the tail into one synthetic group, so the reported alpha is exactly the
    q-derivative of the reported f and stationarity residuals measure
    solver closure alone.  On linear systems with a tail the bracket also
    covers the rounding of the head sum.  A divergent tail gives
    (inf, inf, inf, nan).  With ``var`` a fifth entry follows, the
    variance of phi under the tilted weights: d alpha/dq, from the same
    weights as alpha (nan on a divergent tail).

    One body serves both forms of ``_series_groups``.  On the short lists
    (at most 7 terms, where numpy's sum still adds in sequence) the terms,
    their log-sum-exp and the log-add of the tail bounds are scalar float
    arithmetic that repeats numpy's bit for bit.  The mean alpha stays one
    numpy dot product in both forms, because BLAS's ``ddot`` fuses
    multiply and add, which a Python loop cannot repeat.
    """
    H, vals, logS, logS_lo, tail = _series_groups(system, potential, t)
    if tail is not None and math.isinf(tail[3]):
        return (math.inf, math.inf, math.inf, math.nan, math.nan)[:5 if var else 4]
    terms = _tilt(q, vals, logS)
    head = _logsumexp(terms if tail is None else terms[:-1])
    head_lo = head if logS_lo is None else _logsumexp(_tilt(q, vals, logS_lo))
    if tail is None:
        return _with_mean(head_lo, head, head, terms, vals, var)
    p_lo, p_hi, logT_lo, logT_hi = tail
    head_hi = head
    if logS_lo is None:
        # linear: the tail bracket is narrow to rounding, so the head sum's
        # own rounding joins it.  Each exponent x_i = q phi(i) + t log diam
        # is rounded relative to |x_i|, and with weights w_i = e^(x_i - head)
        # sum_i w_i |x_i| <= |head| + log H
        slack = _EPS * (2.0 * (abs(head) + math.log(H)) + math.log2(H) + 2.0)
        head_lo, head_hi = head - slack, head + slack
    lo_val, hi_val = (p_lo, p_hi) if q >= 0 else (p_hi, p_lo)
    f_lo = _logaddexp(head_lo, q * lo_val + logT_lo)
    f_hi = _logaddexp(head_hi, q * hi_val + logT_hi)
    return _with_mean(f_lo, _logsumexp(terms), f_hi, terms, vals, var)


def _with_mean(f_lo, f, f_hi, terms, vals, var):
    """(f_lo, f, f_hi, alpha), and with ``var`` the variance of the values
    too, under the weights w = e^(terms - f): alpha and var are the first
    two q-derivatives of f."""
    w = np.subtract(terms, f)
    np.exp(w, out=w)
    alpha = float(w @ vals)
    if not var:
        return f_lo, f, f_hi, alpha
    if not isinstance(vals, list):
        dev = np.subtract(vals, alpha)
        np.multiply(dev, dev, out=dev)
        return f_lo, f, f_hi, alpha, float(w @ dev)
    total = 0.0  # the short list form, without numpy's per-call dispatch
    for x, v in zip(w.tolist(), vals):
        total += x * (v - alpha) * (v - alpha)
    return f_lo, f, f_hi, alpha, total


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
    f_lo, _, f_hi, _ = _f_alpha(system, _ZERO if potential is None else potential, t, coeff)
    return f_lo, f_hi


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


@frozen
class SInfinityResult:
    """Critical exponent with evidence on both sides of it.

    ``value`` is exact (from the tail exponents).  ``s_hi`` is ``value``
    where the series converges there and ``s_lo`` where it diverges there;
    the other end is a probe ``tol`` away (one float away where that rounds
    onto ``value``; never below 0).  The certificate records the series'
    upper bound at s_hi and, at s_lo, log10 of a term count whose tail
    partial sum provably exceeds a probe bound: typically astronomically
    large, so it comes from an integral lower bound, not a literal sum.
    """

    value: float
    method: str
    s_lo: float
    s_hi: float
    certificate: dict


def s_infinity(system: BranchSystem, tol: float = 1e-3) -> SInfinityResult:
    """Critical exponent s_inf = inf{s >= 0 : sum diam(I_i)^s < inf}."""
    if not (math.isfinite(tol) and tol > 0):
        raise ModelError(f"tolerance must be finite and positive, got {tol}")
    if system.tail is None:
        cert = {"finite_system": True, "series_at_0": float(len(system.head))}
        return SInfinityResult(value=0.0, method="series-exponent", s_lo=0.0,
                               s_hi=0.0, certificate=cert)
    if not series_converges(system, 1.0):
        raise UndeterminedError("series diverges at s=1; packing violated")
    value = s_inf_exact(system)
    converges = series_converges(system, value)
    probe = value - tol if converges else value + tol
    if probe == value:
        probe = math.nextafter(value, -math.inf if converges else math.inf)
    s_lo, s_hi = (max(0.0, probe), value) if converges else (value, probe)
    cert = {
        "series_upper_bound_at_s_hi": diam_series(system, s_hi)[1],
        "probe_bound": 1e6,
        "log10_terms_to_exceed_probe_at_s_lo": system.tail.terms_to_exceed_log10(
            s_lo, 1e6, len(system.head) + 1 + system.offset),
        "converges_at_value": converges,
    }
    return SInfinityResult(value=value, method="series-exponent", s_lo=s_lo,
                           s_hi=s_hi, certificate=cert)


# ---------------------------------------------------------------------------
# pressure roots


@frozen
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


def _root(fn, lo, hi, limits=None, tol=1e-15, slope=False):
    """Zero of the increasing function fn, searched from the bracket [lo, hi].

    While fn(lo) > 0 (or fn(hi) < 0) that end moves outwards by the
    bracket's width, so the bracket grows geometrically, but never past
    ``limits`` (default: the bracket itself, no widening); an end that
    reaches its limit without a sign change comes back as (end, end, end).
    Chandrupatla's method (T. R. Chandrupatla, Adv. Eng. Software 28(3),
    1997) then closes the bracket and returns (x, a, b) with
    fn(a) <= 0 <= fn(b) and b - a <= tol + 4 eps |x|, where x is the end
    with the smaller |fn|; an exact zero x comes back as (x, x, x).

    With ``slope`` fn returns (value, derivative), and the Newton point
    from the end with the smaller |fn| replaces the interpolation step
    whenever it falls inside the bracket at least width/8 from both ends,
    width = tol + 4 eps |x|.  Chandrupatla's own steps keep width/2 from
    the ends; the shorter Newton clearance lets the returned end come
    nearer the root.
    """
    evaluate = fn if slope else lambda x: (fn(x), 0.0)
    lo_limit, hi_limit = (lo, hi) if limits is None else limits
    f_lo, d_lo = evaluate(lo)
    while f_lo > 0 and lo > lo_limit:
        lo = max(lo - (hi - lo), lo_limit)
        f_lo, d_lo = evaluate(lo)
    if not f_lo < 0:
        return lo, lo, lo
    f_hi, d_hi = evaluate(hi)
    while f_hi < 0 and hi < hi_limit:
        hi = min(hi + (hi - lo), hi_limit)
        f_hi, d_hi = evaluate(hi)
    if not f_hi > 0:
        return hi, hi, hi
    # x1 is the newest point, x2 the bracket's other end and x3 the point
    # the last step dropped; a NaN value counts as positive, as in bisection
    x1, f1, d1, x2, f2, d2 = lo, f_lo, d_lo, hi, f_hi, d_hi
    t = 0.5
    while True:
        xm, fm, dm = (x1, f1, d1) if abs(f1) < abs(f2) else (x2, f2, d2)
        if dm > 0:
            # a Newton point keeps width/8 from both ends, so the bracket
            # still shrinks by that much per step
            t_min = (tol + 4.0 * _EPS * abs(xm)) / (8.0 * abs(x2 - x1))
            t_newton = (xm - fm / dm - x1) / (x2 - x1)
            if t_min <= t_newton <= 1.0 - t_min:
                t = t_newton
        x = x1 + t * (x2 - x1)
        fx, dx = evaluate(x)
        if fx == 0:
            return x, x, x
        if (fx < 0) == (f1 < 0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2, d2 = x2, f2, x1, f1, d1
        x1, f1, d1 = x, fx, dx
        a, b = (x1, x2) if f1 < 0 else (x2, x1)
        xm = x1 if abs(f1) < abs(f2) else x2
        width = tol + 4.0 * _EPS * abs(xm)
        if b - a <= width:
            return xm, a, b
        # inverse quadratic interpolation where it is safe, else bisection;
        # the step keeps at least width/2 from both ends
        xi = (x1 - x2) / (x3 - x2)
        phi = (f1 - f2) / (f3 - f2)
        if 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi):
            t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                 + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        else:
            t = 0.5
        t_min = 0.5 * width / (b - a)
        t = min(max(t, t_min), 1.0 - t_min)


def _t_floor(system: BranchSystem) -> float:
    """Lowest default start of a t-bracket: 0 for finite systems, else s_inf.

    The series may blow up exactly at s_inf, in which case the search
    starts a hair above it.
    """
    if system.tail is None:
        return 0.0
    s_inf = s_inf_exact(system)
    return s_inf if series_converges(system, s_inf) else s_inf + 1e-6


def _log_series(system, t):
    """Logs of the lower end, midpoint and upper end of ``diam_series`` at t:
    the lower, point and upper level-1 pressure, exact for linear systems."""
    s_lo, s_hi = diam_series(system, t)
    return tuple(_log(s) for s in (s_lo, 0.5 * (s_lo + s_hi), s_hi))


def _certified_root(lower, point, upper, lo, hi, tol, end_tol, limits=None):
    """Root of the decreasing pressure ``point`` with a certified interval.

    ``lower`` <= P <= ``upper`` bound the true pressure, so its root lies
    between their roots: each certified end is the outer end of the final
    ``_root`` bracket of its bound (at ``end_tol``), and the point root
    (at ``tol``) is clamped into them.  Returns (value, interval).

    The bounds are solved first, from [lo, hi]: on the sandwich paths they
    are closed-form Hurwitz sums, cheap beside the point, and their
    interval is often far narrower.  The costly point solve then starts
    from that interval within [lo, hi] (from [lo, hi] where it is empty or
    of zero width) and widens out to ``limits``, default [lo, hi], only
    if it must.  A bound that is the point function at the point
    tolerance repeats the point solve, so the interval is its bracket.
    """
    root_lo = _root(lambda t: -lower(t), lo, hi, limits, end_tol)[1]
    root_hi = _root(lambda t: -upper(t), lo, hi, limits, end_tol)[2]
    a, b = max(root_lo, lo), min(root_hi, hi)
    start = (a, b) if a < b else (lo, hi)
    value, a, b = _root(lambda t: -point(t), *start, limits or (lo, hi), tol)
    if a == b and point(a) != 0:
        raise BracketError(
            f"pressure does not straddle 0 on [{lo}, {hi}]: "
            f"P({lo})={point(lo):.3g}, P({hi})={point(hi):.3g}")
    return min(max(value, root_lo), root_hi), (root_lo, root_hi)


def pressure_root(system: BranchSystem, bracket=None, tol: float = 1e-10, *,
                  q: int | None = None, n_max: int = 3,
                  budget: int | None = None, workers: int = 1) -> RootResult:
    """Solve P(-t log|T'|) = 0 for t.

    Every path hands a (lower, point, upper) triple of pressure functions
    to ``_certified_root``, which solves each with ``_root``: the value is
    the point root, and each end of the certified interval is the outer
    end of its bound's final bracket.  The bounds go first and the point
    solve starts inside their interval, so a digits >= N root costs its
    Hurwitz bounds plus 3-6 point brackets of ``diam_series``, not about
    11 over the whole search bracket.  Finite all-linear systems solve the
    Moran equation, which is its own bound.  Infinite all-linear systems
    take the logs of the ``diam_series`` bracket.  Analytic tail systems
    combine a level-1 derivative-range sandwich (upper weights m^-2t, lower
    weights (m+1)^-2t per branch m) with periodic-word enumeration when a
    truncation q captures >= 99% of the level-1 mass; without it the point
    is the level-1 proxy.  A bracket's default lower end is s_inf (a hair
    above it when the series diverges there), or 0 for finite systems.
    ModelError for a given q < 1 and for n_max < 1, as in ``pressure``.  A
    ``budget`` of None reads ``default_budget()`` only where enumeration
    runs, so the other paths never depend on THERMOSPEC_BUDGET.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ModelError(f"tolerance must be finite and >= 0, got {tol}")
    if (q is not None and q < 1) or n_max < 1:
        raise ModelError("q and n_max must be >= 1")
    if workers < 1:
        raise ModelError(f"workers must be >= 1, got {workers}")

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

    lo, hi = _normalize_bracket(bracket, _t_floor(system), 1.0)
    tol = min(tol, 1e-12)
    value, interval = _certified_root(P, P, P, lo, hi, tol, tol,
                                      (0.0, 64.0) if bracket is None else None)
    return RootResult(value=value, interval=interval, method="moran",
                      residual=P(value), q=None, n_used=None, bracket=(lo, hi))


def _root_series(system, bracket, tol):
    lo, hi = _normalize_bracket(bracket, _t_floor(system), 1.0)
    value, interval = _certified_root(
        lambda t: _log_series(system, t)[0], lambda t: _log_series(system, t)[1],
        lambda t: _log_series(system, t)[2], lo, hi, min(tol, 1e-12), 1e-13)
    return RootResult(value=value, interval=interval, method="series",
                      residual=_log_series(system, value)[1], q=None,
                      n_used=None, bracket=(lo, hi))


def _root_analytic(system, bracket, tol, q, n_max, budget, workers):
    """Root on the continued-fraction family: Hurwitz sandwich plus levels.

    log Z_n(t) is computed at most once per (t, level) and only where it
    can be used, by ``_level_log_partition``: a level is built at its first
    use, and level 3 at q >= 64 is the array below digit 64 and the
    Euler-Maclaurin rows past it, with their remainder bound checked
    against the level's sum at each t.  The point value needs every level
    (Aitken).  A certified bound evaluates level n only when the level's
    a-priori range could move it: for t > 0, S_lo_q^n <= Z_n <= S_q^n,
    with S_q the sum of m^-2t over the words' digits m = N..N+q-1 and
    S_lo_q over N+1..N+q.  The level's lower term is then at most log S_q
    - V_n/n and its upper term at least its completion from n log S_lo_q
    + V_n.  The level is skipped only when that range misses the bound so
    far by more than 1e-12 max(1, |bound|), so the bound keeps every bit;
    at t <= 0 or when a sum is not finite every level is evaluated.
    """
    if not has_gauss_tail(system):
        raise ModelError("analytic root finding is implemented for the continued-fraction family")
    N = 1 + system.offset  # first physical digit
    lo, hi = _normalize_bracket(bracket, _t_floor(system), 2.0)

    # enumerate the deepest level whose cumulative word count fits the
    # budget, when the truncation captures >= 99% of the level-1 mass
    n_eff = 0
    if q is not None:
        t_mid = 0.5 * (lo + hi)
        full = _zeta_tail(2.0 * t_mid, N)
        captured = full - _zeta_tail(2.0 * t_mid, N + q)
        if math.isfinite(full) and captured / full >= 0.99:
            n_eff = _levels_within(q, n_max, default_budget() if budget is None else budget)

    @functools.cache
    def log_partition(t, n):  # log Z_n(t), once per (t, level)
        return _level_log_partition(system, None, q, n, t, workers)

    def certified(t, upper):
        # sandwich: sup derivative weights m^-2t above, inf weights below
        if not n_eff:
            return _log(_zeta_tail(2.0 * t, N if upper else N + 1))
        S_full, S_lo = _zeta_tail(2.0 * t, N), _zeta_tail(2.0 * t, N + 1)
        terms = [_log(S_full if upper else S_lo)]
        # the words' digits are N..N+q-1 and m^2 <= |T'| <= (m+1)^2 on
        # digit m, so S_lo_q^n <= Z_n <= S_q^n for t > 0
        S_q = S_full - _zeta_tail(2.0 * t, N + q)
        S_lo_q = S_lo - _zeta_tail(2.0 * t, N + q + 1)
        lazy = t > 0 and all(map(math.isfinite, (S_full, S_q, S_lo_q)))
        for n in range(1, n_eff + 1):
            V = _variation_total(system, None, t, n)
            bound = min(terms) if upper else max(terms)
            slack = 1e-12 * max(1.0, abs(bound))
            if upper:
                missing = _log(max(S_full ** n - S_q ** n, 0.0))
                least = _logaddexp(n * _log(S_lo_q) + V, missing) / n
                if not (lazy and least > bound + slack):
                    terms.append(_logaddexp(log_partition(t, n) + V, missing) / n)
            elif not (lazy and _log(S_q) - V / n < bound - slack):
                terms.append((log_partition(t, n) - V) / n)
        return min(terms) if upper else max(terms)

    def point(t):
        if not n_eff:
            return _log_series(system, t)[1]
        est = _aitken([log_partition(t, n) / n for n in range(1, n_eff + 1)])
        return min(max(est, certified(t, False)), certified(t, True))

    value, interval = _certified_root(
        lambda t: certified(t, False), point, lambda t: certified(t, True),
        lo, hi, min(tol, 1e-10), 1e-12)
    return RootResult(value=value, interval=interval,
                      method="enumeration" if n_eff else "level1-sandwich",
                      residual=point(value), q=q if n_eff else None,
                      n_used=n_eff or None, bracket=(lo, hi))
