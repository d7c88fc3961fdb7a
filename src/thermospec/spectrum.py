"""Birkhoff-average level sets: Legendre solutions, flat-region bounds and
upper-bound certificates.

For an all-linear system with a bounded level-1 potential phi the auxiliary
function

    f(t, q) = log sum_i e^{q phi(i)} diam(I_i)^t

is convex in q with q-derivative equal to the tilted mean of phi.  An
interior level alpha is solved by the stationarity system f_q(t, q) = alpha,
f(t, q) - q alpha = 0, and the solution t is the level-set dimension above
the floor s_inf.  Below the floor the regime is flat: dim = s_inf, certified
by a single q with f(s_inf, q) - q alpha <= 0.  The series and its
certified bracket come from ``thermo._f_alpha``, which on the
continued-fraction family sandwiches f between derivative-range weights.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._frozen import frozen, replace
from .errors import (
    BracketError,
    InfeasibleModelError,
    ModelError,
    UnsupportedPotentialError,
)
from .systems import (
    BranchSystem,
    Potential,
    _logaddexp,
    _logsumexp,
    branch_diameter,
    diam_series,
    indicator_potential,
    is_linear,
    restricted_system,
    s_inf_exact,
)
from .thermo import (
    _EPS,
    _f_alpha,
    _level1_head,
    _root,
    _series_groups,
    _t_floor,
    pressure_root,
)

__all__ = [
    "SpectrumPoint",
    "FlatBounds",
    "FlatCertificate",
    "SpectrumCurve",
    "legendre_solve",
    "flat_bounds",
    "flat_certificate",
    "spectrum_curve",
]

# Witness acceptance band for certificate values.  The tail series carries a
# certified bracket narrow to rounding around the ideal value, so an exact
# zero (the alpha = 1 identity) lands within this band, while the strictly
# positive minima of the non-certifiable region exceed it by orders of
# magnitude outside a 1e-6 neighborhood of the window edges.
_BAND = 1e-6


@frozen
class SpectrumPoint:
    """One row of the dimension spectrum.

    ``regime`` is "legendre", "flat-floor", "endpoint", "empty" or "error";
    ``residuals`` reports closure of the stationarity system on legendre
    rows and is None elsewhere.  On nonempty rows dim = max(s_inf, t).
    """

    alpha: float
    dim: float | None
    t: float | None
    q: float | None
    residuals: tuple | None
    regime: str
    s_inf: float
    note: str = ""


@frozen
class FlatBounds:
    """Edges of the two flat windows [0, alpha_lower] and [alpha_upper, 1].

    q_minus and q_plus are the roots of alpha(q) = 0 and alpha(q) = 1 for
    alpha(q) = log(K e^q + C)/q at the critical exponent delta; the window
    edges are the extremal values of alpha(q) over q < q_minus and
    q > q_plus.
    """

    alpha_lower: float
    alpha_upper: float
    q_minus: float
    q_plus: float
    delta: float


@frozen
class FlatCertificate:
    """Outcome of the flat upper-bound search at one level alpha.

    ``qhat`` is a witness tilt whose certified value is <= 0 up to the
    acceptance band, or None; value_lo/value_hi bracket the attained
    minimum of q -> f(delta, q) - q alpha.
    """

    alpha: float
    delta: float
    qhat: float | None
    value_lo: float
    value_hi: float
    witness: bool
    note: str = ""


@frozen
class SpectrumCurve:
    points: tuple
    transitions: dict


# ---------------------------------------------------------------------------
# level-1 potentials


def _require_level1(potential: Potential) -> None:
    if potential.level != 1 or not potential.bounded:
        raise UnsupportedPotentialError(
            "spectrum routines require a bounded level-1 potential; "
            "higher-level averages go through measures.maximize_ratio")


def _require_level(alpha) -> None:
    if math.isnan(alpha):
        raise ModelError("the level alpha is NaN")


def _value_range(system, potential):
    """(inf, sup, inf attained, sup attained) of a level-1 potential.

    Attainment over the tail follows ``tail_inf_attained``: indicator and
    constant tails take their bound values on actual digits, while the
    harmonic infimum 0 is a limit only.
    """
    H, vals = _level1_head(system, potential)[:2]
    lo = float(vals.min())
    hi = float(vals.max())
    lo_att = hi_att = True
    if system.tail is not None:
        p_lo, p_hi = potential.tail_bounds(system, H)
        if p_lo < lo - 1e-15:
            lo, lo_att = p_lo, potential.tail_inf_attained
        if p_hi > hi + 1e-15:
            hi, hi_att = p_hi, True
    return lo, hi, lo_att, hi_att


# ---------------------------------------------------------------------------
# Legendre solution


def _log_odds(a, lo, hi):
    """log((a - lo)/(hi - a)), -inf for a <= lo and inf for a >= hi."""
    u, v = a - lo, hi - a
    if u > 0 and v > 0:
        return math.log(u / v)
    return -math.inf if u <= 0 else math.inf


def _solve_qhat(system, potential, t, alpha, bounds, start=0.0, h=1.0):
    """Tilt q with alpha(t, q) = alpha, by ``thermo._root`` from
    [start - h, start + h].

    alpha(t, .) increases between the potential's infimum and supremum,
    ``bounds`` = (lo, hi), and its q-derivative is the tilted variance
    var, which ``_f_alpha`` gives from the same weights.  The solver takes
    Newton steps on the log-odds L(q) = log((alpha - lo)/(hi - alpha)),
    which has the sign of alpha(t, q) - alpha and the derivative
    var (hi - lo)/((alpha - lo)(hi - alpha)).  For a potential with two
    values, such as an indicator, alpha is a logistic curve in q and L is
    q plus a constant, so one step lands on the root.  The bracket widens
    up to |q| = 700 and stays at that end when the level is out of reach.
    Returns q and the (f_lo, f, f_hi, alpha) tuple of ``_f_alpha`` there,
    which is the solver's own evaluation.
    """
    lo, hi = bounds
    target = _log_odds(alpha, lo, hi)
    seen = {}

    def level(q):
        seen[q] = out = _f_alpha(system, potential, t, q, var=True)
        a, var = out[3], out[4]
        spread = (a - lo) * (hi - a)
        return (_log_odds(a, lo, hi) - target,
                var * (hi - lo) / spread if spread > 0 else 0.0)

    q = _root(level, start - h, start + h, (-700.0, 700.0), slope=True)[0]
    return q, seen[q][:4]


def _decreasing_log_mass_root(logsum, floor: float, s_inf: float) -> float:
    """Root of a decreasing log-mass function over [floor, 1]."""
    lo = max(floor, 1e-12)
    if logsum(lo) <= 0.0:
        return s_inf if floor > 0 else 0.0
    return _root(lambda t: -logsum(t), lo, 1.0)[0]


def _subsystem_dimension(system, potential, alpha):
    """Dimension of the subsystem on digits where phi equals alpha exactly.

    Singletons carry dimension 0.  On linear systems the matching digit set
    (with the whole tail when its bounds pin phi to alpha) has a Moran-type
    root computed from the exact diameter series.  On analytic systems the
    matching set is a tail block in every supported case and is handed to
    the restricted-system pressure root; other analytic sets fall back to
    the level-1 diameter proxy.
    """
    H, vals, logd = _level1_head(system, potential)[:3]
    mask = np.abs(vals - alpha) <= 1e-12
    tail_in = False
    if system.tail is not None:
        p_lo, p_hi = potential.tail_bounds(system, H)
        tail_in = abs(p_lo - alpha) <= 1e-12 and abs(p_hi - alpha) <= 1e-12
    digits = np.flatnonzero(mask) + 1
    if not tail_in and len(digits) <= 1:
        return 0.0
    if not is_linear(system) and tail_in:
        N = H + 1
        while N - 1 >= 1 and mask[N - 2]:
            N -= 1
        if np.array_equal(digits, np.arange(N, H + 1)):
            return pressure_root(restricted_system(system, N)).value
    s_inf = s_inf_exact(system)

    def logsum(t):
        parts = [_logsumexp(t * logd[digits - 1])] if len(digits) else []
        if tail_in:
            t_lo, t_hi = diam_series(system, t, start=H + 1)
            if math.isinf(t_hi):
                return math.inf
            parts.append(math.log(0.5 * (t_lo + t_hi)))
        out = parts[0]
        for p in parts[1:]:
            out = _logaddexp(out, p)
        return out

    floor = _t_floor(system) if tail_in else 0.0
    return _decreasing_log_mass_root(logsum, floor, s_inf)


@functools.lru_cache(maxsize=16)
def _repeller_root(system: BranchSystem):
    """``pressure_root`` of the system at its defaults, once per system, or
    None where it raises ``BracketError``.

    Its value t* is the dimension of the repeller, the curve's maximum; the
    upper end t+ of its certified interval bounds every Legendre row, since
    g(t) = min_q [f(t, q) - q alpha] <= f(t, 0) = P(t) < 0 above t*.  The
    series root searches [floor, 1] and does not widen, so it raises on an
    infinite system whose diameters sum to just above 1 (the packing check
    allows 1e-9 of slack); such a system has no t+ below 1.
    """
    try:
        return pressure_root(system)
    except BracketError:
        return None


@functools.lru_cache(maxsize=16)
def _two_values(system: BranchSystem, potential: Potential):
    """(u, v, iu, iv) for a level-1 potential that takes exactly two values
    u < v on the terms of the tilted series, else None.

    The values are the head values of ``_level1_head`` and, on a system
    with a tail, its ``tail_bounds``, which must be one value; iu and iv
    index the terms of each value in ``_series_groups``, the tail term
    last: lists on the short list form of the series, arrays on the long
    one.  Every indicator qualifies, and so does harmonic on a two-branch
    system.
    """
    H, _, _, term_vals = _level1_head(system, potential)[:4]
    if system.tail is not None:
        p_lo, p_hi = potential.tail_bounds(system, H)
        if p_lo != p_hi:
            return None
    u, v = float(term_vals.min()), float(term_vals.max())
    is_u, is_v = term_vals == u, term_vals == v
    if u == v or np.count_nonzero(is_u) + np.count_nonzero(is_v) < len(term_vals):
        return None
    iu, iv = np.flatnonzero(is_u), np.flatnonzero(is_v)
    if len(term_vals) <= 7:
        iu, iv = iu.tolist(), iv.tolist()
    return u, v, iu, iv


def _nested_row(system, potential, alpha, bounds):
    """t -> (q, g, (f_lo, f, f_hi, alpha)) by a tilt solve at each t.

    ``_solve_qhat`` finds the tilt q with f_q(t, q) = alpha, and g is
    f(t, q) - q alpha from the solver's own evaluation.  Each solve starts
    from the tilt of the one before, in a bracket of half width twice the
    last change of tilt, clipped to [1e-9, 1].
    """
    q_last, h = 0.0, 1.0

    def row(t):
        nonlocal q_last, h
        q, vals = _solve_qhat(system, potential, t, alpha, bounds, q_last, h)
        h, q_last = min(1.0, max(2.0 * abs(q - q_last), 1e-9)), q
        return q, vals[1] - q * alpha, vals

    return row


def _closed_row(system, potential, alpha, pair):
    """t -> (q, g, None) in closed form for a potential with two values.

    With S_u and S_v the sums of the series' weights over the terms of
    each value u < v at t, f(t, q) = log(e^{qu} S_u + e^{qv} S_v), and the
    level alpha is the tilted mean where the v terms carry the share
    p = (alpha - u)/(v - u) of the weight.  So the tilt is
    q = (log(p/(1 - p)) + log S_u - log S_v)/(v - u), and
    g(t) = f - q alpha = p log S_v + (1 - p) log S_u + H(p), H the binary
    entropy: two log-sums per t and no series evaluation.  g is formed
    from the smaller share s of p and 1 - p, as
    log S_major + s (log S_minor - log S_major) - s log s - (1 - s) log1p(-s):
    s = alpha - u or v - alpha is exact for an indicator, and the share
    that rounds, 1 - s, only scales a logarithm of magnitude below log 2.
    """
    u, v, iu, iv = pair
    p = (alpha - u) / (v - u)
    minor_v = p <= 0.5
    s = p if minor_v else (v - alpha) / (v - u)
    s_log_s, rest_log_rest = s * math.log(s), (1.0 - s) * math.log1p(-s)
    odds = _log_odds(alpha, u, v)

    def log_sum(logS, idx):
        if len(idx) == 1:  # one term x, for which _logsumexp gives x + 0.0
            return float(logS[idx[0]]) + 0.0
        return _logsumexp([logS[i] for i in idx] if isinstance(logS, list) else logS[idx])

    def row(t):
        logS = _series_groups(system, potential, t)[2]
        log_u, log_v = log_sum(logS, iu), log_sum(logS, iv)
        q = (odds + (log_u - log_v)) / (v - u)
        major, minor = (log_u, log_v) if minor_v else (log_v, log_u)
        return q, major + s * (minor - major) - s_log_s - rest_log_rest, None

    return row


def legendre_solve(system: BranchSystem, potential: Potential, alpha: float, *,
                   t_max: float = 1.0) -> SpectrumPoint:
    """Dimension of the level set where the average of phi equals alpha.

    An interior alpha is the root of the decreasing
    g(t) = min_q [f(t, q) - q alpha] = f(t, q(t)) - q(t) alpha, q(t) the
    tilt with f_q(t, q) = alpha, and the dimension is max(s_inf, t).  For a
    potential that takes two values u < v on the series' terms (every
    indicator; harmonic on a two-branch system) q(t) and g(t) are closed
    forms in the log-sums of the two value groups, and g is the
    conditional variational principle's tilt-free function; any other
    potential gets q(t) from a nested root solve at each t.  When the
    certified lower end of f - q alpha at the floor is <= 0, g has no root
    above the floor: the regime is flat and the dimension is s_inf.
    Otherwise the outer solve starts from [floor, min(t_max, t+)], t+ the
    upper end of the certified pressure root, as no level set is larger
    than the repeller (from [floor, t_max] where ``pressure_root`` finds no
    root); ``t_max`` is the limit it may widen to, and a row whose g is
    still positive there, beyond rounding, raises ``BracketError``.  The
    residuals come from one series evaluation at the solution.  Range
    endpoints reduce to the matching digit subsystem when attained and to
    the floor otherwise; alphas outside the closed range, infinite ones
    included, are empty.  A NaN alpha, and a ``t_max`` that is not finite
    and above the floor, raise ``ModelError``.
    """
    _require_level1(potential)
    _require_level(alpha)
    floor = _t_floor(system)
    if not (math.isfinite(t_max) and t_max > floor):
        raise ModelError(f"t_max must be finite and above the floor {floor}, got {t_max}")
    s_inf = s_inf_exact(system)
    lo, hi, lo_att, hi_att = _value_range(system, potential)
    if alpha < lo - 1e-12 or alpha > hi + 1e-12:
        return SpectrumPoint(alpha=alpha, dim=None, t=None, q=None,
                             residuals=None, regime="empty", s_inf=s_inf,
                             note="alpha outside the moment range")
    if abs(alpha - lo) <= 1e-12 or abs(alpha - hi) <= 1e-12:
        attained = lo_att if abs(alpha - lo) <= 1e-12 else hi_att
        if attained:
            t_sub = _subsystem_dimension(system, potential, alpha)
            note = "attained endpoint; matching digit subsystem"
        else:
            t_sub = s_inf
            note = "closure endpoint carried by escaping digits"
        return SpectrumPoint(alpha=alpha, dim=max(s_inf, t_sub), t=t_sub,
                             q=None, residuals=None, regime="endpoint",
                             s_inf=s_inf, note=note)

    if not is_linear(system):
        raise UnsupportedPotentialError(
            "interior spectrum rows require an all-linear system")

    # one row per distinct t: the root solver evaluates g again at the
    # floor, and the solution below is a point it has evaluated
    pair = _two_values(system, potential)
    row = functools.cache(_nested_row(system, potential, alpha, (lo, hi)) if pair is None
                          else _closed_row(system, potential, alpha, pair))

    def series_at(t):
        q, _, vals = row(t)
        return q, vals or _f_alpha(system, potential, t, q)

    q, (f_lo, _, _, _) = series_at(floor)
    if f_lo - q * alpha <= 0.0:
        return SpectrumPoint(alpha=alpha, dim=s_inf, t=s_inf, q=None,
                             residuals=None, regime="flat-floor", s_inf=s_inf)

    # without a t+ above the floor (no root, or one that rounds onto it)
    # the search starts from t_max, as the bracket would never open
    root = _repeller_root(system)
    t_plus = math.inf if root is None else root.interval[1]
    top = min(t_max, t_plus) if t_plus > floor else t_max
    t_sol, t_lo, t_hi = _root(lambda t: -row(t)[1], floor, top, (floor, t_max))
    q_sol, (_, f, _, a) = series_at(t_sol)
    g = f - q_sol * alpha
    # the widening stopped at t_max: a root there holds g to rounding
    if t_lo == t_hi == t_max and g > 4.0 * _EPS * max(1.0, abs(f), abs(q_sol * alpha)):
        raise BracketError(f"g = {g:.3g} > 0 at t_max = {t_max}: the level set's "
                           "dimension lies above t_max")
    residuals = (abs(g), abs(a - alpha))
    return SpectrumPoint(alpha=alpha, dim=max(s_inf, t_sol), t=t_sol,
                         q=q_sol, residuals=residuals, regime="legendre",
                         s_inf=s_inf)


# ---------------------------------------------------------------------------
# flat-region boundary data


def _flat_K_C(system, delta):
    """Declared window constants, cross-checked against the realized tail.

    The two-block family is parameterized by (K, C) and its tail is
    calibrated to them within the certified series bracket, so the window
    algebra uses the declared values exactly and only verifies that the
    realized geometry agrees.
    """
    if system.flat is None:
        raise ModelError("flat-region bounds require the two-block model family")
    K, C = system.flat.K, system.flat.C
    k_real = branch_diameter(system, 1) ** delta
    c_lo, c_hi = diam_series(system, delta, start=2)
    if math.isinf(c_hi):
        raise InfeasibleModelError("tail series diverges at the requested exponent")
    if abs(k_real - K) > 1e-9 or not (c_lo - 1e-6 <= C <= c_hi + 1e-6):
        raise ModelError("declared flat parameters disagree with the realized diameters")
    return K, C


def flat_bounds(system: BranchSystem, potential: Potential | None = None) -> FlatBounds:
    """Window edges of the flat spectrum region for the two-block family.

    With K = diam(I_1)^delta and C = sum_{i>=2} diam(I_i)^delta at the
    critical exponent delta, the tilt-to-level map is alpha(q) = P(q)/q
    with P(q) = log(K e^q + C).  q_minus and q_plus come from the closed
    forms log((1-C)/K) and log(C/(1-K)), cross-checked as the unique roots
    of alpha(q) = 0 and alpha(q) = 1.  The flat windows end at the extremal
    values of alpha on the outer tilt ranges: alpha_lower is the maximum
    over q < q_minus (alpha tends to 0 at both ends of that range) and
    alpha_upper the minimum over q > q_plus.  Each extremum sits where the
    line through the origin touches P, the unique zero of the tangency
    P(q) - q P'(q) on its range (increasing below q_minus < 0, decreasing
    above q_plus > 0, as its derivative is -q P''(q)).  alpha is stationary
    there, so the float zero loses nothing to first order, and
    log(K e^q + C)/q is evaluated at it once in the standard library's
    30-digit ``decimal`` arithmetic (exact conversion from float, correctly
    rounded exp and ln) and rounded once to float: the edge is the
    correctly rounded extremum unless that lies within about 1e-30 of a
    rounding boundary.
    """
    if potential not in (None, indicator_potential(1)):
        raise UnsupportedPotentialError(
            "flat bounds are defined for the first-branch indicator")
    delta = s_inf_exact(system)
    K, C = _flat_K_C(system, delta)
    if not (C < 1.0 and K + C > 1.0):
        raise InfeasibleModelError(
            f"flat geometry requires C < 1 < K + C, got K={K:.6g}, C={C:.6g}")
    q_minus = math.log((1.0 - C) / K)
    q_plus = math.log(C / (1.0 - K))

    root0 = _root(lambda q: K * math.exp(q) + C - 1.0,
                  q_minus - 5.0, q_minus + 5.0, (-700.0, 700.0))[0]
    root1 = _root(lambda q: q - math.log(K * math.exp(q) + C),
                  q_plus - 5.0, q_plus + 5.0, (-700.0, 700.0))[0]
    if abs(root0 - q_minus) > 1e-9 or abs(root1 - q_plus) > 1e-9:
        raise ModelError("flat window roots disagree with the closed forms")

    def tangency(q):
        Ke = K * math.exp(q)
        return math.log(Ke + C) - q * Ke / (Ke + C)

    from decimal import Decimal, localcontext  # only the 30-digit edges use it

    def alpha_at(q):
        with localcontext() as ctx:
            ctx.prec = 30
            return float((Decimal(K) * Decimal(q).exp() + Decimal(C)).ln() / Decimal(q))

    q_lower = _root(tangency, q_minus - 1.0, q_minus, (-700.0, q_minus))[0]
    q_upper = _root(lambda q: -tangency(q), q_plus, q_plus + 1.0, (q_plus, 700.0))[0]
    alpha_lower, alpha_upper = alpha_at(q_lower), alpha_at(q_upper)

    if not (0.0 < alpha_lower < alpha_upper < 1.0):
        raise ModelError("flat window edges out of order; model outside the flat family")
    return FlatBounds(alpha_lower=alpha_lower, alpha_upper=alpha_upper,
                      q_minus=q_minus, q_plus=q_plus, delta=delta)


# ---------------------------------------------------------------------------
# flat upper-bound certificates


def flat_certificate(system: BranchSystem, potential: Potential, alpha: float,
                     delta: float | None = None) -> FlatCertificate:
    """Search for a tilt q with f(delta, q) - q alpha <= 0.

    Such a q certifies that the level set of alpha has dimension at most
    delta.  The map q -> f(delta, q) - q alpha is convex with derivative
    f_q - alpha, so the attained minimum sits at the tilt solving
    f_q = alpha; at an exactly attained extreme value of the potential the
    minimum is an unattained limit and the zero of the monotone branch is
    returned instead (for the two-block family at alpha = 1 this zero is
    exactly q_plus).  A branch without a zero gives no witness and the
    values at its limit end: chi1 at alpha = 0 on the continued-fraction
    family, where the increasing branch tends to log sum_{m>=2} w_m > 0.
    On the continued-fraction family at delta <= 1/2 the series diverges
    for every tilt, so no witness can exist and the reported minimum is
    +inf.  An alpha that is not finite, or a given delta that is not
    finite, raises ``ModelError``: no tilt can certify an infinite level,
    and the series at a NaN or infinite exponent says nothing.
    """
    _require_level1(potential)
    if not math.isfinite(alpha):
        raise ModelError(f"the level alpha must be finite, got {alpha}")
    if delta is None:
        delta = s_inf_exact(system)
    elif not math.isfinite(delta):
        raise ModelError(f"the exponent delta must be finite, got {delta}")

    def F(q):
        f_lo, f, f_hi, _ = _f_alpha(system, potential, delta, q)
        return f_lo - q * alpha, f - q * alpha, f_hi - q * alpha

    if math.isinf(F(0.0)[2]):
        note = "tilted series diverges at delta for every tilt"
        return FlatCertificate(alpha=alpha, delta=delta, qhat=None,
                               value_lo=math.inf, value_hi=math.inf,
                               witness=False, note=note)

    def branch_zero(sign):
        # a branch that keeps one sign leaves q at the end of the search
        q = _root(lambda q: sign * F(q)[1], -1.0, 1.0, (-1e6, 1e6))[0]
        return q, "zero" if abs(q) < 1e6 else "no zero"

    v_lo, v_hi, lo_att, hi_att = _value_range(system, potential)
    if alpha >= v_hi - 1e-12 and hi_att:
        qhat, found = branch_zero(-1.0)
        note = f"upper endpoint: {found} of the decreasing branch"
    elif alpha <= v_lo + 1e-12 and lo_att:
        qhat, found = branch_zero(1.0)
        note = f"lower endpoint: {found} of the increasing branch"
    else:
        qhat, _ = _solve_qhat(system, potential, delta, alpha, (v_lo, v_hi))
        note = ""

    val_lo, _, val_hi = F(qhat)
    witness = val_hi <= _BAND
    return FlatCertificate(alpha=alpha, delta=delta,
                           qhat=qhat if witness else None,
                           value_lo=val_lo, value_hi=val_hi,
                           witness=witness, note=note)


# ---------------------------------------------------------------------------
# full curves


def _error_point(system, alpha, exc):
    return SpectrumPoint(alpha=alpha, dim=None, t=None, q=None, residuals=None,
                         regime="error", s_inf=s_inf_exact(system), note=str(exc))


def spectrum_curve(system: BranchSystem, potential: Potential,
                   alphas) -> SpectrumCurve:
    """Spectrum rows over a grid of levels, ordered by alpha.

    Per-point failures become rows with regime "error" rather than
    aborting the curve.  For all-linear systems three annotated transition
    rows are inserted: the tilted mean alpha_tilde at the pressure root
    (the curve maximum), and for the two-block family with the
    first-branch indicator the flat window edges, pinned to the flat-floor
    regime per the closed-interval flat statement; any other potential on
    that family gets the reason in ``transitions["flat_note"]`` and no edge
    rows.  The same values are repeated in the ``transitions`` mapping.
    """
    rows: list[SpectrumPoint] = []
    for alpha in (float(a) for a in alphas):
        try:
            pt = legendre_solve(system, potential, alpha)
        except Exception as exc:  # noqa: BLE001 - row-level status propagation
            pt = _error_point(system, alpha, exc)
        rows.append(pt)

    def annotate(point: SpectrumPoint) -> None:
        # a transition landing on a grid alpha annotates that row in place
        for idx, p0 in enumerate(rows):
            if abs(p0.alpha - point.alpha) <= 1e-12:
                joined = f"{p0.note}; {point.note}" if p0.note else point.note
                rows[idx] = replace(p0, note=joined)
                return
        rows.append(point)

    transitions: dict = {}
    if is_linear(system):
        try:
            # where the cached solve failed, solving again raises its error
            root = _repeller_root(system) or pressure_root(system)
            a_tilde = _f_alpha(system, potential, root.value, 0.0)[3]
            transitions["t_star"] = root.value
            transitions["alpha_tilde"] = a_tilde
            try:
                pt = legendre_solve(system, potential, a_tilde)
            except Exception as exc:  # noqa: BLE001
                pt = _error_point(system, a_tilde, exc)
            annotate(replace(
                pt, note="transition: alpha-tilde (tilted mean at the pressure root)"))
        except Exception as exc:  # noqa: BLE001
            transitions["note"] = f"transition data unavailable: {exc}"
        if system.flat is not None:
            try:
                fb = flat_bounds(system, potential)
                transitions.update(alpha_lower=fb.alpha_lower,
                                   alpha_upper=fb.alpha_upper,
                                   q_minus=fb.q_minus, q_plus=fb.q_plus)
                s_inf = s_inf_exact(system)
                for edge, label in ((fb.alpha_lower, "lower"), (fb.alpha_upper, "upper")):
                    annotate(SpectrumPoint(
                        alpha=edge, dim=s_inf, t=s_inf, q=None, residuals=None,
                        regime="flat-floor", s_inf=s_inf,
                        note=f"transition: {label} flat window edge"))
            except Exception as exc:  # noqa: BLE001
                transitions["flat_note"] = str(exc)
    rows.sort(key=lambda pt: pt.alpha)
    return SpectrumCurve(points=tuple(rows), transitions=transitions)
