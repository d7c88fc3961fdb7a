"""Birkhoff-average level sets: Legendre solutions, flat-region bounds and
upper-bound certificates.

For an all-linear system with a bounded level-1 potential phi the auxiliary
function

    f(t, q) = log sum_i e^{q phi(i)} diam(I_i)^t

is convex in q with q-derivative equal to the tilted mean of phi.  An
interior level alpha is solved by the stationarity system f_q(t, q) = alpha,
f(t, q) - q alpha = 0, and the solution t is the level-set dimension above
the floor s_inf.  Below the floor the regime is flat: dim = s_inf, certified
by a single q with f(s_inf, q) - q alpha <= 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.special import zeta as _hurwitz_zeta

from .errors import (
    InfeasibleModelError,
    ModelError,
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
    potential_tail_bounds,
    restricted_system,
    s_inf_exact,
    series_converges,
)
from .thermo import (
    _plc_head_arrays,
    pressure_locally_constant_bracket,
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

# Witness acceptance band for certificate values.  The truncated tail series
# carries a certified bracket of width ~1e-8 around the ideal value, so an
# exact zero (the alpha = 1 identity) lands within this band, while the
# strictly positive minima of the non-certifiable region exceed it by orders
# of magnitude outside a 1e-6 neighborhood of the window edges.
_BAND = 1e-6


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SpectrumCurve:
    points: tuple
    transitions: dict


# ---------------------------------------------------------------------------
# tilted series evaluation


def _require_level1(potential: Potential) -> None:
    if potential.level != 1 or not potential.bounded:
        raise UnsupportedPotentialError(
            "spectrum routines require a bounded level-1 potential; "
            "higher-level averages go through measures.maximize_ratio")


@functools.lru_cache(maxsize=32)
def _head_grouping(system: BranchSystem, potential: Potential):
    """t-independent grouping of the explicit head by potential value.

    Returns (H, uvals, edges, logd, m): the distinct potential values, the
    group boundaries, and log diam(I_i) and the physical digits in grouped
    order.  With more than 512 distinct values the head stays ungrouped in
    digit order: uvals are the per-digit values and edges is None.
    """
    H, logd, vals = _plc_head_arrays(system, potential)
    m = np.arange(1, H + 1, dtype=float) + system.offset
    uvals, inv = np.unique(vals, return_inverse=True)
    if len(uvals) > 512:
        return H, vals, None, logd, m
    order = np.argsort(inv, kind="stable")
    edges = np.searchsorted(inv[order], np.arange(len(uvals) + 1))
    return H, uvals, edges, logd[order], m[order]


@functools.lru_cache(maxsize=256)
def _series_groups(system: BranchSystem, potential: Potential, t: float,
                   family: str):
    """Grouped log-weights of e^{q phi} x w_i at tilt q = 0.

    ``family`` selects the weight w_i: "diam" uses diam(I_i)^t (exact on
    linear systems), while "lo"/"hi" use the derivative-range surrogates
    (m+1)^(-2t) / m^(-2t) that bracket the continued-fraction family.
    Returns (values, logS, tail_lo, tail_hi, logT_lo, logT_hi): the distinct
    potential values, their grouped log-weights, and the tail description
    beyond the explicit head (None entries for finite systems).
    """
    H, uvals, edges, logd, m = _head_grouping(system, potential)
    if family == "diam":
        w = t * logd
    else:
        w = -2.0 * t * np.log(m + 1.0 if family == "lo" else m)
    if edges is None:
        logS = w
    else:
        logS = np.array([_logsumexp(w[edges[g]:edges[g + 1]])
                         for g in range(len(uvals))])
    if system.tail is None:
        return uvals, logS, None, None, None, None
    p_lo, p_hi = potential_tail_bounds(system, potential, H)
    if family == "diam":
        T_lo, T_hi = diam_series(system, t, start=H + 1)
    else:
        first = H + 1 + system.offset + (1 if family == "lo" else 0)
        if 2.0 * t > 1.0:
            T_lo = T_hi = float(_hurwitz_zeta(2.0 * t, first))
        else:
            T_lo = T_hi = math.inf
    logT_lo = math.log(T_lo) if T_lo > 0 else -math.inf
    logT_hi = math.log(T_hi) if math.isfinite(T_hi) else math.inf
    return uvals, logS, p_lo, p_hi, logT_lo, logT_hi


def _f_alpha(system, potential, t, qhat, family="diam"):
    """(f_lo, f, f_hi, alpha) of the tilted series at (t, qhat).

    The midpoint value folds the tail into one synthetic group, so the
    reported alpha is exactly the q-derivative of the reported f and the
    stationarity residuals measure solver closure alone.
    """
    uvals, logS, p_lo, p_hi, logT_lo, logT_hi = _series_groups(
        system, potential, t, family)
    terms = qhat * uvals + logS
    if p_lo is None:
        f = _logsumexp(terms)
        weights = np.exp(terms - f)
        return f, f, f, float(weights @ uvals)
    if math.isinf(logT_hi):
        return math.inf, math.inf, math.inf, math.nan
    lo_val, hi_val = (p_lo, p_hi) if qhat >= 0 else (p_hi, p_lo)
    head = _logsumexp(terms)
    f_lo = float(np.logaddexp(head, qhat * lo_val + logT_lo))
    f_hi = float(np.logaddexp(head, qhat * hi_val + logT_hi))
    p_mid = 0.5 * (p_lo + p_hi)
    logT_mid = 0.5 * (logT_lo + logT_hi)
    all_terms = np.append(terms, qhat * p_mid + logT_mid)
    all_vals = np.append(uvals, p_mid)
    f = _logsumexp(all_terms)
    weights = np.exp(all_terms - f)
    return f_lo, f, f_hi, float(weights @ all_vals)


def _value_range(system, potential):
    """(inf, sup, inf attained, sup attained) of a level-1 potential.

    Attainment over the tail follows the potential kind: indicator and
    constant tails take their bound values on actual digits, while the
    harmonic infimum 0 is a limit only.
    """
    H, _, vals = _plc_head_arrays(system, potential)
    lo = float(vals.min())
    hi = float(vals.max())
    lo_att = hi_att = True
    if system.tail is not None:
        p_lo, p_hi = potential_tail_bounds(system, potential, H)
        tail_lo_att = potential.kind != "harmonic"
        if p_lo < lo - 1e-15:
            lo, lo_att = p_lo, tail_lo_att
        if p_hi > hi + 1e-15:
            hi, hi_att = p_hi, True
    return lo, hi, lo_att, hi_att


# ---------------------------------------------------------------------------
# roots


def _root(fn, lo, hi, limits=None):
    """Zero of the increasing function fn, searched from the bracket [lo, hi].

    While fn(lo) > 0 (or fn(hi) < 0) that end moves outwards by the
    bracket's width, so the bracket grows geometrically, but never past
    ``limits`` (default: the bracket itself, no widening); an end that
    reaches its limit without a sign change is returned.  Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 4) then closes the bracket to xtol = rtol = 1e-15.
    """
    lo_limit, hi_limit = (lo, hi) if limits is None else limits
    f_lo = fn(lo)
    while f_lo > 0 and lo > lo_limit:
        lo = max(lo - (hi - lo), lo_limit)
        f_lo = fn(lo)
    if f_lo > 0:
        return lo
    f_hi = fn(hi)
    while f_hi < 0 and hi < hi_limit:
        hi = min(hi + (hi - lo), hi_limit)
        f_hi = fn(hi)
    if f_hi < 0:
        return hi
    return float(brentq(fn, lo, hi, xtol=1e-15, rtol=1e-15))


# ---------------------------------------------------------------------------
# Legendre solution


def _solve_qhat(system, potential, t, alpha, family="diam"):
    """Tilt q with alpha(t, q) = alpha, by Brent's method from [-1, 1].

    alpha(t, .) is increasing; the bracket widens up to |q| = 700 and
    stays at that end when the level is out of reach.  Returns q and the
    (f_lo, f, f_hi, alpha) tuple of ``_f_alpha`` there.
    """
    q = _root(lambda q: _f_alpha(system, potential, t, q, family)[3] - alpha,
              -1.0, 1.0, (-700.0, 700.0))
    return q, _f_alpha(system, potential, t, q, family)


def _t_floor(system):
    """Lower end of the t-bracket of the Legendre solve.

    The tilted series may blow up exactly at s_inf, in which case the
    search starts a hair above it.
    """
    s_inf = s_inf_exact(system)
    if system.tail is None:
        return 0.0
    if series_converges(system, s_inf):
        return s_inf
    return s_inf + 1e-6


def _decreasing_log_mass_root(logsum, floor: float, s_inf: float) -> float:
    """Root of a decreasing log-mass function over [floor, 1]."""
    lo = max(floor, 1e-12)
    if logsum(lo) <= 0.0:
        return s_inf if floor > 0 else 0.0
    return _root(lambda t: -logsum(t), lo, 1.0)


def _subsystem_dimension(system, potential, alpha):
    """Dimension of the subsystem on digits where phi equals alpha exactly.

    Singletons carry dimension 0.  On linear systems the matching digit set
    (with the whole tail when its bounds pin phi to alpha) has a Moran-type
    root computed from the exact diameter series.  On analytic systems the
    matching set is a tail block in every supported case and is handed to
    the restricted-system pressure root; other analytic sets fall back to
    the level-1 diameter proxy.
    """
    H, _, vals = _plc_head_arrays(system, potential)
    mask = np.abs(vals - alpha) <= 1e-12
    tail_in = False
    if system.tail is not None:
        p_lo, p_hi = potential_tail_bounds(system, potential, H)
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
    logd = np.log(diameters(system, H))
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
            out = float(np.logaddexp(out, p))
        return out

    floor = _t_floor(system) if tail_in else 0.0
    return _decreasing_log_mass_root(logsum, floor, s_inf)


def legendre_solve(system: BranchSystem, potential: Potential, alpha: float, *,
                   t_max: float = 1.0) -> SpectrumPoint:
    """Dimension of the level set where the average of phi equals alpha.

    Interior alphas go through the nested stationarity solve: an inner
    Brent solve finds the tilt q with f_q(t, q) = alpha, an outer one finds
    the root of the decreasing g(t) = f(t, q(t)) - q(t) alpha, and the
    dimension is max(s_inf, t).  When the certified lower end of g at the
    floor is <= 0, g has no root above the floor: the regime is flat and
    the dimension is s_inf.  Range endpoints reduce to the matching digit
    subsystem when attained and to the floor otherwise; alphas outside the
    closed range are empty.
    """
    _require_level1(potential)
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

    floor = _t_floor(system)
    # one q-solve per distinct t: brentq re-evaluates its bracket ends
    solve = functools.cache(lambda t: _solve_qhat(system, potential, t, alpha))
    q, (f_lo, _, _, _) = solve(floor)
    if f_lo - q * alpha <= 0.0:
        return SpectrumPoint(alpha=alpha, dim=s_inf, t=s_inf, q=None,
                             residuals=None, regime="flat-floor", s_inf=s_inf)

    def minus_g(t):
        q, (_, f, _, _) = solve(t)
        return q * alpha - f

    t_sol = _root(minus_g, floor, t_max)
    q_sol, (_, f, _, a) = solve(t_sol)
    residuals = (abs(f - q_sol * alpha), abs(a - alpha))
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
    critical exponent delta, the tilt-to-level map is
    alpha(q) = log(K e^q + C)/q.  q_minus and q_plus come from the closed
    forms log((1-C)/K) and log(C/(1-K)), cross-checked as the unique roots
    of alpha(q) = 0 and alpha(q) = 1.  The flat windows end at the extremal
    values of alpha on the outer tilt ranges: alpha_lower is the maximum
    over q < q_minus (alpha tends to 0 at both ends of that range) and
    alpha_upper the minimum over q > q_plus.
    """
    if potential is not None and (potential.kind != "indicator" or potential.index != 1):
        raise UnsupportedPotentialError(
            "flat bounds are defined for the first-branch indicator")
    delta = s_inf_exact(system)
    K, C = _flat_K_C(system, delta)
    if not (C < 1.0 and K + C > 1.0):
        raise InfeasibleModelError(
            f"flat geometry requires C < 1 < K + C, got K={K:.6g}, C={C:.6g}")
    q_minus = math.log((1.0 - C) / K)
    q_plus = math.log(C / (1.0 - K))

    def alpha_of(q):
        return math.log(K * math.exp(q) + C) / q

    root0 = _root(lambda q: K * math.exp(q) + C - 1.0,
                  q_minus - 5.0, q_minus + 5.0, (-700.0, 700.0))
    root1 = _root(lambda q: q - math.log(K * math.exp(q) + C),
                  q_plus - 5.0, q_plus + 5.0, (-700.0, 700.0))
    if abs(root0 - q_minus) > 1e-9 or abs(root1 - q_plus) > 1e-9:
        raise ModelError("flat window roots disagree with the closed forms")

    qs = q_minus - np.geomspace(1e-6, 200.0, 800)
    vals = np.array([alpha_of(q) for q in qs])
    i = int(np.argmax(vals))
    res = minimize_scalar(lambda q: -alpha_of(q),
                          bounds=(qs[min(i + 1, len(qs) - 1)], qs[max(i - 1, 0)]),
                          method="bounded", options={"xatol": 1e-14})
    alpha_lower = -float(res.fun)

    qs = q_plus + np.geomspace(1e-6, 200.0, 800)
    vals = np.array([alpha_of(q) for q in qs])
    i = int(np.argmin(vals))
    res = minimize_scalar(alpha_of,
                          bounds=(qs[max(i - 1, 0)], qs[min(i + 1, len(qs) - 1)]),
                          method="bounded", options={"xatol": 1e-14})
    alpha_upper = float(res.fun)

    if not (0.0 < alpha_lower < alpha_upper < 1.0):
        raise ModelError("flat window edges out of order; model outside the flat family")
    return FlatBounds(alpha_lower=alpha_lower, alpha_upper=alpha_upper,
                      q_minus=q_minus, q_plus=q_plus, delta=delta)


# ---------------------------------------------------------------------------
# flat upper-bound certificates


def _monotone_zero(fn, increasing: bool):
    """Zero of a monotone function of the tilt; expands from [-1, 1]."""
    sign = 1.0 if increasing else -1.0
    q = _root(lambda q: sign * fn(q), -1.0, 1.0, (-1e6, 1e6))
    if abs(q) >= 1e6:
        raise ModelError("no zero of the certificate function found")
    return q


def flat_certificate(system: BranchSystem, potential: Potential, alpha: float,
                     delta: float | None = None) -> FlatCertificate:
    """Search for a tilt q with f(delta, q) - q alpha <= 0.

    Such a q certifies that the level set of alpha has dimension at most
    delta.  The map q -> f(delta, q) - q alpha is convex with derivative
    f_q - alpha, so the attained minimum sits at the tilt solving
    f_q = alpha; at an exactly attained extreme value of the potential the
    minimum is an unattained limit and the zero of the monotone branch is
    returned instead (for the two-block family at alpha = 1 this zero is
    exactly q_plus).  On the continued-fraction family at delta <= 1/2 the
    series diverges for every tilt, so no witness can exist and the
    reported minimum is +inf.
    """
    _require_level1(potential)
    if delta is None:
        delta = s_inf_exact(system)
    linear = is_linear(system)
    family = "diam" if linear else "hi"
    lo_family = "diam" if linear else "lo"

    def F_mid(q):
        return _f_alpha(system, potential, delta, q, family)[1] - q * alpha

    def F_bracket(q):
        if linear:
            b_lo, b_hi = pressure_locally_constant_bracket(
                system, potential, t=delta, coeff=q)
            return b_lo - q * alpha, b_hi - q * alpha
        b_lo = _f_alpha(system, potential, delta, q, lo_family)[0]
        b_hi = _f_alpha(system, potential, delta, q, family)[2]
        return b_lo - q * alpha, b_hi - q * alpha

    probe_lo, probe_hi = F_bracket(0.0)
    if math.isinf(probe_hi):
        note = ("tilted series diverges at delta for every tilt"
                if math.isinf(probe_lo) else "tilted series upper bound diverges")
        return FlatCertificate(alpha=alpha, delta=delta, qhat=None,
                               value_lo=math.inf, value_hi=math.inf,
                               witness=False, note=note)

    v_lo, v_hi, lo_att, hi_att = _value_range(system, potential)
    if alpha >= v_hi - 1e-12 and hi_att:
        qhat = _monotone_zero(F_mid, increasing=False)
        note = "upper endpoint: zero of the decreasing branch"
    elif alpha <= v_lo + 1e-12 and lo_att:
        qhat = _monotone_zero(F_mid, increasing=True)
        note = "lower endpoint: zero of the increasing branch"
    else:
        qhat, _ = _solve_qhat(system, potential, delta, alpha, family)
        note = ""

    val_lo, val_hi = F_bracket(qhat)
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
    (the curve maximum), and for the two-block family the flat window
    edges, pinned to the flat-floor regime per the closed-interval flat
    statement.  The same values are repeated in the ``transitions``
    mapping.
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
            root = pressure_root(system)
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
                fb = flat_bounds(system)
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
