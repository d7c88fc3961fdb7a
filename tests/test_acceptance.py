"""Acceptance gate: one test per headline criterion, with per-check lines.

Each check prints a PASS/FAIL line (visible with -s or on failure) and the
test asserts the conjunction, so the pytest verdict per test is the verdict
for the criterion.  Runtime limits are asserted where the criterion states
them.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

import thermospec as ts
from thermospec import cli

BE = ts.besicovitch_eggleston

# flat family with K = 0.55, C = 0.6
ALPHA_LOWER = 0.2226131530056198
ALPHA_UPPER = 0.738087685404822
Q_MINUS = -0.3184537311185346
Q_PLUS = 0.28768207245178085

GOLDEN_LYAP = 0.9624236501192069


def _check(flags, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {label}" + (f" ({detail})" if detail else ""))
    flags.append((label, bool(ok)))
    return ok


def _finish(flags, elapsed, limit):
    print(f"elapsed {elapsed:.1f}s (limit {limit}s)")
    bad = [label for label, ok in flags if not ok]
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"
    assert not bad, f"failed checks: {bad}"


def test_criterion_1_gauss_critical_exponent():
    """sinf on the continued-fraction family: 0.5 to 1e-3, with evidence."""
    flags = []
    t0 = time.time()
    res = ts.s_infinity(ts.gauss_system())
    _check(flags, "criterion 1: s_inf value", abs(res.value - 0.5) <= 1e-3,
           f"value {res.value}")
    cert = res.certificate
    _check(flags, "criterion 1: both certificate numbers are finite",
           math.isfinite(cert["series_upper_bound_at_s_hi"])
           and math.isfinite(cert["log10_terms_to_exceed_probe_at_s_lo"]), f"certificate {cert}")
    _check(flags, "criterion 1: probe bracket encloses 0.5",
           res.s_lo <= 0.5 <= res.s_hi)
    _finish(flags, time.time() - t0, 5.0)


def test_criterion_2_gauss_pressure_root():
    """root on [0.8, 1.2] with q=200, n<=4 lands near the known root 1."""
    flags = []
    t0 = time.time()
    res = ts.pressure_root(ts.gauss_system(), bracket=(0.8, 1.2), q=200, n_max=4)
    _check(flags, "criterion 2: t* within [0.95, 1.05]",
           0.95 <= res.value <= 1.05, f"t* {res.value}")
    _check(flags, "criterion 2: certified interval contains 1.0",
           res.interval[0] <= 1.0 <= res.interval[1],
           f"interval {res.interval}")
    _check(flags, "criterion 2: truncation levels within bound",
           1 <= res.n_used <= 4, f"n_used {res.n_used}")
    _finish(flags, time.time() - t0, 60.0)


def test_criterion_3_entropy_curve_equivalence():
    """Legendre solver and constrained maximizer against H(alpha)/log 2."""
    flags = []
    t0 = time.time()
    sys2 = ts.doubling_system()
    chi1 = ts.indicator_potential(1)
    grid = np.linspace(0.05, 0.95, 21)
    worst_leg = 0.0
    worst_max = 0.0
    for alpha in grid:
        closed = BE((alpha, 1.0 - alpha), (0.5, 0.5))
        pt = ts.legendre_solve(sys2, chi1, float(alpha))
        worst_leg = max(worst_leg, abs(pt.t - closed))
        _, st = ts.maximize_ratio(sys2, constraints=((chi1, float(alpha), 1e-4),))
        worst_max = max(worst_max, abs(st.ratio - closed))
    _check(flags, "criterion 3: legendre_solve matches entropy curve",
           worst_leg <= 1e-6, f"worst |diff| {worst_leg:.3g}")
    _check(flags, "criterion 3: maximize_ratio matches entropy curve",
           worst_max <= 5e-3, f"worst |diff| {worst_max:.3g}")
    _finish(flags, time.time() - t0, 30.0)


def test_criterion_4_flat_spectrum():
    """Flat family: tilt roots, witness dichotomy, interior hump shape."""
    flags = []
    t0 = time.time()
    flat = ts.flat_example_system()
    chi1 = ts.indicator_potential(1)
    fb = ts.flat_bounds(flat)

    # (a) closed-form tilt roots, confirmed as roots of alpha(q) = 0, 1
    _check(flags, "criterion 4a: q_minus closed form",
           abs(fb.q_minus - math.log(0.4 / 0.55)) <= 1e-9, f"{fb.q_minus}")
    _check(flags, "criterion 4a: q_plus closed form",
           abs(fb.q_plus - math.log(0.6 / 0.45)) <= 1e-9, f"{fb.q_plus}")
    bot = ts.flat_certificate(flat, chi1, 0.0)
    top = ts.flat_certificate(flat, chi1, 1.0)
    _check(flags, "criterion 4a: q_minus is the root at level 0",
           abs(bot.qhat - fb.q_minus) <= 1e-6)
    _check(flags, "criterion 4a: q_plus is the root at level 1",
           abs(top.qhat - fb.q_plus) <= 1e-6)

    # (b) witness for 11 points on the flat windows, none 1e-3 inside
    outer = list(np.linspace(0.0, fb.alpha_lower, 6)) + \
        list(np.linspace(fb.alpha_upper, 1.0, 5))
    have = [ts.flat_certificate(flat, chi1, float(a)).witness for a in outer]
    _check(flags, "criterion 4b: witness on both flat windows",
           all(have), f"{sum(have)}/11 points")
    inner = np.linspace(fb.alpha_lower + 1e-3, fb.alpha_upper - 1e-3, 11)
    none = [not ts.flat_certificate(flat, chi1, float(a)).witness for a in inner]
    _check(flags, "criterion 4b: no witness inside the window",
           all(none), f"{sum(none)}/11 points")

    # (c) interior spectrum clears the floor; grid = interior points of a
    # uniform 13-partition of the window (the edge-adjacent points of the
    # (b) grid sit where continuity pins dim - 1/2 below 1e-3)
    width = fb.alpha_upper - fb.alpha_lower
    interior = np.linspace(fb.alpha_lower + width / 12.0,
                           fb.alpha_upper - width / 12.0, 11)
    dims = []
    resid_ok = True
    for a in interior:
        pt = ts.legendre_solve(flat, chi1, float(a))
        dims.append(pt.dim)
        resid_ok = resid_ok and max(pt.residuals) <= 1e-10
    _check(flags, "criterion 4c: interior spectrum exceeds 1/2 + 1e-3",
           all(d > 0.5 + 1e-3 for d in dims), f"min {min(dims):.6f}")
    _check(flags, "criterion 4c: interior residuals within 1e-10", resid_ok)

    # (d) increasing then decreasing across the tilt-free level
    curve = ts.spectrum_curve(flat, chi1, interior)
    tilde = curve.transitions["alpha_tilde"]
    seq = [(p.alpha, p.dim) for p in curve.points]
    rising = all(b >= a - 1e-12 for (x, a), (y, b) in zip(seq, seq[1:]) if y <= tilde)
    falling = all(b <= a + 1e-12 for (x, a), (y, b) in zip(seq, seq[1:]) if x >= tilde)
    _check(flags, "criterion 4d: spectrum rises then falls across alpha-tilde",
           rising and falling, f"alpha_tilde {tilde:.6f}")
    _finish(flags, time.time() - t0, 30.0)


def test_criterion_5_harmonic_endpoints():
    """Golden Dirac statistics and the two endpoint rows at s_inf."""
    flags = []
    t0 = time.time()
    st = ts.golden_dirac_stats()
    _check(flags, "criterion 5: golden Dirac entropy is exactly 0", st.h == 0.0)
    _check(flags, "criterion 5: golden Dirac harmonic moment is exactly 1",
           st.moments == (1.0,))
    _check(flags, "criterion 5: golden Dirac Lyapunov exponent",
           abs(st.lyapunov - GOLDEN_LYAP) <= 1e-15)
    g = ts.gauss_system()
    harm = ts.harmonic_potential()
    for alpha in (0.0, 1.0):
        pt = ts.legendre_solve(g, harm, alpha)
        _check(flags, f"criterion 5: endpoint row at level {alpha} reports 1/2",
               pt.regime == "endpoint" and pt.dim == 0.5,
               f"dim {pt.dim} ({pt.note})")
    _finish(flags, time.time() - t0, 120.0)


def _restricted_gibbs_stats(N, t):
    """Level-1 Gibbs statistics on digits >= N at inverse temperature t,
    evaluated in closed form through the Hurwitz zeta function.

    The Lyapunov exponent uses the level-1 value 2 log m on digit m.  On the
    m-th continued-fraction branch log|T'(x)| = -2 log x >= 2 log m, so this
    is a lower bound for the Gauss Lyapunov exponent of the same measure and
    the reported ratio h/lambda is overstated.
    """
    with mp.workdps(30):
        Z = mp.zeta(2 * t, N)
        lam = float(-2 * mp.zeta(2 * t, N, 1) / Z)
        h = float(mp.log(Z)) + t * lam
        mom = float(mp.zeta(2 * t + 1, N) / Z)
    return ts.MeasureStats(h=h, lyapunov=lam, ratio=h / lam, moments=(mom,))


# closed-form ratio threshold p_r at N = 20 over the certified interval
# (0.67437, 0.67587) of t*(20), recomputed at 50 digits in mpmath
P_R_RANGE_N20 = (0.18985, 0.19050)


def _mixture_windows(base):
    """Closed-form weight windows for p*base + (1-p)*golden Dirac.

    With base statistics (h, lambda, m) and the golden Dirac (0, lambda_g, 1)
    the mixture has ratio p h / (p lambda + (1-p) lambda_g) and harmonic
    moment 1 - p (1 - m).  So ratio > 1/2 iff p > p_r and the moment lies in
    (0.9, 1) iff 0 < p < p_m, with
    p_r = lambda_g / (2h - lambda + lambda_g) and p_m = 0.1 / (1 - m).
    """
    m = base.moments[0]
    p_r = GOLDEN_LYAP / (2.0 * base.h - base.lyapunov + GOLDEN_LYAP)
    p_m = 0.1 / (1.0 - m)
    return p_r, p_m


def test_criterion_5_interior_mixture_at_N20():
    """Mixture of the digits>=20 equilibrium with the golden Dirac: the
    clause "ratio above 1/2 with harmonic moment in (0.9, 1)" is provably
    unsatisfiable with this base, and the scan must show exactly that.

    The moment window needs p < p_m = 0.1/(1 - m_20): m_20 ~ 0.0133 gives
    p_m ~ 0.1014, and m_20 <= 1/20 for any measure on digits >= 20 caps it
    at 0.1053.  The ratio window needs p > p_r = lambda_g/(2h_20 - lambda_20
    + lambda_g) ~ 0.1902.  The base's lambda_20 is the level-1 lower bound
    of the Gauss Lyapunov exponent, so its ratio is overstated and the true
    threshold lies above p_r: the obstruction is conservative.  The
    2001-weight scan through mixture_lower_bound must reproduce both
    windows to one grid step, find ratio > 1/2 only at moments up to
    1 - p_r(1 - m_20) ~ 0.812 < 0.9, and no weight in both windows.  The
    companion test below runs the same mechanism at cutoff 1e45, where the
    windows overlap.
    """
    flags = []
    t0 = time.time()
    g = ts.gauss_system()
    root = ts.pressure_root(ts.restricted_system(g, 20))
    base = _restricted_gibbs_stats(20, root.value)
    golden = ts.golden_dirac_stats()
    grid = [float(p) for p in np.linspace(0.0, 1.0, 2001)]
    step = grid[1] - grid[0]
    ratio_hits, moment_hits = [], []
    for p in grid:
        st = ts.mixture_lower_bound(base, golden, [p]).stats
        if st.ratio > 0.5:
            ratio_hits.append((p, st.moments[0]))
        if 0.9 < st.moments[0] < 1.0:
            moment_hits.append(p)
    p_r, p_m = _mixture_windows(base)
    m20 = base.moments[0]

    def matches(found, expected, edge):
        # the scan and the closed form may disagree only next to the edge
        return all(abs(p - edge) <= step for p in set(found) ^ set(expected))

    # (i) ratio above 1/2 exactly on the weights above p_r
    _check(flags, "criterion 5 N=20: ratio > 1/2 exactly for p > p_r",
           matches([p for p, _ in ratio_hits], [p for p in grid if p > p_r], p_r),
           f"t*(20) {root.value:.6f}, p_r {p_r:.6f}, first hit "
           f"{ratio_hits[0][0] if ratio_hits else None}")
    _check(flags, "criterion 5 N=20: p_r inside its certified range",
           P_R_RANGE_N20[0] <= p_r <= P_R_RANGE_N20[1], f"p_r {p_r:.6f}")
    # (ii) moment in (0.9, 1) exactly on the weights in (0, p_m)
    _check(flags, "criterion 5 N=20: moment in (0.9, 1) exactly for 0 < p < p_m",
           matches(moment_hits, [p for p in grid if 0.0 < p < p_m], p_m),
           f"p_m {p_m:.6f}, last hit {moment_hits[-1] if moment_hits else None}")
    _check(flags, "criterion 5 N=20: base harmonic moment at most 1/20",
           0.0 < m20 <= 1.0 / 20.0, f"m_20 {m20:.6f}")
    # (iii) the windows are disjoint across the certified root interval
    ends = [_mixture_windows(_restricted_gibbs_stats(20, t)) for t in root.interval]
    _check(flags, "criterion 5 N=20: p_m < p_r at both ends of the root interval",
           all(pm < pr for pr, pm in ends)
           and all(P_R_RANGE_N20[0] <= pr <= P_R_RANGE_N20[1] for pr, _ in ends),
           f"interval {root.interval}, (p_r, p_m) {ends}")
    _check(flags, "criterion 5 N=20: no weight has ratio > 1/2 and moment in (0.9, 1)",
           not [p for p, mom in ratio_hits if 0.9 < mom < 1.0])
    # (iv) ratio > 1/2 is reached, only at moments up to 1 - p_r (1 - m_20)
    top = max((mom for _, mom in ratio_hits), default=math.nan)
    bound = 1.0 - p_r * (1.0 - m20)
    _check(flags, "criterion 5 N=20: highest moment with ratio > 1/2 is 1 - p_r(1 - m_20)",
           abs(top - bound) <= step * (1.0 - m20) and top < 0.9,
           f"highest {top:.6f}, closed form {bound:.6f}")
    _finish(flags, time.time() - t0, 120.0)


def test_criterion_5_interior_mixture_asymptotic():
    """Companion: the same mixture mechanism succeeds at cutoff 1e45."""
    flags = []
    t0 = time.time()
    g = ts.gauss_system()
    N = 10 ** 45
    root = ts.pressure_root(ts.restricted_system(g, N))
    base = _restricted_gibbs_stats(N, root.value)
    golden = ts.golden_dirac_stats()
    hits = []
    for p in np.linspace(0.0984, 0.0999, 16):
        res = ts.mixture_lower_bound(base, golden, [float(p)])
        if res.stats.ratio > 0.5 and 0.9 < res.stats.moments[0] < 1.0:
            hits.append((float(p), res.stats.ratio, res.stats.moments[0]))
    _check(flags, "criterion 5 companion: mechanism works at huge cutoff",
           bool(hits), f"t* {root.value:.6f}, {len(hits)} admissible weights")
    _finish(flags, time.time() - t0, 120.0)


def test_criterion_6_restricted_family_asymptotics():
    """Dimensions of digits>=N systems against loglog N / (2 log N)."""
    flags = []
    t0 = time.time()
    g = ts.gauss_system()
    values = []
    for N in (10, 100, 1000):
        res = ts.pressure_root(ts.restricted_system(g, N))
        values.append(res.value)
        ratio = (res.value - 0.5) / (math.log(math.log(N)) / (2.0 * math.log(N)))
        _check(flags, f"criterion 6: N={N} asymptotic ratio in [0.5, 2.0]",
               0.5 <= ratio <= 2.0, f"t* {res.value:.10f}, ratio {ratio:.4f}")
    _check(flags, "criterion 6: dimensions decrease in N",
           values[0] > values[1] > values[2])
    _check(flags, "criterion 6: dimensions stay above 1/2",
           all(v > 0.5 for v in values))
    _finish(flags, time.time() - t0, 120.0)


def test_criterion_7_digit_frequency_floor():
    """Frequency vectors with mass deficit collapse to s_inf exactly."""
    flags = []
    t0 = time.time()
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.digit_frequency_dimension(inv, [0.5, 0.4])
    _check(flags, "criterion 7: deficit vector returns exactly s_inf",
           res.dimension == 0.5 and res.regime == "s_inf-floor",
           f"dimension {res.dimension}")
    full = ts.digit_frequency_dimension(inv, [0.6, 0.4])
    lam = -(0.6 * math.log(0.5) + 0.4 * math.log(0.125))
    hand = max(0.5, -(0.6 * math.log(0.6) + 0.4 * math.log(0.4)) / lam)
    _check(flags, "criterion 7: full vector matches hand evaluation",
           abs(full.dimension - hand) <= 1e-12,
           f"module {full.dimension}, hand {hand}")
    _finish(flags, time.time() - t0, 60.0)


def test_criterion_8_property_suites():
    """Randomized and structural properties plus the verification suite."""
    flags = []
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    sys2 = ts.doubling_system()
    g8 = ts.truncate(ts.gauss_system(), 8)
    inv6 = ts.truncate(ts.powerlog_system([], c=0.5, a=2.0), 6)

    # (a) entropy never exceeds the Lyapunov exponent
    ok_a = True
    pool = (sys2, g8, inv6)
    for _ in range(1000):
        sysm = pool[int(rng.integers(0, 3))]
        level = int(rng.integers(1, 3))
        q = sysm.branch_count()
        words = sorted({tuple(int(d) for d in rng.integers(1, q + 1, size=level))
                        for _ in range(int(rng.integers(2, 7)))})
        if len(words) < 2:
            continue
        w = rng.random(len(words)) + 1e-3
        w /= w.sum()
        st = ts.stats(sysm, ts.CylinderMeasure(level=level, words=tuple(words),
                                               weights=tuple(w)))
        ok_a = ok_a and st.h <= st.lyapunov + 1e-12
    _check(flags, "criterion 8a: h <= lyapunov on 1000 random measures", ok_a)

    # (b) pressure strictly decreasing in t
    d_vals = [ts.pressure(sys2, t=t, n_max=2).values[-1]
              for t in np.linspace(0.0, 2.0, 9)]
    g = ts.gauss_system()
    g_vals = [ts.pressure(g, t=t, q=30, n_max=2).values[-1]
              for t in np.linspace(0.6, 1.4, 9)]
    ok_b = all(b < a for a, b in zip(d_vals, d_vals[1:])) and \
        all(b < a for a, b in zip(g_vals, g_vals[1:]))
    _check(flags, "criterion 8b: pressure strictly decreasing in t", ok_b)

    # (c) tilted pressure is convex in the tilt
    flat = ts.flat_example_system()
    chi1 = ts.indicator_potential(1)
    ok_c = True
    for sysm, t in ((flat, 0.6), (sys2, 1.0)):
        f = [ts.pressure_locally_constant(sysm, chi1, t=t, coeff=qq)
             for qq in np.linspace(-2.0, 2.0, 11)]
        second = np.diff(f, 2)
        ok_c = ok_c and bool(np.all(second >= -1e-12))
    _check(flags, "criterion 8c: tilted pressure convex in q", ok_c)

    # (d) truncated pressure monotone in the truncation
    t_vals = [ts.pressure(g, t=1.0, q=q, n_max=2).values[-1]
              for q in (8, 16, 32, 64)]
    _check(flags, "criterion 8d: pressure monotone in truncation",
           all(b > a for a, b in zip(t_vals, t_vals[1:])))

    # (e) mixtures combine affinely, exactly
    a = ts.MeasureStats(h=0.3, lyapunov=1.2, ratio=0.25, moments=(0.4,))
    b = ts.MeasureStats(h=0.1, lyapunov=2.0, ratio=0.05, moments=(0.9,))
    mixed = ts.mixture_lower_bound(a, b, [0.3]).stats
    ok_e = (abs(mixed.h - (0.3 * 0.3 + 0.7 * 0.1)) <= 1e-14
            and abs(mixed.lyapunov - (0.3 * 1.2 + 0.7 * 2.0)) <= 1e-14
            and abs(mixed.moments[0] - (0.3 * 0.4 + 0.7 * 0.9)) <= 1e-14)
    _check(flags, "criterion 8e: mixture statistics affine to 1e-14", ok_e)

    # (f) identical results for 1, 4 and 8 workers
    ref = ts.pressure(g, t=1.0, q=25, n_max=3, workers=1)
    ok_f = True
    for w in (4, 8):
        est = ts.pressure(g, t=1.0, q=25, n_max=3, workers=w)
        ok_f = ok_f and max(abs(x - y) for x, y in zip(est.values, ref.values)) <= 1e-12
    _check(flags, "criterion 8f: worker counts 1, 4, 8 agree to 1e-12", ok_f)

    # the packaged verification suite passes end to end
    rc = cli.main(["verify", "--suite", "all"])
    _check(flags, "criterion 8: verify --suite all exits 0", rc == 0)
    _finish(flags, time.time() - t0, 600.0)
