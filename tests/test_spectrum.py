"""Legendre solver, flat-window bounds and spectrum curves."""

import json
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

import thermospec as ts
from thermospec import spectrum, systems, thermo
from thermospec.spectrum import _logsumexp
from thermospec.systems import _decode_words

BE_QUARTER = 0.8112781244591328  # H(1/4) / log 2
# flat family with K = 0.55, C = 0.6: window edges and tilt roots
ALPHA_LOWER = 0.2226131530056198
ALPHA_UPPER = 0.738087685404822
Q_MINUS = -0.3184537311185346   # log((1 - C)/K)
Q_PLUS = 0.28768207245178085    # log(C/(1 - K))
# diam(I_1)^t* at the root t* of the 40-digit series of flat_example_system()
FLAT_ALPHA_TILDE = 0.5334161901296876


@pytest.fixture(scope="module")
def flat():
    return ts.flat_example_system()


@pytest.fixture(scope="module")
def chi1():
    return ts.indicator_potential(1)


def _bits(x):
    return np.float64(x).tobytes()


def test_logsumexp_helper_bit_identical_to_scipy():
    rng = np.random.default_rng(7)
    cases = []
    for n in (1, 2, 3, 5, 8, 17, 100, 4097, 100_001):
        for scale in (1e-3, 1.0, 50.0):
            cases.append(rng.normal(scale=scale, size=n))
            cases.append(rng.normal(scale=scale, size=n) + rng.normal(scale=100.0))
    # entries far below the maximum, where log1p differs from log(1 + s)
    cases.append(np.array([0.0, -40.0, -45.0]))
    for n in (2, 3, 9, 1000):
        tied = rng.normal(size=n)
        tied[rng.integers(0, n, size=max(2, n // 3))] = tied.max()
        cases.append(tied)
        cases.append(np.full(n, -1.25))
        holes = rng.normal(size=n)
        holes[rng.integers(0, n, size=max(1, n // 4))] = -np.inf
        cases.append(holes)
    cases += [np.array([-np.inf, -np.inf]), np.array([-np.inf, 3.0]),
              np.array([np.inf, 1.0]), np.array([np.nan, 1.0]), np.array([]),
              np.array([1e308, 1e308])]
    # the 2^19-value Gauss level-3 arrays -t L and phi - t L, 16 tiles each
    g = ts.gauss_system()
    gauss = []
    for start in (0, 200 ** 3 - thermo._CHUNK):
        cols = list(_decode_words(200, 3, start, start + thermo._CHUNK).T)
        L = ts.log_deriv_potential().birkhoff_sums(g, cols)
        phi = ts.harmonic_potential().birkhoff_sums(g, cols)
        for t in (0.8, 1.0, 1.2):
            gauss += [-t * L, phi - t * L]
    for a in cases + gauss:
        expected = logsumexp(a)
        assert _bits(_logsumexp(a)) == _bits(expected), a
        # a log-partition pass's kernel: at t = -1 its exponents -t a are a
        # itself.  Of at most a tile it is scipy's bit for bit; longer, its
        # tiles' sums are added exactly rounded where scipy sums pairwise
        if not a.size:
            continue  # a pass never sums an empty segment
        value = thermo._log_partition(a, None, -1.0)
        if a.size <= thermo._TILE:
            assert _bits(value) == _bits(expected), a
        else:
            assert abs(value - expected) <= 1e-15 * max(1.0, abs(expected)), a.size


def test_root_helper_widens_and_clamps():
    root = thermo._root
    assert root(lambda x: x - 0.3, 0.0, 1.0)[0] == pytest.approx(0.3, abs=1e-15)
    assert root(lambda x: x - 123.4, -1.0, 1.0, (-700.0, 700.0))[0] == pytest.approx(123.4, rel=1e-15)
    assert root(lambda x: x + 1000.0, -1.0, 1.0, (-700.0, 700.0)) == (-700.0,) * 3
    assert root(lambda x: x - 1000.0, -1.0, 1.0, (-700.0, 700.0)) == (700.0,) * 3
    assert root(lambda x: x - 2.0, 0.0, 1.0) == (1.0,) * 3  # no widening without limits


def test_legendre_doubling_interior(chi1):
    sys2 = ts.doubling_system()
    for alpha in (0.25, 0.75):
        pt = ts.legendre_solve(sys2, chi1, alpha)
        assert pt.regime == "legendre"
        assert pt.t == pytest.approx(BE_QUARTER, abs=1e-9)
        assert pt.dim == pt.t
        assert max(pt.residuals) <= 1e-10
    assert ts.legendre_solve(sys2, chi1, 0.25).q < 0
    assert ts.legendre_solve(sys2, chi1, 0.75).q > 0


def test_legendre_doubling_symmetric_top(chi1):
    pt = ts.legendre_solve(ts.doubling_system(), chi1, 0.5)
    assert pt.t == pytest.approx(1.0, abs=1e-9)
    assert abs(pt.q) <= 1e-9


def test_legendre_endpoints_attained(chi1):
    sys2 = ts.doubling_system()
    for alpha in (0.0, 1.0):
        pt = ts.legendre_solve(sys2, chi1, alpha)
        assert pt.regime == "endpoint"
        # a single digit carries the endpoint level: dimension zero
        assert pt.dim == 0.0
        assert pt.t == 0.0


def test_legendre_outside_range_empty(chi1):
    for alpha in (1.2, math.inf, -math.inf):
        pt = ts.legendre_solve(ts.doubling_system(), chi1, alpha)
        assert pt.regime == "empty"
        assert pt.dim is None


def test_legendre_dim_floor_invariant(chi1, flat):
    for alpha in (0.1, 0.3, 0.5, 0.9):
        pt = ts.legendre_solve(flat, chi1, alpha)
        assert pt.dim == max(pt.s_inf, pt.t)


def test_harmonic_endpoints_on_gauss():
    g = ts.gauss_system()
    harm = ts.harmonic_potential()
    hi = ts.legendre_solve(g, harm, 1.0)
    assert hi.regime == "endpoint"
    assert hi.dim == 0.5  # max(s_inf, dim of the fixed point) = s_inf
    assert hi.t == 0.0
    lo = ts.legendre_solve(g, harm, 0.0)
    assert lo.regime == "endpoint"
    assert lo.dim == 0.5  # level approached only along escaping digits
    assert "closure" in lo.note


def test_gauss_interior_levels_unsupported():
    g = ts.gauss_system()
    with pytest.raises(ts.UnsupportedPotentialError):
        ts.legendre_solve(g, ts.harmonic_potential(), 0.5)


def test_level2_potential_unsupported(chi1):
    tab = ts.table_potential(2, {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): 0.0})
    with pytest.raises(ts.UnsupportedPotentialError):
        ts.legendre_solve(ts.doubling_system(), tab, 0.5)
    with pytest.raises(ts.UnsupportedPotentialError):
        ts.legendre_solve(ts.doubling_system(), ts.log_deriv_potential(), 0.5)


def test_flat_bounds_frozen_values(flat):
    fb = ts.flat_bounds(flat)
    assert fb.q_minus == pytest.approx(Q_MINUS, abs=1e-12)
    assert fb.q_plus == pytest.approx(Q_PLUS, abs=1e-12)
    assert fb.alpha_lower == pytest.approx(ALPHA_LOWER, abs=1e-12)
    assert fb.alpha_upper == pytest.approx(ALPHA_UPPER, abs=1e-12)
    assert fb.delta == 0.5
    assert 0.0 < fb.alpha_lower < fb.alpha_upper < 1.0


def _flat_edge_reference(K, C, q0):
    """Extremum of log(K e^q + C)/q near q0, from its tangency at 50 digits."""
    with mpmath.workdps(50):
        K, C = mpmath.mpf(K), mpmath.mpf(C)
        P = lambda q: mpmath.log(K * mpmath.exp(q) + C)
        q = mpmath.findroot(lambda q: P(q) - q * K * mpmath.exp(q) / (K * mpmath.exp(q) + C),
                            mpmath.mpf(q0))
        return float(P(q) / q)


def test_flat_bounds_edges_correctly_rounded(flat):
    fb = ts.flat_bounds(flat)
    assert _bits(fb.alpha_lower) == _bits(ALPHA_LOWER)
    assert _bits(fb.alpha_upper) == _bits(ALPHA_UPPER)
    # the edges depend on (K, C) alone; s_inf = 0.3 packs the blocks into
    # the unit interval at the corners K = 0.01 or 0.99 with C = 0.999 or
    # K + C = 1.001 and at every draw between them (at s_inf = 0.5 the
    # corner (0.99, 0.999) overpacks)
    rng = np.random.default_rng(21)
    cases = [(K, C) for K in (0.01, 0.99) for C in (0.999, 1.001 - K)]
    for _ in range(400):
        K = rng.uniform(0.01, 0.99)
        cases.append((K, rng.uniform(1.001 - K, 0.999)))
    for K, C in cases:
        fb = ts.flat_bounds(ts.flat_example_system(K, C, 0.3))
        assert fb.alpha_lower == _flat_edge_reference(K, C, fb.q_minus - 1.0), (K, C)
        assert fb.alpha_upper == _flat_edge_reference(K, C, fb.q_plus + 1.0), (K, C)


def test_flat_bounds_closed_forms(flat):
    fb = ts.flat_bounds(flat)
    assert fb.q_minus == pytest.approx(math.log(0.4 / 0.55), abs=1e-12)
    assert fb.q_plus == pytest.approx(math.log(0.6 / 0.45), abs=1e-12)


def test_flat_bounds_needs_flat_family(chi1):
    with pytest.raises(ts.ModelError):
        ts.flat_bounds(ts.doubling_system())


def test_derived_flat_systems_are_outside_the_flat_family(flat, chi1):
    # truncations and restrictions change the window constants K, C
    assert ts.restricted_system(flat, 1) == flat
    for derived in (ts.truncate(flat, 5), ts.restricted_system(flat, 2)):
        with pytest.raises(ts.ModelError,
                           match="flat-region bounds require the two-block model family"):
            ts.flat_bounds(derived)
        curve = ts.spectrum_curve(derived, chi1, [0.3])
        assert "flat_note" not in curve.transitions


def test_flat_certificate_attained_endpoints(flat, chi1):
    top = ts.flat_certificate(flat, chi1, 1.0)
    assert top.witness
    assert top.qhat == pytest.approx(Q_PLUS, abs=1e-6)
    assert abs(0.5 * (top.value_lo + top.value_hi)) <= 1e-6
    bot = ts.flat_certificate(flat, chi1, 0.0)
    assert bot.witness
    assert bot.qhat == pytest.approx(Q_MINUS, abs=1e-6)


def test_flat_certificate_lower_endpoint_without_zero(chi1):
    # on the Gauss map the increasing branch q -> f(delta, q) tends to the
    # sum over the digits m >= 2 as q -> -inf: log(zeta(2 delta, 3)) with the
    # lower weights (m+1)^(-2 delta), log(zeta(2 delta, 2)) with the upper
    for delta in (0.6, 0.75):
        cert = ts.flat_certificate(ts.gauss_system(), chi1, 0.0, delta)
        assert not cert.witness and cert.qhat is None
        assert cert.note == "lower endpoint: no zero of the increasing branch"
        assert cert.value_lo == pytest.approx(float(mpmath.log(mpmath.zeta(2 * delta, 3))), abs=1e-12)
        assert cert.value_hi == pytest.approx(float(mpmath.log(mpmath.zeta(2 * delta, 2))), abs=1e-12)
        assert cert.value_lo > 0.0


def test_flat_certificate_interior_window(flat, chi1):
    for alpha in (ALPHA_LOWER - 1e-4, ALPHA_UPPER + 1e-4, 0.05, 0.95):
        cert = ts.flat_certificate(flat, chi1, alpha)
        assert cert.witness, alpha
        assert cert.value_hi <= 1e-6
    for alpha in (ALPHA_LOWER + 2e-3, 0.5, ALPHA_UPPER - 2e-3):
        cert = ts.flat_certificate(flat, chi1, alpha)
        assert not cert.witness, alpha
        assert cert.value_lo > 0


def test_flat_floor_inside_window(flat, chi1):
    pt = ts.legendre_solve(flat, chi1, 0.1)
    assert pt.regime == "flat-floor"
    assert pt.dim == 0.5
    pt2 = ts.legendre_solve(flat, chi1, 0.9)
    assert pt2.regime == "flat-floor"
    assert pt2.dim == 0.5


def test_flat_window_edges_are_flat_floor(flat, chi1):
    fb = ts.flat_bounds(flat)
    for edge, inward in ((fb.alpha_lower, 1e-6), (fb.alpha_upper, -1e-6)):
        pt = ts.legendre_solve(flat, chi1, edge)
        assert pt.regime == "flat-floor", edge
        assert pt.dim == 0.5
        inside = ts.legendre_solve(flat, chi1, edge + inward)
        assert inside.regime == "legendre", edge
        assert inside.dim > 0.5


def test_series_groups_hold_bounded_memory_on_ungrouped_head():
    # harmonic is not constant on any tail of the flat model, so its head
    # keeps 1e5 digits with 1e5 distinct values and every t caches a
    # 1e5-float logS (0.8 MB); the cache keeps 16 of them however many t a
    # run visits
    flat, harm = ts.flat_example_system(), ts.harmonic_potential()
    thermo._series_groups.cache_clear()
    spectrum._f_alpha(flat, harm, 0.99, 0.0)  # head arrays built before the trace
    tracemalloc.start()
    try:
        for t in np.linspace(0.55, 0.95, 40):
            spectrum._f_alpha(flat, harm, float(t), 0.3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert thermo._series_groups.cache_info().currsize == 16
    assert held < 16_000_000


def test_flat_chi1_row_holds_no_long_series_arrays():
    # chi1 is constant past the one explicit digit of the flat model, so a
    # row's series are the explicit digit, a 1e3-term tail head and the
    # Euler-Maclaurin remainder; built from cold caches it peaks far below
    # the 0.8 MB of one 1e5-float array
    for cache in (thermo._level1_head, thermo._series_groups,
                  systems._diam_series_cached, systems._tail_base):
        cache.cache_clear()
    tracemalloc.start()
    try:
        ts.legendre_solve(ts.flat_example_system(), ts.indicator_potential(1), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("model, potential, alpha, max_t, max_calls, max_builds", [
    ("flat", "chi1", 0.3, 2, 2, 6), ("flat", "chi1", 0.5, 2, 2, 6),
    ("doubling", "chi1", 0.3, 2, 2, 6), ("three", "harmonic", 0.6, 12, 50, 12)])
def test_legendre_row_evaluation_count(monkeypatch, model, potential, alpha,
                                       max_t, max_calls, max_builds):
    # counts tilted-series work per row rather than timing it, after a
    # warm-up row at 0.4 has built the series every row shares.  A
    # two-valued potential's row evaluates the series at the floor and at
    # the solution only; a three-valued one makes one _f_alpha call per
    # step of the tilt solve at each t
    system = {"flat": ts.flat_example_system, "doubling": ts.doubling_system,
              "three": lambda: ts.linear_system([0.5, 0.25, 0.125])}[model]()
    phi = ts.indicator_potential(1) if potential == "chi1" else ts.harmonic_potential()
    assert (spectrum._two_values(system, phi) is None) == (potential == "harmonic")
    thermo._series_groups.cache_clear()
    ts.legendre_solve(system, phi, 0.4)
    builds = thermo._series_groups.cache_info().misses
    seen = []
    real = spectrum._f_alpha

    def counting(system, potential, t, qhat, var=False):
        seen.append(t)
        return real(system, potential, t, qhat, var)

    monkeypatch.setattr(spectrum, "_f_alpha", counting)
    pt = ts.legendre_solve(system, phi, alpha)
    assert pt.regime == "legendre"
    assert len(set(seen)) <= max_t
    assert len(seen) <= max_calls
    assert thermo._series_groups.cache_info().misses - builds <= max_builds


def test_solve_qhat_evaluates_each_tilt_once(monkeypatch, chi1):
    # the returned tuple is the root solver's own evaluation at q; alpha is
    # logistic in q for an indicator, so the Newton step on the log-odds
    # lands next to the root from the first bracket end
    tilts = []
    real = spectrum._f_alpha

    def counting(system, potential, t, qhat, var=False):
        tilts.append(qhat)
        return real(system, potential, t, qhat, var)

    monkeypatch.setattr(spectrum, "_f_alpha", counting)
    q, vals = spectrum._solve_qhat(ts.doubling_system(), chi1, 0.9, 0.3, (0.0, 1.0))
    assert len(tilts) == len(set(tilts)) == 5
    assert vals == real(ts.doubling_system(), chi1, 0.9, q)
    assert vals[3] == pytest.approx(0.3, abs=1e-15)


_SLOPE_SYSTEMS = {
    "flat": ts.flat_example_system,
    "invsq": lambda: ts.powerlog_system([], c=0.5, a=2.0),
    "doubling": ts.doubling_system,
    "half-quarter": lambda: ts.linear_system([0.5, 0.25]),
}


# chi3 is the zero potential on the two-branch systems: no level to solve
@pytest.mark.parametrize("name, potential", [
    (name, f"chi{k}") for name in _SLOPE_SYSTEMS for k in (1, 2, 3)
    if k < 3 or name in ("flat", "invsq")] + [("flat", "harmonic")])
def test_slope_driven_root_keeps_the_bracket_contract(name, potential):
    # the tilt solve of _solve_qhat, alpha - level with slope var and the
    # log-odds with theirs, at seeded (t, level) pairs: each returned
    # bracket straddles the zero, is as narrow as without slopes, and sits
    # within that width of the derivative-free root, plus the tilt that a
    # few ulps of alpha span: alpha(q) - level is flat to rounding there
    # (at q = 10 on flat chi1, var = 6e-6 and that span is 8e3 widths)
    system = _SLOPE_SYSTEMS[name]()
    phi = (ts.harmonic_potential() if potential == "harmonic"
           else ts.indicator_potential(int(potential[3:])))
    lo, hi = spectrum._value_range(system, phi)[:2]
    rng = np.random.default_rng(2027)
    floor = thermo._t_floor(system)
    draws = 4 if potential == "harmonic" else 25
    for t, q0 in zip(rng.uniform(floor + 1e-3, 1.5, draws), rng.uniform(-12.0, 12.0, draws)):
        t, q0 = float(t), float(q0)
        alpha = spectrum._f_alpha(system, phi, t, q0)[3]
        target = spectrum._log_odds(alpha, lo, hi)

        def plain(q):
            out = spectrum._f_alpha(system, phi, t, q, var=True)
            return out[3] - alpha, out[4]

        def log_odds(q):
            a, var = spectrum._f_alpha(system, phi, t, q, var=True)[3:]
            spread = (a - lo) * (hi - a)
            return (spectrum._log_odds(a, lo, hi) - target,
                    var * (hi - lo) / spread if spread > 0 else 0.0)

        for fn in (plain, log_odds):
            x, a, b = thermo._root(fn, -1.0, 1.0, (-700.0, 700.0), slope=True)
            width = 1e-15 + 4.0 * np.finfo(float).eps * abs(x)
            assert fn(a)[0] <= 0.0 <= fn(b)[0], (t, q0, fn.__name__)
            assert b - a <= width, (t, q0, fn.__name__)
            x0 = thermo._root(lambda q: fn(q)[0], -1.0, 1.0, (-700.0, 700.0))[0]
            span = 4.0 * np.finfo(float).eps * (1.0 + abs(x)) * max(abs(lo), abs(hi)) / plain(x)[1]
            assert abs(x - x0) <= width + span, (t, q0, fn.__name__)


@pytest.mark.parametrize("call", [
    lambda flat, chi1: ts.legendre_solve(flat, chi1, math.nan),
    lambda flat, chi1: ts.legendre_solve(ts.doubling_system(), chi1, math.nan),
    lambda flat, chi1: ts.flat_certificate(flat, chi1, math.nan),
    lambda flat, chi1: ts.legendre_solve(flat, chi1, 0.5, t_max=math.nan),
    lambda flat, chi1: ts.legendre_solve(flat, chi1, 0.5, t_max=math.inf),
    lambda flat, chi1: ts.legendre_solve(flat, chi1, 0.5, t_max=0.4),
    lambda flat, chi1: ts.legendre_solve(flat, chi1, 0.5, t_max=0.5),
    lambda flat, chi1: ts.legendre_solve(ts.doubling_system(), chi1, 0.3, t_max=0.0),
], ids=["nan-flat", "nan-doubling", "nan-certificate", "t_max-nan", "t_max-inf",
        "t_max-below-floor", "t_max-at-floor", "t_max-at-doubling-floor"])
def test_nan_level_and_bad_t_max_raise(flat, chi1, call):
    # a NaN level was solved as an interior row (flat: dim 0.5 with NaN
    # residuals; doubling: dim 0), and t_max = nan or 0.4 < s_inf gave a
    # "legendre" row at t = nan or 0.4
    with pytest.raises(ts.ModelError):
        call(flat, chi1)


@pytest.mark.parametrize("alpha, delta", [
    (math.inf, None), (-math.inf, None), (0.3, math.nan), (0.3, math.inf), (0.3, -math.inf),
], ids=["alpha-inf", "alpha-minus-inf", "delta-nan", "delta-inf", "delta-minus-inf"])
def test_flat_certificate_rejects_non_finite_inputs(flat, chi1, alpha, delta):
    # alpha = +-inf gave NaN values with the note "zero of the ... branch",
    # and delta = nan an infinite value "diverges at delta for every tilt"
    with pytest.raises(ts.ModelError, match="must be finite"):
        ts.flat_certificate(flat, chi1, alpha, delta)


def test_flat_interior_rises_above_floor(flat, chi1):
    pt = ts.legendre_solve(flat, chi1, 0.5)
    assert pt.regime == "legendre"
    assert pt.dim > 0.5 + 1e-3
    assert max(pt.residuals) <= 1e-10


def test_spectrum_curve_doubling_grid(chi1):
    curve = ts.spectrum_curve(ts.doubling_system(), chi1, np.linspace(0, 1, 5))
    assert len(curve.points) == 5
    alphas = [p.alpha for p in curve.points]
    assert alphas == sorted(alphas)
    assert curve.transitions["t_star"] == pytest.approx(1.0, abs=1e-10)
    assert curve.transitions["alpha_tilde"] == pytest.approx(0.5, abs=1e-12)
    # the tilt-free level coincides with the middle grid row and is annotated
    mid = curve.points[2]
    assert mid.alpha == 0.5
    assert "alpha-tilde" in mid.note


def test_spectrum_curve_off_grid_transition(chi1):
    curve = ts.spectrum_curve(ts.doubling_system(), chi1, np.linspace(0, 1, 4))
    # 0.5 is not on the grid, so the transition row is inserted
    assert len(curve.points) == 5
    assert any(p.alpha == pytest.approx(0.5, abs=1e-12) and "alpha-tilde" in p.note
               for p in curve.points)


def test_spectrum_curve_flat_transitions(flat, chi1):
    curve = ts.spectrum_curve(flat, chi1, np.linspace(0.0, 1.0, 9))
    tr = curve.transitions
    assert tr["alpha_lower"] == pytest.approx(ALPHA_LOWER, abs=1e-12)
    assert tr["alpha_upper"] == pytest.approx(ALPHA_UPPER, abs=1e-12)
    assert tr["alpha_tilde"] == pytest.approx(FLAT_ALPHA_TILDE, abs=1e-9)
    notes = " | ".join(p.note for p in curve.points)
    assert "flat window edge" in notes
    edge = [p for p in curve.points if abs(p.alpha - ALPHA_LOWER) < 1e-9]
    assert edge and edge[0].dim == pytest.approx(0.5, abs=1e-12)


def test_spectrum_curve_shape_increase_then_decrease(flat, chi1):
    grid = np.linspace(ALPHA_LOWER + 5e-3, ALPHA_UPPER - 5e-3, 13)
    curve = ts.spectrum_curve(flat, chi1, grid)
    dims = [p.dim for p in curve.points]
    alphas = [p.alpha for p in curve.points]
    peak = int(np.argmax(dims))
    assert all(b >= a - 1e-12 for a, b in zip(dims[:peak], dims[1:peak + 1]))
    assert all(b <= a + 1e-12 for a, b in zip(dims[peak:], dims[peak + 1:]))
    assert alphas[max(peak - 1, 0)] <= FLAT_ALPHA_TILDE <= alphas[min(peak + 1, len(dims) - 1)]


def test_spectrum_curve_survives_bad_point(chi1):
    g = ts.gauss_system()
    # interior levels on a nonlinear family are unsupported; rows say so
    curve = ts.spectrum_curve(g, ts.harmonic_potential(), [0.0, 0.5, 1.0])
    regimes = [p.regime for p in curve.points]
    assert regimes[0] == "endpoint" and regimes[-1] == "endpoint"
    assert regimes[1] == "error"
    assert curve.points[1].dim is None


_BRACKET_SYSTEMS = [
    ("doubling", ts.doubling_system()),
    ("half-quarter", ts.linear_system([0.5, 0.25])),
    ("flat", ts.flat_example_system()),
    ("invsq", ts.powerlog_system([], c=0.5, a=2.0)),
]


def _seeded_linear_systems(count, seed):
    # Dirichlet diameters scaled by U(0.3, 1), 2-8 branches
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 9))
        d = rng.dirichlet(np.ones(k)) * rng.uniform(0.3, 1.0)
        out.append((f"seeded{k}", ts.linear_system(d.tolist())))
    return out


def test_legendre_rows_lie_in_the_pressure_root_bracket(chi1):
    # no level set is larger than the repeller: every row at 9 levels lies
    # in [floor, t+], t+ the upper end of the certified pressure root, on
    # four named systems and 20 seeded finite linear ones
    legendre = 0
    for name, system in _BRACKET_SYSTEMS + _seeded_linear_systems(20, 3030):
        floor = thermo._t_floor(system)
        t_plus = ts.pressure_root(system).interval[1]
        for alpha in np.linspace(0.1, 0.9, 9):
            pt = ts.legendre_solve(system, chi1, float(alpha))
            if pt.regime not in ("legendre", "flat-floor"):
                continue
            legendre += pt.regime == "legendre"
            assert floor <= pt.t <= t_plus, (name, alpha, pt.t, t_plus)
    assert legendre >= 150


def test_legendre_doubling_rows_keep_their_bits(chi1):
    # criterion 3's 21 rows from the closed-form tilt of a two-valued
    # potential: dim, t, q and both residuals keep the recorded bits
    golden = json.loads((Path(__file__).parent / "golden" / "doubling_legendre_hexes.json").read_text())
    assert [row["alpha"] for row in golden] == np.linspace(0.05, 0.95, 21).tolist()
    for row in golden:
        pt = ts.legendre_solve(ts.doubling_system(), chi1, row["alpha"])
        got = {"dim": pt.dim.hex(), "t": pt.t.hex(), "q": pt.q.hex(),
               "resid1": pt.residuals[0].hex(), "resid2": pt.residuals[1].hex()}
        assert got == {k: row[k] for k in got}, row["alpha"]


def test_flat_rows_make_fewer_tail_brackets(flat, chi1):
    # the outer solve starts at [1/2, t+] with t+ = 0.5256, not [1/2, 1]:
    # the floor, t+ and their midpoint are shared by every row, so a row
    # builds at most 6 new tilted series (it built 6-7, 6.9 on average,
    # from [1/2, 1])
    fb = ts.flat_bounds(flat)
    levels = np.linspace(fb.alpha_lower, fb.alpha_upper, 51)[1:-1]
    ts.legendre_solve(flat, chi1, 0.5)
    misses = []
    for alpha in levels:
        before = thermo._series_groups.cache_info().misses
        assert ts.legendre_solve(flat, chi1, float(alpha)).regime == "legendre"
        misses.append(thermo._series_groups.cache_info().misses - before)
    assert max(misses) <= 6 and sum(misses) <= 5.5 * len(misses), misses


@pytest.mark.parametrize("model, alpha, t_max, dim", [
    ("flat", 0.5, 0.51, 0.52513), ("doubling", 0.3, 0.5, 0.8813)])
def test_row_above_t_max_raises(chi1, model, alpha, t_max, dim):
    # the outer solve cannot widen past t_max: the row came back as a
    # "legendre" row at t = t_max with residual 7.6e-2 (flat) or 0.26
    # (doubling); above t_max the row solves as before
    system = ts.flat_example_system() if model == "flat" else ts.doubling_system()
    with pytest.raises(ts.BracketError, match=rf"> 0 at t_max = {t_max}"):
        ts.legendre_solve(system, chi1, alpha, t_max=t_max)
    pt = ts.legendre_solve(system, chi1, alpha, t_max=dim + 0.01)
    assert pt.regime == "legendre" and pt.dim == pytest.approx(dim, abs=1e-4)
    assert max(pt.residuals) <= 1e-14


def test_t_max_above_the_root_is_only_the_widening_limit(flat, chi1):
    # the solve starts from [floor, min(t_max, t+)], so on flat_example any
    # t_max above t+ = 0.5256 gives the same row to the bit
    rows = [ts.legendre_solve(flat, chi1, 0.5, t_max=t_max) for t_max in (0.53, 1.0, 3.0)]
    assert rows[0] == rows[1] == rows[2]


def test_rows_of_a_system_without_a_pressure_root_below_1(chi1):
    # head 1/2 and tail c n^-2 summing to 1/2 + 5e-10 at t = 1: the packing
    # check's 1e-9 slack admits it, P(1) > 0, and the series root on
    # [floor, 1] raises.  Rows then start from [floor, t_max], and those
    # below t_max keep the bits they had before t+ bounded the search
    c = (0.5 + 5e-10) / (math.pi ** 2 / 6 - 1)
    system = ts.powerlog_system([0.5], c=c, a=2.0)
    assert 1.0 < ts.diam_series(system, 1.0)[0] <= 1.0 + 1e-9
    with pytest.raises(ts.BracketError):
        ts.pressure_root(system)
    for t_max in (1.0, 1.5):
        assert ts.legendre_solve(system, chi1, 0.3, t_max=t_max).dim.hex() == "0x1.eeef834457ee6p-1"
    assert ts.legendre_solve(system, chi1, 0.7).dim.hex() == "0x1.e3531a48e3079p-1"
    # at alpha = 0.5 the level set's dimension, 1 + 2.6e-10, lies above 1
    with pytest.raises(ts.BracketError, match="> 0 at t_max = 1.0"):
        ts.legendre_solve(system, chi1, 0.5)
    assert ts.legendre_solve(system, chi1, 0.5, t_max=1.5).dim == pytest.approx(1 + 2.6e-10, abs=1e-12)
    curve = ts.spectrum_curve(system, chi1, [0.3, 0.7])
    assert [p.regime for p in curve.points] == ["legendre", "legendre"]
    assert "does not straddle 0" in curve.transitions["note"]


def _reference_cases():
    # every named system and 20 seeded finite linear ones; chi3 only where
    # it is not the zero potential, harmonic where it has two values
    for name, system in _BRACKET_SYSTEMS + _seeded_linear_systems(20, 3030):
        infinite = system.tail is not None
        potentials = [ts.indicator_potential(k) for k in (1, 2, 3) if k < 3 or infinite]
        if system.branch_count() == 2:
            potentials.append(ts.harmonic_potential())
        for phi in potentials:
            yield name, system, phi


def test_closed_form_rows_match_the_nested_solve(monkeypatch):
    # the nested tilt solve is the reference for the closed form: the same
    # regime at 9 levels, and dims that differ by less than the outer
    # solve's closing width 1e-15 + 4 eps t, as both come from one _root
    # on g's that agree to rounding; on the named systems within 2 ulps
    rows = []
    for name, system, phi in _reference_cases():
        assert spectrum._two_values(system, phi) is not None, (name, phi)
        for alpha in np.linspace(0.1, 0.9, 9).tolist():
            rows.append((name, system, phi, alpha, ts.legendre_solve(system, phi, alpha)))
    monkeypatch.setattr(spectrum, "_two_values", lambda system, potential: None)
    legendre = 0
    for name, system, phi, alpha, closed in rows:
        nested = ts.legendre_solve(system, phi, alpha)
        key = (name, phi, alpha)
        assert closed.regime == nested.regime, key
        if closed.regime != "legendre":
            assert closed.dim == nested.dim, key
            continue
        legendre += 1
        gap = abs(closed.dim - nested.dim)
        assert gap <= 1e-15 + 4.0 * np.finfo(float).eps * closed.dim, key
        if not name.startswith("seeded"):
            assert gap <= 2.0 * np.spacing(closed.dim), key
    assert legendre >= 400


def test_closed_form_rows_on_the_doubling_map_and_invsq(chi1):
    # the doubling map's level sets have dimension H(alpha)/log 2 at the
    # tilt log(alpha/(1 - alpha)), which is 0.0 at alpha = 1/2
    sys2 = ts.doubling_system()
    for alpha in np.linspace(0.05, 0.95, 21).tolist() + [0.25, 0.75]:
        pt = ts.legendre_solve(sys2, chi1, alpha)
        a = mpmath.mpf(alpha)
        with mpmath.workdps(40):
            exact = -(a * mpmath.log(a) + (1 - a) * mpmath.log(1 - a)) / mpmath.log(2)
        assert abs(pt.dim - exact) <= 3.4e-16, alpha
    assert ts.legendre_solve(sys2, chi1, 0.5).q == 0.0
    pt = ts.legendre_solve(ts.powerlog_system([], c=0.5, a=2.0), chi1, 0.5)
    assert abs(pt.dim - 0.9027917639363893) <= 2.0 * np.spacing(0.9027917639363893)


def test_three_valued_rows_keep_their_bits():
    # harmonic on three branches takes the nested tilt solve
    system, harm = ts.linear_system([0.5, 0.25, 0.125]), ts.harmonic_potential()
    assert spectrum._two_values(system, harm) is None
    for alpha, dim in ((0.45, "0x1.0f191e23925d9p-1"), (0.6, "0x1.922c47901085bp-1"),
                       (0.8, "0x1.b87f75c23cc2dp-1")):
        assert ts.legendre_solve(system, harm, alpha).dim.hex() == dim, alpha


@pytest.mark.parametrize("potential", ["chi2", "harmonic"])
def test_spectrum_curve_flat_edges_only_for_chi1(flat, potential):
    # chi1's window edges were rows of every potential's curve, as
    # flat-floor rows of dim 1/2, though chi2 solves there as a legendre row
    phi = ts.indicator_potential(2) if potential == "chi2" else ts.harmonic_potential()
    curve = ts.spectrum_curve(flat, phi, [ALPHA_LOWER, 0.4])
    tr = curve.transitions
    assert "flat_note" in tr
    assert not {"alpha_lower", "alpha_upper", "q_minus", "q_plus"} & set(tr)
    assert not any("flat window edge" in p.note for p in curve.points)
    row = next(p for p in curve.points if p.alpha == ALPHA_LOWER)
    assert row == ts.legendre_solve(flat, phi, ALPHA_LOWER)
    if potential == "chi2":
        assert row.regime == "legendre" and row.dim > 0.52


@pytest.mark.parametrize("values", [{(1,): 1.0}, {(1,): 1.0, (2,): 0.0}])
def test_table_potential_has_no_tail_values(flat, values):
    # a finite table lists no digit of an infinite tail; {1: 1} gave its
    # tail the table's one value: an "endpoint" row of the whole repeller's
    # dimension at 1, an "empty" row and a witness at 0.3
    phi = ts.table_potential(1, values)
    for call in (lambda: ts.legendre_solve(flat, phi, 1.0),
                 lambda: ts.legendre_solve(flat, phi, 0.3),
                 lambda: ts.flat_certificate(flat, phi, 0.3)):
        with pytest.raises(ts.ModelError, match="lacks values"):
            call()
    # on a finite system the table lists every digit
    two, table = ts.linear_system([0.5, 0.25]), ts.table_potential(1, {(1,): 1.0, (2,): 0.0})
    assert ts.legendre_solve(two, table, 0.4).regime == "legendre"
