"""Legendre solver, flat-window bounds and spectrum curves."""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

import thermospec as ts
from thermospec import spectrum
from thermospec.spectrum import _logsumexp

BE_QUARTER = 0.8112781244591328  # H(1/4) / log 2
# flat family with K = 0.55, C = 0.6: window edges and tilt roots
ALPHA_LOWER = 0.2226131530056198
ALPHA_UPPER = 0.738087685404822
Q_MINUS = -0.3184537311185346   # log((1 - C)/K)
Q_PLUS = 0.28768207245178085    # log(C/(1 - K))
FLAT_ALPHA_TILDE = 0.533416185742672


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
    for a in cases:
        assert _bits(_logsumexp(a)) == _bits(logsumexp(a)), a


def test_root_helper_widens_and_clamps():
    root = spectrum._root
    assert root(lambda x: x - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-15)
    assert root(lambda x: x - 123.4, -1.0, 1.0, (-700.0, 700.0)) == pytest.approx(123.4, rel=1e-15)
    assert root(lambda x: x + 1000.0, -1.0, 1.0, (-700.0, 700.0)) == -700.0
    assert root(lambda x: x - 1000.0, -1.0, 1.0, (-700.0, 700.0)) == 700.0
    assert root(lambda x: x - 2.0, 0.0, 1.0) == 1.0  # no widening without limits
    with pytest.raises(ts.ModelError):
        spectrum._monotone_zero(lambda q: 1.0, increasing=True)


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
    pt = ts.legendre_solve(ts.doubling_system(), chi1, 1.2)
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


def test_flat_bounds_closed_forms(flat):
    fb = ts.flat_bounds(flat)
    assert fb.q_minus == pytest.approx(math.log(0.4 / 0.55), abs=1e-12)
    assert fb.q_plus == pytest.approx(math.log(0.6 / 0.45), abs=1e-12)


def test_flat_bounds_needs_flat_family(chi1):
    with pytest.raises(ts.ModelError):
        ts.flat_bounds(ts.doubling_system())


def test_flat_certificate_attained_endpoints(flat, chi1):
    top = ts.flat_certificate(flat, chi1, 1.0)
    assert top.witness
    assert top.qhat == pytest.approx(Q_PLUS, abs=1e-6)
    assert abs(0.5 * (top.value_lo + top.value_hi)) <= 1e-6
    bot = ts.flat_certificate(flat, chi1, 0.0)
    assert bot.witness
    assert bot.qhat == pytest.approx(Q_MINUS, abs=1e-6)


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


@pytest.mark.parametrize("model, alpha, max_t, max_calls", [
    ("flat", 0.3, 12, 300), ("flat", 0.5, 12, 300), ("doubling", 0.3, 8, 300)])
def test_legendre_row_evaluation_count(monkeypatch, chi1, model, alpha, max_t, max_calls):
    # counts tilted-series work per row rather than timing it: one fresh
    # series build per distinct t, one _f_alpha call per root-solver step
    system = ts.flat_example_system() if model == "flat" else ts.doubling_system()
    spectrum._series_groups.cache_clear()
    seen = []
    real = spectrum._f_alpha

    def counting(system, potential, t, qhat, family="diam"):
        seen.append(t)
        return real(system, potential, t, qhat, family)

    monkeypatch.setattr(spectrum, "_f_alpha", counting)
    pt = ts.legendre_solve(system, chi1, alpha)
    assert pt.regime == "legendre"
    assert len(set(seen)) <= max_t
    assert len(seen) <= max_calls


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
