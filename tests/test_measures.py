"""Cylinder measures, ratio maximization and moment feasibility."""

import math

import numpy as np
import pytest

import thermospec as ts
from thermospec import measures

BE_QUARTER = 0.8112781244591328  # H(1/4) / log 2
GOLDEN_LYAP = 0.9624236501192069  # 2 log((1 + sqrt 5)/2)


def _bernoulli2(p1):
    return ts.CylinderMeasure(level=1, words=((1,), (2,)), weights=(p1, 1.0 - p1))


def test_cylinder_measure_validation():
    with pytest.raises(ts.InvalidMeasureError):
        ts.CylinderMeasure(level=1, words=((1,), (2,)), weights=(0.5, 0.6))
    with pytest.raises(ts.InvalidMeasureError):
        ts.CylinderMeasure(level=1, words=((1,), (2,)), weights=(1.0, 0.0))
    with pytest.raises(ts.InvalidMeasureError):
        ts.CylinderMeasure(level=2, words=((1,), (2,)), weights=(0.5, 0.5))


def test_stats_bernoulli_on_doubling():
    sys2 = ts.doubling_system()
    st = ts.stats(sys2, _bernoulli2(0.25), potentials=(ts.indicator_potential(1),))
    h_want = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert st.h == pytest.approx(h_want, abs=1e-15)
    assert st.lyapunov == pytest.approx(math.log(2.0), abs=1e-15)
    assert st.ratio == pytest.approx(BE_QUARTER, abs=1e-13)
    assert st.moments[0] == pytest.approx(0.25, abs=1e-15)


def test_stats_level2_measure():
    sys2 = ts.doubling_system()
    words = ((1, 1), (1, 2), (2, 1), (2, 2))
    mu = ts.CylinderMeasure(level=2, words=words, weights=(0.25,) * 4)
    st = ts.stats(sys2, mu)
    # per-step entropy of the uniform level-2 measure is log 2
    assert st.h == pytest.approx(math.log(2.0), abs=1e-14)
    assert st.lyapunov == pytest.approx(math.log(2.0), abs=1e-14)


def test_markov_entropy_below_bernoulli_marginal():
    # per-symbol entropy of a stationary pair measure never exceeds the
    # entropy of its one-dimensional marginal
    sys2 = ts.doubling_system()
    rng = np.random.default_rng(20240801)
    words = ((1, 1), (1, 2), (2, 1), (2, 2))
    for _ in range(50):
        P = rng.uniform(0.05, 1.0, size=(2, 2))
        P /= P.sum(axis=1, keepdims=True)
        # stationary row vector of the 2-state chain
        p1 = P[1, 0] / (P[0, 1] + P[1, 0])
        p = np.array([p1, 1.0 - p1])
        w = tuple((p[i] * P[i, j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        st_pair = ts.stats(sys2, ts.CylinderMeasure(level=2, words=words, weights=w))
        st_marg = ts.stats(sys2, _bernoulli2(p1))
        assert st_pair.h <= st_marg.h + 1e-12
        assert st_pair.lyapunov == pytest.approx(st_marg.lyapunov, abs=1e-12)


def test_golden_dirac_stats_exact():
    st = ts.golden_dirac_stats()
    assert st.h == 0.0
    assert st.ratio == 0.0
    assert st.lyapunov == pytest.approx(GOLDEN_LYAP, abs=1e-15)
    assert st.moments == (1.0,)


def _entropy(p):
    return -sum(x * math.log(x) for x in p)


def test_maximize_ratio_unconstrained_matches_moran():
    sysm = ts.linear_system((0.5, 0.25))
    mu, st = ts.maximize_ratio(sysm)
    assert st.ratio == pytest.approx(0.6942419136306174, abs=1e-12)
    assert sum(mu.weights) == pytest.approx(1.0, abs=1e-12)


def test_maximize_ratio_constrained_matches_entropy_curve():
    # on doubling the ratio is H(p_1)/log 2, so the box [0.2499, 0.2501]
    # is maximized at its upper edge
    sys2 = ts.doubling_system()
    chi1 = ts.indicator_potential(1)
    mu, st = ts.maximize_ratio(sys2, constraints=((chi1, 0.25, 1e-4),))
    assert st.ratio == pytest.approx(_entropy((0.2501, 0.7499)) / math.log(2.0), abs=1e-9)
    assert st.moments[0] == pytest.approx(0.2501, abs=1e-12)
    # chi1 + chi2 = 1, so both boxes start violated at the uniform weights,
    # but only chi2's lower edge 0.75 binds at the optimum
    chi2 = ts.indicator_potential(2)
    mu, st = ts.maximize_ratio(sys2, constraints=((chi1, 0.25, 0.05), (chi2, 0.775, 0.025)))
    assert st.ratio == pytest.approx(BE_QUARTER, abs=1e-9)
    assert st.moments[1] == pytest.approx(0.75, abs=1e-12)


def test_maximize_ratio_several_constraints_closed_form():
    # equal diameters make lambda = log 5 for every weight vector, so the
    # optimum is the entropy maximum over the boxes: digits 1 and 2 sit at
    # their lower edges and the remaining 0.35 spreads evenly over 3..5
    sys5 = ts.linear_system([0.2] * 5)
    chi = ts.indicator_potential
    cons = ((chi(1), 0.5, 0.1), (chi(2), 0.3, 0.05), (chi(3), 0.1, 0.05))
    mu, st = ts.maximize_ratio(sys5, constraints=cons)
    want = (0.4, 0.25, 0.35 / 3, 0.35 / 3, 0.35 / 3)
    assert st.ratio == pytest.approx(_entropy(want) / math.log(5.0), abs=1e-10)
    assert st.ratio == pytest.approx(0.9102817302, abs=1e-10)
    assert mu.words == ((1,), (2,), (3,), (4,), (5,))
    assert np.allclose(mu.weights, want, rtol=0.0, atol=1e-9)


def test_stats_hand_example_half_quarter():
    sysm = ts.linear_system((0.5, 0.25))
    st = ts.stats(sysm, _bernoulli2(0.5))
    assert st.h == pytest.approx(math.log(2.0), abs=1e-15)
    assert st.lyapunov == pytest.approx(1.5 * math.log(2.0), abs=1e-15)
    assert st.ratio == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_maximize_ratio_degenerate_constraint():
    # forcing the harmonic moment to 1 pins the measure near the Dirac on
    # digit 1, whose ratio is zero
    g = ts.gauss_system()
    mu, st = ts.maximize_ratio(g, constraints=((ts.harmonic_potential(), 1.0, 1e-4),),
                               q=2, n=1)
    assert st.moments[0] == pytest.approx(1.0, abs=2e-4)
    assert st.ratio <= 5e-3
    assert mu.weights[0] > 0.999


def test_maximize_ratio_monotone_in_truncation():
    g = ts.gauss_system()
    _, s1 = ts.maximize_ratio(g, q=4, n=1)
    _, s2 = ts.maximize_ratio(g, q=8, n=1)
    assert s2.ratio >= s1.ratio - 1e-12
    d = ts.doubling_system()
    _, t1 = ts.maximize_ratio(d, n=1)
    _, t2 = ts.maximize_ratio(d, n=2)
    assert t2.ratio >= t1.ratio - 1e-12


def test_maximize_ratio_infeasible_constraints():
    sys2 = ts.doubling_system()
    chi1 = ts.indicator_potential(1)
    chi2 = ts.indicator_potential(2)
    with pytest.raises(ts.InfeasibleConstraintsError):
        ts.maximize_ratio(sys2, constraints=((chi1, 0.8, 1e-3), (chi2, 0.8, 1e-3)))


def test_digit_frequency_full_vector_doubling():
    res = ts.digit_frequency_dimension(ts.doubling_system(), [0.25, 0.75])
    assert res.dimension == pytest.approx(BE_QUARTER, abs=1e-14)
    assert res.regime == "variational"
    assert res.s_inf == 0.0


def test_digit_frequency_deficit_floor():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.digit_frequency_dimension(inv, [0.5, 0.4])
    assert res.dimension == 0.5
    assert res.regime == "s_inf-floor"
    assert res.alpha3 is None


def test_digit_frequency_full_sum_on_tail_model():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.digit_frequency_dimension(inv, [0.6, 0.4])
    lam = -(0.6 * math.log(0.5) + 0.4 * math.log(0.5 * 0.25))
    hand = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4)) / lam
    assert res.dimension == pytest.approx(max(0.5, hand), abs=1e-14)
    assert res.regime == "variational"


def test_digit_frequency_dirac_vectors():
    res = ts.digit_frequency_dimension(ts.doubling_system(), [1.0, 0.0])
    assert res.dimension == 0.0
    assert res.regime == "variational"
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.digit_frequency_dimension(inv, [1.0])
    assert res.dimension == 0.5
    assert res.regime == "s_inf-floor"


def test_digit_frequency_partial_matches_full():
    sys2 = ts.doubling_system()
    full = ts.digit_frequency_dimension(sys2, [0.25, 0.75])
    part = ts.digit_frequency_dimension(sys2, [0.25], mode="partial")
    assert part.regime == "variational"
    # partial mode maximizes over p_1 in [0.25 - 1e-6, 0.25 + 1e-6], whose
    # upper edge beats the closed form by log2(3) * 1e-6 to first order
    assert full.dimension <= part.dimension <= full.dimension + 2e-6


def test_digit_frequency_degenerate_vectors():
    sys2 = ts.doubling_system()
    # total mass above one, or a deficit with no escaping digits: empty set
    assert ts.digit_frequency_dimension(sys2, [0.5, 0.6]).regime == "empty"
    assert ts.digit_frequency_dimension(sys2, [0.5, 0.3]).regime == "empty"
    assert ts.digit_frequency_dimension(sys2, [0.5, 0.6]).dimension is None
    with pytest.raises(ts.ThermospecError):
        ts.digit_frequency_dimension(sys2, [-0.1, 0.5])


def test_feasible_reports_witness():
    g = ts.gauss_system()
    rep = ts.feasible(g, [0.6], q=50)
    assert rep.verdict == "feasible-with-witness"
    assert rep.max_violation <= 1e-9
    assert rep.moments[0] == pytest.approx(0.6, abs=2e-6)
    assert rep.witness is not None
    assert sum(rep.witness.weights) == pytest.approx(1.0, abs=1e-12)
    # the witness is the maximum-entropy vector: digit 1 carries 0.6 and the
    # other 49 digits share the rest evenly
    assert len(rep.witness.words) == 50
    assert np.allclose(rep.witness.weights, [0.6] + [0.4 / 49] * 49, rtol=0.0, atol=1e-12)


def test_feasible_detects_unreachable_moment():
    g = ts.gauss_system()
    rep = ts.feasible(g, [1.5], q=30)
    assert rep.verdict.startswith("infeasible")
    assert rep.max_violation > 0
    assert rep.witness is None


def test_feasible_custom_potentials():
    g = ts.gauss_system()
    rep = ts.feasible(g, [0.9], q=40, potentials=(ts.harmonic_potential(),))
    assert rep.verdict == "feasible-with-witness"
    assert rep.moments[0] == pytest.approx(0.9, abs=1e-5)


def test_projection_failure_is_not_an_empty_set(monkeypatch):
    # a NaN start drives the real projection into its failure path; only the
    # feasibility LP may call a level set empty
    real = measures._project_box
    monkeypatch.setattr(measures, "_project_box",
                        lambda p, A, lo, hi: real(np.full_like(p, np.nan), A, lo, hi))
    with pytest.raises(ts.UndeterminedError):
        ts.digit_frequency_dimension(ts.doubling_system(), [0.25, 0.745],
                                     mode="partial", eps=0.01)
    rep = ts.feasible(ts.gauss_system(), [0.6], q=50)
    assert rep.verdict == "feasible-with-witness"
    assert rep.witness.words == ((1,), (2,))  # the LP vertex
    assert rep.moments[0] == pytest.approx(0.6, abs=1e-12)


def test_mixture_affine_combination_exact():
    a = ts.MeasureStats(h=0.3, lyapunov=1.0, ratio=0.3, moments=(0.2,))
    b = ts.MeasureStats(h=0.0, lyapunov=2.0, ratio=0.0, moments=(1.0,))
    res = ts.mixture_lower_bound(a, b, [0.25])
    assert res.p == 0.25
    assert res.stats.h == pytest.approx(0.25 * 0.3, abs=1e-14)
    assert res.stats.lyapunov == pytest.approx(0.25 * 1.0 + 0.75 * 2.0, abs=1e-14)
    assert res.stats.moments[0] == pytest.approx(0.25 * 0.2 + 0.75 * 1.0, abs=1e-14)
    assert res.stats.ratio == pytest.approx(0.075 / 1.75, abs=1e-14)


def test_mixture_picks_best_weight():
    a = ts.MeasureStats(h=0.5, lyapunov=1.0, ratio=0.5, moments=())
    b = ts.MeasureStats(h=0.0, lyapunov=0.5, ratio=0.0, moments=())
    res = ts.mixture_lower_bound([a], b, np.linspace(0.0, 1.0, 11))
    assert res.p == 1.0  # pure a maximizes h / lyapunov
    assert res.base_index == 0


def test_mixture_rejects_bad_weights():
    a = ts.golden_dirac_stats()
    with pytest.raises(ts.ModelError):
        ts.mixture_lower_bound(a, a, [1.5])
    with pytest.raises(ts.ModelError):
        ts.mixture_lower_bound(a, a, [])


def test_sequence_lower_bound_takes_supremum():
    seq = [ts.MeasureStats(h=r, lyapunov=1.0, ratio=r, moments=())
           for r in (0.2, 0.45, 0.4)]
    assert ts.sequence_lower_bound(seq) == pytest.approx(0.45)


def test_entropy_never_exceeds_lyapunov_random():
    rng = np.random.default_rng(20240801)
    sys2 = ts.doubling_system()
    g8 = ts.truncate(ts.gauss_system(), 8)
    for _ in range(200):
        level = int(rng.integers(1, 3))
        sysm = sys2 if rng.random() < 0.5 else g8
        q = sysm.branch_count()
        words = [tuple(int(d) for d in rng.integers(1, q + 1, size=level))
                 for _ in range(int(rng.integers(2, 6)))]
        words = sorted(set(words))
        if len(words) < 2:
            continue
        w = rng.random(len(words)) + 1e-3
        w /= w.sum()
        mu = ts.CylinderMeasure(level=level, words=tuple(words), weights=tuple(w))
        st = ts.stats(sysm, mu)
        assert st.h <= st.lyapunov + 1e-12
