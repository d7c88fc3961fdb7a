"""Cylinder measures, ratio maximization and moment feasibility."""

import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import thermospec as ts
from thermospec import measures

BE_QUARTER = 0.8112781244591328  # H(1/4) / log 2
GOLDEN_LYAP = 0.9624236501192069  # 2 log((1 + sqrt 5)/2)
PROJECTION_DIGEST = "6605fa01867bc16585b19995dd81b5504f6b94cb876f01f32c25692097104fe2"
OP_DIGESTS = {
    "ratio[golden]": "2d85049907c5e1f02b3b927f197e29108b188c37145afa8ca606265b09e6a1a1",
    "ratio[g8,harmonic]": "35e162f44037f4f750478b4c8ee9aced654900b616a64004b868fe03dfad97ac",
    "freq_dim[0.3,0.2]": "2ab963e943fe429bc5e1dda904a6b7dd09f28031f04e6f063e7342f57162da12",
    "feasible[0.6]": "51c6708169d4b7686c7e6f8394616376449d66105f35ca59c0158ad7a7bca26b",
}


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


def test_stats_large_digit_lyapunov_exact():
    # -log of the exact continued-fraction cylinder; the measure's own words
    # have endpoint differences that cancel every digit in floating point
    g = ts.gauss_system()
    words = ((50, 50, 50), (200,) * 3, (10 ** 4,) * 3)
    lam = [-math.log(ts.cf_cylinder_diameter_exact(w)) / 3 for w in words]
    st = ts.stats(g, ts.CylinderMeasure(3, words[:1], (1.0,)))
    assert st.lyapunov == pytest.approx(7.831177394435905, rel=1e-15)
    st = ts.stats(g, ts.CylinderMeasure(3, words, (0.5, 0.25, 0.25)))
    want = 0.5 * lam[0] + 0.25 * (lam[1] + lam[2])
    assert st.lyapunov == pytest.approx(want, rel=1e-14)
    assert st.ratio == pytest.approx(_entropy([0.5, 0.25, 0.25]) / 3 / want, rel=1e-14)


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


def test_maximize_ratio_doubling_levels_keep_their_bits():
    # criterion 3's 21 levels: both Dinkelbach steps project the uniform
    # weights, the second from the first one's dual, which passes the
    # gradient test at once; h, lambda, the ratio and the weights keep the
    # bits recorded before the second step was warm-started
    golden = json.loads((Path(__file__).parent / "golden" / "doubling_ratio_hexes.json").read_text())
    sys2, chi1 = ts.doubling_system(), ts.indicator_potential(1)
    assert [row["alpha"] for row in golden] == np.linspace(0.05, 0.95, 21).tolist()
    for row in golden:
        mu, st = ts.maximize_ratio(sys2, constraints=((chi1, row["alpha"], 1e-4),))
        assert mu.words == ((1,), (2,))
        got = {"h": st.h.hex(), "lyapunov": st.lyapunov.hex(), "ratio": st.ratio.hex(),
               "weights": [w.hex() for w in mu.weights]}
        assert got == {k: row[k] for k in got}, row["alpha"]


def test_projection_restarted_from_its_dual_returns_the_same_weights():
    # every witness of the seeded box sweep, projected again from its own
    # returned theta: no Newton step is taken, so x and theta keep their bits
    witnesses = 0
    for A, lo, hi in _box_problems(200, seed=0):
        p = np.full(A.shape[1], 1.0 / A.shape[1])
        try:
            x, theta = measures._project_box(p, A, lo, hi)
        except measures._ProjectionFailed:
            continue
        witnesses += 1
        again, dual = measures._project_box(p, A, lo, hi, theta)
        assert again.tobytes() == x.tobytes() and dual.tobytes() == theta.tobytes()
    assert witnesses >= 80


def test_warm_started_gauss_maximizations_match_the_cold_ones():
    # values of the cold-started solves: the warm start moves them by
    # rounding only, and the moments stay in their boxes (the recomputed
    # moments round differently from the projection's)
    g = ts.gauss_system()
    cons = ((ts.harmonic_potential(), 0.5, 1e-3),)
    _, st = ts.maximize_ratio(ts.truncate(g, 8), cons, q=8, n=2)
    assert abs(st.ratio - 0.8640266980055091) <= 1e-14
    assert 0.5 - 1e-3 - 1e-12 <= st.moments[0] <= 0.5 + 1e-3 + 1e-12
    r = ts.digit_frequency_dimension(g, [0.3, 0.2], mode="partial")
    assert abs(r.dimension - 0.9208984135738049) <= 1e-14
    cons = tuple((ts.indicator_potential(i + 1), f, 1e-6) for i, f in enumerate((0.3, 0.2)))
    _, st = ts.maximize_ratio(g, cons, q=16)
    assert st.ratio == r.alpha3
    for (_, gam, eps), m in zip(cons, st.moments):
        assert gam - eps - 1e-12 <= m <= gam + eps + 1e-12


@pytest.mark.parametrize("model, q, n", [
    ("doubling", 2, 0), ("doubling", 2, -1), ("gauss", 0, 1), ("gauss", -3, 2),
])
def test_maximize_ratio_rejects_empty_truncations(model, q, n):
    # n = 0 and n = -1 raised numpy's ValueError; q = 0 warned of a 0/0 and
    # then raised InvalidMeasureError about an empty word list
    system = ts.doubling_system() if model == "doubling" else ts.gauss_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ts.ModelError, match="truncation q and level n must be >= 1"):
            ts.maximize_ratio(system, q=q, n=n)


@pytest.mark.parametrize("model, q, n", [
    ("doubling", 2, 0), ("gauss", None, -1), ("gauss", 0, 1), ("gauss", -3, 2),
])
def test_feasible_rejects_empty_truncations(model, q, n):
    # n = -1 raised numpy's "negative dimensions" ValueError
    system = ts.doubling_system() if model == "doubling" else ts.gauss_system()
    with pytest.raises(ts.ModelError, match="truncation q and level n must be >= 1"):
        ts.feasible(system, [0.3], q=q, n=n)


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


def test_point_masses_have_positive_zero_entropy():
    # -(p log p) summed over zero terms is -0.0; a point mass reports +0.0
    sys2, chi1 = ts.doubling_system(), ts.indicator_potential(1)
    _, st = ts.maximize_ratio(sys2, ((chi1, 1.0, 0.0),), q=1)
    dirac = ts.stats(sys2, ts.CylinderMeasure(1, ((2,),), (1.0,)))
    full = [ts.digit_frequency_dimension(sys2, f).alpha3 for f in ([1.0, 0.0], [0.0, 1.0])]
    zeros = [st.h, st.ratio, dirac.h, dirac.ratio, *full,
             measures._ratio_of(np.array([1.0, 0.0]), np.array([-1.0, -2.0]))]
    assert [math.copysign(1.0, z) for z in zeros] == [1.0] * len(zeros), zeros
    assert zeros == [0.0] * len(zeros)


def test_results_hold_plain_floats():
    # weights, gamma and moments are Python floats, as MeasureStats' are
    g, harm = ts.gauss_system(), ts.harmonic_potential()
    mu, st = ts.maximize_ratio(ts.truncate(g, 8), ((harm, 0.5, 1e-3),), q=8, n=2)
    rep = ts.feasible(g, (0.6,), eps=1e-6, q=50, potentials=(harm,))
    bad = ts.feasible(g, [1.5], q=30)
    values = [*mu.weights, st.h, st.lyapunov, st.ratio, *st.moments, *rep.gamma,
              *rep.witness.weights, *rep.moments, rep.max_violation, *bad.gamma]
    assert {type(x) for x in values} == {float}


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


def test_feasible_is_silent_on_an_unreachable_box():
    # digit frequencies 0.2 and 0.3 of the doubling map cannot sum to 1; the
    # Armijo steps of the box projection move nearly all the weight on the
    # way there, where the log1p form of their change would meet log1p(-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = ts.feasible(ts.doubling_system(), (0.2, 0.3), eps=0.01)
    assert rep.verdict == "infeasible-at-truncation"
    assert rep.max_violation == pytest.approx(0.25, abs=1e-9)
    assert rep.witness is None


def test_feasible_custom_potentials():
    g = ts.gauss_system()
    rep = ts.feasible(g, [0.9], q=40, potentials=(ts.harmonic_potential(),))
    assert rep.verdict == "feasible-with-witness"
    assert rep.moments[0] == pytest.approx(0.9, abs=1e-5)


def test_projection_failure_is_not_an_empty_set(monkeypatch):
    # a NaN start drives the real projection into its failure path, with no
    # dual direction to certify anything: it is undetermined, never "empty"
    real = measures._project_box
    monkeypatch.setattr(measures, "_project_box",
                        lambda p, A, lo, hi, theta=None: real(np.full_like(p, np.nan), A, lo, hi, theta))
    with pytest.raises(ts.UndeterminedError):
        ts.digit_frequency_dimension(ts.doubling_system(), [0.25, 0.745],
                                     mode="partial", eps=0.01)
    with pytest.raises(ts.UndeterminedError):
        ts.feasible(ts.gauss_system(), [0.6], q=50)


def _exact_distance(d, A, lo, hi):
    """(d.c - w.|d| - max_w (A^T d)_w) / |d|_1 in exact rational arithmetic,
    c and w being the centres and half-widths of the boxes [lo, hi]."""
    d = [Fraction(float(v)) for v in d]
    lo, hi = [Fraction(float(v)) for v in lo], [Fraction(float(v)) for v in hi]
    inner = sum(di * (l + h) / 2 - abs(di) * (h - l) / 2 for di, l, h in zip(d, lo, hi))
    reach = max(sum(di * Fraction(float(a)) for di, a in zip(d, col)) for col in zip(*A))
    return (inner - reach) / sum(abs(di) for di in d)


def test_infeasible_verdicts_carry_a_checked_certificate(monkeypatch):
    # a projection inside the boxes is the witness; boxes that cannot be met
    # are refuted by the projection's own dual direction d, whose distance is
    # re-checked here in exact arithmetic over the words' moment vectors
    sys2 = ts.doubling_system()
    chi1, chi2 = ts.indicator_potential(1), ts.indicator_potential(2)
    _, st = ts.maximize_ratio(sys2, constraints=((chi1, 0.25, 1e-6),))
    assert st.ratio == pytest.approx(BE_QUARTER, abs=1e-5)

    with pytest.raises(ts.InfeasibleConstraintsError, match="violation 0.5") as info:
        ts.maximize_ratio(sys2, constraints=((chi1, 1.5, 0.0),))
    assert info.value.distance == 0.5
    assert _exact_distance(info.value.direction, [[1.0, 0.0]], [1.5], [1.5]) == 0.5

    with pytest.raises(ts.InfeasibleConstraintsError, match="violation 0.299") as info:
        ts.maximize_ratio(sys2, constraints=((chi1, 0.8, 1e-3), (chi2, 0.8, 1e-3)))
    exact = _exact_distance(info.value.direction, [[1.0, 0.0], [0.0, 1.0]],
                            [0.8 - 1e-3] * 2, [0.8 + 1e-3] * 2)
    assert exact > 0 and abs(exact - Fraction(info.value.distance)) <= 1e-15

    # the harmonic moment 1/a_1 of the Gauss digits is at most 1
    g = ts.gauss_system()
    rows = [[1.0 / m for m in range(1, 31)]]
    with pytest.raises(ts.InfeasibleConstraintsError) as info:
        ts.maximize_ratio(g, constraints=((ts.harmonic_potential(), 1.5, 0.0),), q=30)
    assert _exact_distance(info.value.direction, rows, [1.5], [1.5]) == info.value.distance == 0.5

    rep = ts.feasible(g, [1.5], q=30)
    assert rep.verdict == "infeasible-at-truncation"
    assert rep.max_violation == 0.5
    assert rep.witness is None and rep.moments == ()

    # a projection that fails without dual iterates decides nothing
    def failing(p, A, lo, hi, theta=None):
        raise ts.UndeterminedError("constraint projection did not converge")

    monkeypatch.setattr(measures, "_project_box", failing)
    for gamma in (0.25, 1.5):
        with pytest.raises(ts.UndeterminedError):
            ts.maximize_ratio(sys2, constraints=((chi1, gamma, 0.0),))


def _lp_violations(problems):
    """Least t_j with lo_j - t_j <= A_j x_j <= hi_j + t_j for weights x_j,
    for every box problem (A_j, lo_j, hi_j), from one scipy LP: the blocks
    share no variable, so minimising the sum of the t_j minimises each."""
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    ub, eq, b_ub, cost, bounds = [], [], [], [], []
    for A, lo, hi in problems:
        k, n = A.shape
        slack = -np.ones((k, 1))
        ub.append(np.block([[A, slack], [-A, slack]]))
        b_ub.append(np.concatenate([hi, -lo]))
        eq.append(np.append(np.ones(n), 0.0)[None])
        cost.append(np.append(np.zeros(n), 1.0))
        bounds += [(0, 1)] * n + [(0, None)]
    res = linprog(np.concatenate(cost), A_ub=block_diag(ub, format="csr"),
                  b_ub=np.concatenate(b_ub), A_eq=block_diag(eq, format="csr"),
                  b_eq=np.ones(len(problems)), bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res.x[np.cumsum([A.shape[1] + 1 for A, _, _ in problems]) - 1]


def _box_problems(count, seed):
    """Seeded moment boxes over 2-50 words with 1-3 rows each: a digit
    indicator, the harmonic row 1/m or a uniform row in [0, 1].  Each box
    is centred on the moments of a random weight vector, and about half are
    then pushed off it by up to twice the rows' range."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 51))
        rows = []
        for kind in rng.integers(0, 3, size=k):
            if kind == 0:
                rows.append(np.eye(n)[rng.integers(0, n)])
            elif kind == 1:
                rows.append(1.0 / np.arange(1, n + 1))
            else:
                rows.append(rng.random(n))
        A = np.vstack(rows)
        gam = A @ rng.dirichlet(np.full(n, 0.5))
        if rng.random() < 0.5:
            gam += rng.choice([-1.0, 1.0], size=k) * rng.uniform(0, 1.2, size=k) * (1 + rng.random())
        eps = 0.0 if rng.random() < 0.3 else float(10 ** rng.uniform(-6, -1))
        yield A, gam - eps, gam + eps


def test_box_verdicts_agree_with_an_lp_reference():
    # scipy's LP is the reference here only; the package does not use it.
    # Every box the LP can meet gets a witness, and every box it misses by
    # more than 1e-6 a certificate no stronger than the LP's violation
    problems = list(_box_problems(200, seed=0))
    verdicts = {"witness": 0, "infeasible": 0, "undetermined": 0}
    for (A, lo, hi), v in zip(problems, _lp_violations(problems)):
        try:
            x, _ = measures._feasible_projection(np.full(A.shape[1], 1.0 / A.shape[1]), A, lo, hi)
        except ts.InfeasibleConstraintsError as exc:
            verdicts["infeasible"] += 1
            assert v > 1e-9 and exc.distance <= v + 1e-12, (v, exc.distance)
        except ts.UndeterminedError:
            verdicts["undetermined"] += 1
            assert 1e-9 < v <= 1e-6, v
        else:
            verdicts["witness"] += 1
            m = A @ x
            assert v <= 1e-9 and np.all(m >= lo - 1e-9) and np.all(m <= hi + 1e-9), v
            assert abs(x.sum() - 1.0) <= 1e-12 and np.all(x >= 0)
    assert verdicts["infeasible"] >= 80 and verdicts["witness"] >= 80, verdicts


def test_projection_ends_once_its_separating_step_repeats():
    # a capped step that repeats to rounding ends the solve and is handed
    # over.  Of the sweep's 35 infeasible boxes that ran all 100 Newton
    # iterations while their step settled only in its last bits, 17 now
    # end within 7; the others' steps still drift by 1.5e-12 to 1.5e-5
    full = 0
    for A, lo, hi in _box_problems(200, seed=0):
        try:
            measures._project_box(np.full(A.shape[1], 1.0 / A.shape[1]), A, lo, hi)
        except measures._ProjectionFailed as failure:
            full += len(failure.thetas) > 100
    assert full <= 18


def _short_box_problems(count, seed):
    """Seeded boxes over 2-7 words (the logits' short-list path) with 1-3
    uniform rows, about half of them equality rows, from random weights p;
    about a third are pushed off the moments of random weights."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 8))
        A = rng.random((k, n))
        gam = A @ rng.dirichlet(np.ones(n))
        if rng.random() < 0.3:
            gam += rng.choice([-1.0, 1.0], size=k) * rng.uniform(0, 0.5, size=k)
        eps = np.where(rng.random(k) < 0.5, 0.0, 10 ** rng.uniform(-6, -1, size=k))
        yield rng.dirichlet(np.ones(n)), A, gam - eps, gam + eps


def _hexes(value):
    """Floats as hex strings, inside tuples, lists and frozen values."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_hexes(v) for v in value]
    if hasattr(value, "_fields"):
        return {k: _hexes(getattr(value, k)) for k in value._fields}
    return value


def test_projections_and_ratio_ops_keep_their_bits():
    # sha256 digests recorded before the dual's row quantities moved to
    # Python floats: (x, theta) of every witness, the message and every
    # theta of every failure, and the hex outputs of the ratio_max ops
    # other than the doubling levels (doubling_ratio_hexes.json has those)
    digest = hashlib.sha256()
    uniform = ((np.full(A.shape[1], 1.0 / A.shape[1]), A, lo, hi)
               for A, lo, hi in _box_problems(200, seed=0))
    for p, A, lo, hi in itertools.chain(uniform, _short_box_problems(300, seed=5)):
        try:
            x, theta = measures._project_box(p, A, lo, hi)
            digest.update(x.tobytes() + theta.tobytes())
        except measures._ProjectionFailed as failure:
            digest.update(str(failure).encode())
            for theta in failure.thetas:
                digest.update(theta.tobytes())
    assert digest.hexdigest() == PROJECTION_DIGEST

    g, harm = ts.gauss_system(), ts.harmonic_potential()
    ops = {
        "ratio[golden]": lambda: ts.maximize_ratio(ts.linear_system([0.5, 0.25])),
        "ratio[g8,harmonic]": lambda: ts.maximize_ratio(ts.truncate(g, 8), ((harm, 0.5, 1e-3),),
                                                        q=8, n=2),
        "freq_dim[0.3,0.2]": lambda: ts.digit_frequency_dimension(g, [0.3, 0.2], mode="partial"),
        "feasible[0.6]": lambda: ts.feasible(g, (0.6,), eps=1e-6, q=50, potentials=(harm,)),
    }
    got = {name: hashlib.sha256(json.dumps(_hexes(op())).encode()).hexdigest()
           for name, op in ops.items()}
    assert got == OP_DIGESTS


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_targets_and_tolerances_raise(bad):
    # each ran on into "constraint projection diverged"
    d, g = ts.doubling_system(), ts.gauss_system()
    chi1 = ts.indicator_potential(1)
    with pytest.raises(ts.ModelError, match=f"gamma must be finite, got \\[0.2, {bad}\\]"):
        ts.feasible(g, [0.2, bad], q=5)
    with pytest.raises(ts.ModelError, match="eps must be >= 0, got nan"):
        ts.feasible(g, [0.2], eps=math.nan, q=5)
    for gamma, eps in ((bad, 1e-3), (0.3, bad)):
        with pytest.raises(ts.ModelError, match="constraint gamma and eps must be finite"):
            ts.maximize_ratio(d, ((chi1, gamma, eps),))


@pytest.mark.parametrize("eps", [math.inf, -math.inf])
def test_feasible_rejects_an_infinite_eps(eps):
    # eps = inf made the box centres NaN: numpy warned "invalid value
    # encountered in add" and the uniform weights came back as a witness
    g = ts.gauss_system()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ts.ModelError, match=f"eps must be (finite|>= 0), got {eps}"):
            ts.feasible(g, [1.5], eps=eps, q=30)


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


_PROPERTY_SYSTEMS = {
    "doubling": ts.doubling_system(),
    "powerlog": ts.powerlog_system([0.25], c=0.1, a=2.0),
    "gauss6": ts.truncate(ts.gauss_system(), 6),
}


@st.composite
def _potential_measure_cases(draw):
    name = draw(st.sampled_from(sorted(_PROPERTY_SYSTEMS)))
    k = 2 if name == "doubling" else draw(st.integers(2, 6))  # measure alphabet
    kind = draw(st.sampled_from(("indicator", "harmonic", "constant", "table", "log_deriv")))
    if kind == "indicator":
        pot = ts.indicator_potential(draw(st.integers(1, k + 1)))
    elif kind == "harmonic":
        pot = ts.harmonic_potential()
    elif kind == "constant":
        pot = ts.constant_potential(draw(st.floats(-5.0, 5.0)))
    elif kind == "table":
        m = draw(st.integers(1, 2))
        pot = ts.table_potential(m, {w: draw(st.floats(-3.0, 3.0))
                                     for w in itertools.product(range(1, k + 1), repeat=m)})
    else:
        pot = ts.log_deriv_potential()
    n = draw(st.integers(pot.level, 3))
    words = draw(st.lists(st.tuples(*[st.integers(1, k)] * n), min_size=1, max_size=6,
                          unique=True))
    raw = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(words),
                                 max_size=len(words))))
    mu = ts.CylinderMeasure(level=n, words=tuple(words), weights=tuple(raw / raw.sum()))
    return _PROPERTY_SYSTEMS[name], pot, mu


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_potential_measure_cases())
def test_moments_match_per_word_birkhoff_sums(case):
    # stats sums through Potential.birkhoff_sums; birkhoff_sum is the
    # per-word path (periodic_points for log|T'| on the Gauss truncation)
    sysm, pot, mu = case
    moment = ts.stats(sysm, mu, (pot,)).moments[0]
    terms = [p * ts.birkhoff_sum(sysm, pot, w) / mu.level
             for w, p in zip(mu.words, mu.weights)]
    analytic = pot == ts.log_deriv_potential() and not ts.is_linear(sysm)
    tol = 1e-13 if analytic else 1e-14
    assert abs(moment - sum(terms)) <= tol * sum(abs(x) for x in terms)
    assert ts.load_potential(ts.dump_potential(pot)) == pot
    assert ts.load_potential(json.dumps(ts.dump_potential(pot))) == pot


def test_level1_moments_on_large_digits_use_word_sized_memory():
    # level-1 values are taken on the words' digits only, not on every
    # branch up to the largest digit (240 MB for this one-digit word)
    mu = ts.CylinderMeasure(level=1, words=((10**7,),), weights=(1.0,))
    tracemalloc.start()
    try:
        moments = ts.stats(ts.gauss_system(), mu, (ts.harmonic_potential(),)).moments
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moments == (1e-7,)
    assert peak < 5_000_000


@pytest.mark.parametrize("potentials", [(), (ts.log_deriv_potential(),),
                                        (ts.harmonic_potential(),)],
                         ids=["none", "log_deriv", "harmonic"])
def test_linear_cylinder_diameters_on_large_digits_use_word_sized_memory(potentials):
    # diameters of an infinite linear system are taken on the words' digits
    # only, not on every branch up to the largest digit (40 MB here)
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    mu = ts.CylinderMeasure(level=1, words=((10**6,),), weights=(1.0,))
    tracemalloc.start()
    try:
        st_ = ts.stats(inv, mu, potentials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert st_.lyapunov == pytest.approx(math.log(2.0) + 12.0 * math.log(10.0), rel=1e-15)
    if potentials == (ts.log_deriv_potential(),):
        assert st_.moments == (st_.lyapunov,)


def test_table_moments_on_large_digits_use_table_sized_memory():
    # windows are matched against the table's keys, so the work does not
    # grow with (largest digit)^level: a dense lookup here would need 80 GB
    g = ts.gauss_system()
    big = ts.CylinderMeasure(level=2, words=((10**5, 10**5),), weights=(1.0,))
    pot = ts.table_potential(2, {(10**5, 10**5): 1.0})
    assert ts.stats(g, big, (pot,)).moments == (1.0,)
    mu = ts.CylinderMeasure(level=3, words=((2000, 1, 2000), (1, 1, 1)), weights=(0.25, 0.75))
    pot3 = ts.table_potential(3, {(2000, 1, 2000): 3.0, (1, 2000, 2000): 5.0,
                                  (2000, 2000, 1): 7.0, (1, 1, 1): 2.0})
    tracemalloc.start()
    try:
        moment = ts.stats(g, mu, (pot3,)).moments[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert moment == 0.25 * (3.0 + 5.0 + 7.0) / 3 + 0.75 * 2.0
    assert peak < 1_000_000  # a dense 2000^3 lookup is 64 GB
    with pytest.raises(ts.ModelError, match="lacks values"):
        ts.stats(g, ts.CylinderMeasure(level=2, words=((10**5, 1),), weights=(1.0,)), (pot,))
