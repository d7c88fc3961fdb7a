"""Closed-form oracles, orbit sampling and the verification suite."""

import math
from fractions import Fraction

import numpy as np
import pytest

import thermospec as ts

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_besicovitch_eggleston_values():
    r = (0.5, 0.5)
    assert ts.besicovitch_eggleston((0.5, 0.5), r) == pytest.approx(1.0, abs=1e-15)
    assert ts.besicovitch_eggleston((0.25, 0.75), r) == pytest.approx(
        0.8112781244591328, abs=1e-15)
    assert ts.besicovitch_eggleston((1.0, 0.0), r) == 0.0
    uneven = ts.besicovitch_eggleston((0.5, 0.5), (0.5, 0.25))
    assert uneven == pytest.approx(math.log(2.0) / (0.5 * math.log(2.0) + 0.5 * math.log(4.0)),
                                   abs=1e-14)


def test_besicovitch_eggleston_validation():
    with pytest.raises(ts.ModelError):
        ts.besicovitch_eggleston((0.5, 0.6), (0.5, 0.5))
    with pytest.raises(ts.ModelError):
        ts.besicovitch_eggleston((0.5, 0.5), (0.5,))
    with pytest.raises(ts.ModelError):
        ts.besicovitch_eggleston((0.5, 0.5), (0.5, 1.0))


def test_moran_root_bisection():
    assert ts.moran_root((0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert ts.moran_root((0.5, 0.25)) == pytest.approx(0.6942419136306174, abs=1e-12)
    assert ts.moran_root((0.5,)) == 0.0


def test_cf_cylinder_matrix_and_point():
    A, B, C, D = ts.cf_cylinder_matrix((1, 1))
    assert (A, B, C, D) == (1, 1, 1, 2)
    x = ts.cf_periodic_point((1,))
    assert x == pytest.approx(GOLDEN, abs=1e-15)
    # the word (2, 1) fixes the root of x = 1/(2 + 1/(1 + x))
    y = ts.cf_periodic_point((2, 1))
    assert y == pytest.approx(1.0 / (2.0 + 1.0 / (1.0 + y)), abs=1e-14)


def test_cf_orbit_log_deriv_matches_lyapunov():
    val = ts.cf_orbit_log_deriv((1,))
    assert val == pytest.approx(2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0), abs=1e-13)
    # the two-step derivative along the period sums the one-step logs
    x = ts.cf_periodic_point((1, 2))
    y = 1.0 / x - 1.0  # shift of the orbit: next point under the Gauss map
    direct = -2.0 * math.log(x) - 2.0 * math.log(y)
    assert ts.cf_orbit_log_deriv((1, 2)) == pytest.approx(direct, abs=1e-12)


def test_cf_cylinder_diameter_exact_fraction():
    assert ts.cf_cylinder_diameter_exact((1, 1)) == Fraction(1, 6)
    assert ts.cf_cylinder_diameter_exact((2,)) == Fraction(1, 6)
    g = ts.gauss_system()
    for word in ((1, 1), (3, 2), (2, 1, 4)):
        exact = float(ts.cf_cylinder_diameter_exact(word))
        assert ts.cylinder_diameter(g, word) == pytest.approx(exact, rel=1e-11)


def test_canonical_cylinder_layout():
    sys2 = ts.doubling_system()
    assert ts.canonical_cylinder(sys2, ()) == (0.0, 1.0)
    assert ts.canonical_cylinder(sys2, (1,)) == (0.0, 0.5)
    assert ts.canonical_cylinder(sys2, (2, 2)) == (0.75, 1.0)
    lo, hi = ts.canonical_cylinder(sys2, (1, 2))
    assert (lo, hi) == (0.25, 0.5)


def test_canonical_cylinder_infinite_linear():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    lo1, hi1 = ts.canonical_cylinder(inv, (1,))
    lo2, hi2 = ts.canonical_cylinder(inv, (2,))
    assert hi1 - lo1 == pytest.approx(0.5, rel=1e-15)
    assert lo2 >= hi1 - 1e-15  # branches are laid out left to right
    assert hi2 - lo2 == pytest.approx(0.125, rel=1e-15)


def test_sample_orbit_word_mode_golden():
    g = ts.gauss_system()
    s = ts.sample_orbit(g, word=[1] * 40, n=40, potentials=(ts.harmonic_potential(),))
    assert s.points[-1] == pytest.approx(GOLDEN, abs=1e-12)
    np.testing.assert_allclose(s.averages[0], 1.0)
    assert s.frequencies == {1: 1.0}
    assert s.escape_frequency == 0.0


def test_sample_orbit_level1_table():
    d2 = ts.doubling_system()
    tab = ts.table_potential(1, {(1,): 0.5, (2,): -1.0})
    s = ts.sample_orbit(d2, word=[1, 2, 2, 1], n=4, potentials=(tab,))
    np.testing.assert_array_equal(s.averages[0], [0.5, -0.25, -0.5, -0.25])
    tab2 = ts.table_potential(2, {(1, 2): 1.0, (2, 1): 0.0})
    with pytest.raises(ts.UnsupportedPotentialError, match="level-1"):
        ts.sample_orbit(d2, word=[1, 2], n=2, potentials=(tab2,))


def test_sample_orbit_word_mode_points():
    g = ts.gauss_system()
    s = ts.sample_orbit(g, word=[2, 1, 3], n=3, base=0.5)
    assert s.points[0] == pytest.approx(1.0 / 2.5, abs=1e-15)
    assert s.points[1] == pytest.approx(1.0 / (2.0 + 1.0 / 1.5), abs=1e-15)


def test_sample_orbit_recipe_schedule():
    g = ts.gauss_system()
    s = ts.sample_orbit(g, recipe=[0.55, 0.2, 0.15], n=2000)
    assert s.frequencies[1] == pytest.approx(0.55, abs=5e-3)
    assert s.frequencies[2] == pytest.approx(0.20, abs=5e-3)
    assert s.frequencies[3] == pytest.approx(0.15, abs=5e-3)
    assert s.escape_frequency == pytest.approx(0.10, abs=5e-3)
    # escape visits alternate through fresh huge digits
    escapes = [d for d in s.word if d > 3]
    assert escapes and len(set(escapes)) == len(escapes)
    assert min(escapes) == 4


def test_sample_orbit_recipe_is_deterministic():
    sys2 = ts.doubling_system()
    a = ts.sample_orbit(sys2, recipe=[0.5, 0.5], n=64)
    b = ts.sample_orbit(sys2, recipe=[0.5, 0.5], n=64)
    assert a.word == b.word
    # alternating schedule balances the two digits exactly
    assert a.frequencies[1] == 0.5 and a.frequencies[2] == 0.5


def test_sample_orbit_running_average_converges():
    sys2 = ts.doubling_system()
    s = ts.sample_orbit(sys2, recipe=[0.5, 0.5], n=500,
                        potentials=(ts.indicator_potential(1),))
    assert s.averages[0][-1] == pytest.approx(0.5, abs=2e-3)


def test_sample_orbit_argument_errors():
    sys2 = ts.doubling_system()
    with pytest.raises(ts.ModelError):
        ts.sample_orbit(sys2, recipe=[0.5, 0.2], word=[1], n=2)
    with pytest.raises(ts.ModelError):
        ts.sample_orbit(sys2, n=2)
    with pytest.raises(ts.ModelError):
        ts.sample_orbit(sys2, recipe=[0.7, 0.6], n=4)
    with pytest.raises(ts.ModelError):
        ts.sample_orbit(sys2, recipe=[0.5, 0.2], n=4)  # deficit needs a tail
    with pytest.raises(ts.InvalidWordError):
        ts.sample_orbit(sys2, word=[1, 3], n=2)
    with pytest.raises(ts.ModelError):
        ts.sample_orbit(sys2, word=[1, 2], n=3)  # word shorter than n


@pytest.mark.parametrize("recipe", [[math.nan], [0.5, math.inf]])
def test_sample_orbit_rejects_non_finite_recipes(recipe):
    # a NaN entry ran on and sampled digit 1 at every step
    with pytest.raises(ts.ModelError, match="recipe frequencies must be finite"):
        ts.sample_orbit(ts.gauss_system(), recipe=recipe, n=3)


def test_sample_orbit_empty():
    s = ts.sample_orbit(ts.doubling_system(), word=[], n=0,
                        potentials=(ts.indicator_potential(1),))
    assert s.word == ()
    assert len(s.points) == 0
    assert len(s.averages[0]) == 0


def test_truncation_ladder_check_monotone():
    reports = ts.truncation_ladder_check(
        lambda q, n: 1.0 - 1.0 / q - 1.0 / 2 ** n, [(4, 1), (8, 2), (16, 3)])
    assert all(r.passed for r in reports)
    assert reports[-1].quantity == "final gap"


def test_truncation_ladder_doubling_pressure_constant():
    sys2 = ts.doubling_system()

    def ev(q, n):
        return ts.pressure(sys2, t=0.0, q=q, n_max=n).values[-1]

    reports = ts.truncation_ladder_check(ev, [(2, n) for n in range(1, 9)])
    assert all(r.passed for r in reports)
    assert reports[-1].abs_difference == 0.0  # constant ladder, zero gap


def test_truncation_ladder_gauss_pressure_in_q():
    g = ts.gauss_system()

    def ev(q, n):
        return ts.pressure(g, t=1.0, q=q, n_max=n).values[-1]

    reports = ts.truncation_ladder_check(ev, [(10, 2), (50, 2), (200, 2)])
    assert all(r.passed for r in reports)  # nondecreasing in the truncation


def test_truncation_ladder_check_flags_regression():
    reports = ts.truncation_ladder_check(lambda q, n: -float(q), [(4, 1), (8, 2)])
    assert any(not r.passed for r in reports)


def test_truncation_ladder_check_bad_ladder():
    with pytest.raises(ts.ModelError):
        ts.truncation_ladder_check(lambda q, n: 0.0, [(8, 2), (4, 1)])
    with pytest.raises(ts.ModelError):
        ts.truncation_ladder_check(lambda q, n: 0.0, [])


def test_verification_suite_subsets():
    thermo = ts.verification_suite("thermo")
    spectrum = ts.verification_suite("spectrum")
    measures = ts.verification_suite("measures")
    full = ts.verification_suite("all")
    assert len(full) == len(thermo) + len(spectrum) + len(measures)
    assert all(r.passed for r in full)
    with pytest.raises(ts.ModelError):
        ts.verification_suite("nope")


def test_oracle_report_consistency():
    for r in ts.verification_suite("thermo"):
        assert r.passed == (r.abs_difference <= r.tolerance)
