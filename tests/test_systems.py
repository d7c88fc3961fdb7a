"""Branch system constructors, diameter series, words and potentials."""

import ast
import hashlib
import json
import math
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import thermospec as ts
from thermospec import systems, thermo
from thermospec.systems import (
    GaussTail,
    hurwitz_zeta,
    level1_values,
    potential_value,
)
from thermospec.oracle import powerlog_series


def test_linear_system_basic():
    sys2 = ts.linear_system((0.5, 0.25))
    assert sys2.branch_count() == 2
    assert ts.branch_diameter(sys2, 1) == 0.5
    assert ts.branch_diameter(sys2, 2) == 0.25
    assert ts.is_linear(sys2)
    np.testing.assert_allclose(ts.diameters(sys2, 2), [0.5, 0.25])


def test_linear_system_rejects_overpacking():
    with pytest.raises(ts.ThermospecError):
        ts.linear_system((0.7, 0.5))


def test_linear_system_rejects_bad_diameters():
    with pytest.raises(ts.ThermospecError):
        ts.linear_system((0.5, 0.0))
    with pytest.raises(ts.ThermospecError):
        ts.linear_system(())


def test_doubling_system():
    sys2 = ts.doubling_system()
    assert sys2.branch_count() == 2
    assert ts.s_inf_exact(sys2) == 0.0
    np.testing.assert_allclose(ts.diameters(sys2, 2), [0.5, 0.5])


def test_gauss_branch_diameters():
    g = ts.gauss_system()
    assert g.branch_count() is None
    # branch m covers (1/(m+1), 1/m)
    for m in (1, 2, 5, 40):
        assert ts.branch_diameter(g, m) == pytest.approx(1.0 / (m * (m + 1)), rel=1e-15)
    assert ts.s_inf_exact(g) == 0.5


def test_powerlog_tail_diameters():
    sysp = ts.powerlog_system([0.25], c=0.1, a=2.0, b=1.0, d=1.5)
    # head digit 1 is exact, tail digit m follows c m^-a log(m+b)^-d
    assert ts.branch_diameter(sysp, 1) == 0.25
    m = 7
    want = 0.1 * m ** -2.0 * math.log(m + 1.0) ** -1.5
    assert ts.branch_diameter(sysp, m) == pytest.approx(want, rel=1e-15)


def test_diameters_requires_valid_truncation():
    sys2 = ts.doubling_system()
    with pytest.raises(ts.ThermospecError):
        ts.diameters(sys2, 3)


def test_series_convergence_boundary():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    assert ts.s_inf_exact(inv) == 0.5
    assert not ts.series_converges(inv, 0.5)
    assert ts.series_converges(inv, 0.5 + 1e-6)
    g = ts.gauss_system()
    assert not ts.series_converges(g, 0.5)
    assert ts.series_converges(g, 0.500001)


def test_diam_series_bracket_contains_reference():
    # sum over m of (0.5 m^-2)^0.75 = 0.5^0.75 zeta(1.5)
    import mpmath as mp
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    lo, hi = ts.diam_series(inv, 0.75)
    ref = float(mp.mpf(0.5) ** 0.75 * mp.zeta(1.5))
    assert lo <= ref <= hi
    assert hi - lo < 1e-6


def _zeta_sample(seed, size):
    # x in (1, 4]; integer q from 1 to 10^45, log-uniform, and real q in [1, 100]
    rng = np.random.default_rng(seed)
    x = 1.0 + rng.uniform(1e-9, 3.0, 2 * size)
    q_int = [int(10.0 ** e) for e in rng.uniform(0.0, 45.0, size)]
    q_real = rng.uniform(1.0, 100.0, size)
    return list(zip(x, q_int + list(q_real)))


def test_hurwitz_zeta_matches_scipy_bit_for_bit():
    from scipy.special import zeta
    pts = _zeta_sample(11, 10_000) + [(2.0, 1), (1.5, 10 ** 8), (1.5, 10 ** 8 + 1), (4.0, 9.5)]
    diffs = [(x, q) for x, q in pts
             if np.float64(hurwitz_zeta(x, q)).tobytes() != np.float64(zeta(x, q)).tobytes()]
    assert diffs == []


def test_hurwitz_zeta_close_to_mpmath():
    import mpmath as mp
    with mp.workdps(50):
        for x, q in _zeta_sample(12, 150):
            ref = mp.zeta(mp.mpf(x), mp.mpf(q))
            assert abs(hurwitz_zeta(x, q) - ref) <= 1e-15 * ref, (x, q)
    assert hurwitz_zeta(1.0, 3) == math.inf
    assert math.isnan(hurwitz_zeta(0.5, 3)) and math.isnan(hurwitz_zeta(2.0, 0.0))


def test_diam_series_start_drops_prefix():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    lo_all, hi_all = ts.diam_series(inv, 0.8)
    lo_tail, hi_tail = ts.diam_series(inv, 0.8, start=3)
    head = sum(ts.branch_diameter(inv, m) ** 0.8 for m in (1, 2))
    # both brackets must enclose the same true tail sum
    assert lo_tail - 1e-12 <= hi_all - head
    assert lo_all - head <= hi_tail + 1e-12
    assert hi_tail - lo_tail < 1e-6


def _relative_width(bracket):
    lo, hi = bracket
    return (hi - lo) / hi


def _encloses(bracket, value):
    # float ends against an mpmath sum: mpmath compares floats exactly
    return bracket[0] <= value <= bracket[1]


def _gauss_series(s, first):
    """sum_{m >= first} (m (m+1))^(-s) to 40 digits, as Hurwitz sums at
    first + 1/2: (m (m+1))^(-s) = y^(-2s) (1 - 1/(4y^2))^(-s) with y = m + 1/2
    expands into sum_k binom(s+k-1, k) 4^(-k) zeta(2s + 2k, first + 1/2)."""
    with mp.workdps(40):
        s, y = mp.mpf(s), mp.mpf(first) + mp.mpf(0.5)
        total, coef, k = mp.mpf(0), mp.mpf(1), 0
        while True:
            term = coef * mp.zeta(2 * s + 2 * k, y) / mp.mpf(4) ** k
            total += term
            if term < mp.mpf(10) ** -45 * total:
                return total
            k += 1
            coef *= (s + k - 1) / k


def test_gauss_reference_matches_closed_forms_and_brute_force():
    # telescoping at s = 1, pi^2/3 - 3 at s = 2 from m = 1, and differences
    # of the reference against 2000 explicit terms at other exponents
    with mp.workdps(40):
        for first in (1, 7, 10**9):
            assert abs(_gauss_series(1.0, first) - mp.mpf(1) / first) <= 1e-39 / first
        assert abs(_gauss_series(2.0, 1) - (mp.pi ** 2 / 3 - 3)) <= 1e-39
        for s in (0.5 + 1e-6, 0.55, 1.3, 3.0):
            S = mp.mpf(s)
            brute = mp.fsum((m * (m + 1)) ** -S for m in range(5, 2005))
            diff = _gauss_series(s, 5) - _gauss_series(s, 2005)
            assert abs(diff - brute) <= 1e-36 * brute, s


_SERIES_CASES = [
    ("flat", ts.flat_example_system()),
    ("invsq", ts.powerlog_system([], c=0.5, a=2.0)),
    ("log", ts.powerlog_system([0.3, 0.1], c=0.2, a=1.5, b=2.0, d=1.0)),
    ("gauss", ts.gauss_system()),
    ("gauss37", ts.restricted_system(ts.gauss_system(), 37)),
]


_FAR_STARTS = {"invsq": ((1.0, 10**160), (1.6, 10**100))}


@pytest.mark.parametrize("name, system", _SERIES_CASES, ids=[c[0] for c in _SERIES_CASES])
def test_diam_series_encloses_mpmath_sum(name, system):
    # explicit head plus the Euler-Maclaurin tail bracket, at several starts
    # and exponents, against a 40-digit sum: the oracle's on power-log
    # tails, the Hurwitz expansion on the Gauss tail
    series = _gauss_series if isinstance(system.tail, GaussTail) else (
        lambda s, first: powerlog_series(system.tail, s, first))
    s_inf = ts.s_inf_exact(system)
    n = len(system.head)
    for s in (s_inf + 1e-6, s_inf + 0.3, 1.3):
        for start in (1, n + 1, 10**4 + 3):
            got = ts.diam_series(system, s, start=start)
            first = max(start, n + 1)
            with mp.workdps(30):
                head = mp.fsum(mp.mpf(ts.branch_diameter(system, i)) ** mp.mpf(s)
                               for i in range(start, first))
                want = head + series(s, first + system.offset)
            assert _encloses(got, want), (name, s, start)
            assert _relative_width(got) <= 1e-14, (name, s, start)
    # far labels where diam(I_M)^s is subnormal and the sum is not; the
    # bracket's scale is then formed from logs and its allowance is wider
    for s, start in _FAR_STARTS.get(name, ()):
        got = ts.diam_series(system, s, start=start)
        assert _encloses(got, powerlog_series(system.tail, s, start)), (name, s, start)
        assert _relative_width(got) <= 1e-12, (name, s, start)


def test_powerlog_bracket_at_the_critical_exponent():
    # flat_example at s = s_inf exactly: p = a s = 1, and the critical
    # series still converges through its log factor
    flat = ts.flat_example_system()
    assert flat.tail.a * 0.5 == 1.0
    for start in (1, 2, 50):
        got = ts.diam_series(flat, 0.5, start=start)
        with mp.workdps(30):
            head = mp.fsum(mp.mpf(ts.branch_diameter(flat, i)) ** mp.mpf(0.5)
                           for i in range(start, max(start, 2)))
            assert _encloses(got, head + powerlog_series(flat.tail, 0.5, max(start, 2)))
        assert _relative_width(got) <= 1e-14


def test_inverse_square_bracket_encloses_hurwitz_zeta():
    # sum_{m >= first} (0.5 m^-2)^s = 0.5^s zeta(2s, first), against the
    # package's Hurwitz zeta and mpmath's, for s >= s_inf + 1e-6
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    for s in (0.5 + 1e-6, 0.5 + 1e-3, 0.55, 0.75, 1.0, 2.0):
        for first in (1, 7, 1000, 10**6):
            got = ts.diam_series(inv, s, start=first)
            approx = 0.5 ** s * hurwitz_zeta(2.0 * s, first)
            assert got[0] <= approx <= got[1], (s, first)
            with mp.workdps(30):
                want = mp.mpf(0.5) ** mp.mpf(s) * mp.zeta(2 * mp.mpf(s), first)
            assert _encloses(got, want), (s, first)
            assert _relative_width(got) <= 1e-14, (s, first)


@st.composite
def _powerlog_tails(draw):
    a = draw(st.floats(1.05, 3.0))
    s = 1.0 / a + draw(st.sampled_from([1e-6, 1e-3, 0.05, 0.4, 1.5]))
    # r = d s on an integer, next to one, or anywhere up to 8
    r = draw(st.one_of(st.integers(0, 6).map(float),
                       st.integers(1, 6).map(lambda k: k + 1e-7),
                       st.floats(0.0, 8.0)))
    tail = ts.PowerLogTail(c=draw(st.floats(0.05, 1.0)), a=a,
                           b=draw(st.floats(1.0, 10.0)), d=r / s)
    return tail, s, draw(st.integers(1, 10**7))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_powerlog_tails())
def test_powerlog_bracket_encloses_mpmath_sum(case):
    tail, s, first = case
    assume(tail.converges(s))
    got = tail.bracket(s, first)
    assert _encloses(got, powerlog_series(tail, s, first))
    assert _relative_width(got) <= 1e-14


def test_gauss_bracket_encloses_mpmath_sum_seeded():
    # 300 seeded tails: s - 1/2 log-uniform in [1e-6, 2.5], first
    # log-uniform up to 1e15
    rng = np.random.default_rng(18)
    for s, first in zip(0.5 + 10.0 ** rng.uniform(-6.0, math.log10(2.5), 300),
                        (int(10.0 ** e) for e in rng.uniform(0.0, 15.0, 300))):
        got = GaussTail().bracket(float(s), first)
        assert _encloses(got, _gauss_series(s, first)), (s, first)
        assert _relative_width(got) <= 1e-14, (s, first)


def test_diam_series_bit_identical_to_direct_formula():
    # the explicit head plus the tail's bracket from the first physical
    # label past it, on restricted systems of both families, far out too
    g = ts.gauss_system()
    flat = ts.flat_example_system()
    models = ([g] + [ts.restricted_system(g, N) for N in (20, 10**6, 10**45)]
              + [flat, ts.restricted_system(flat, 5)])
    for system in models:
        s_inf = ts.s_inf_exact(system)
        n = len(system.head)
        for s in (s_inf + 0.05, s_inf + 0.3, 1.0, 1.3):
            for start in (1, 2, 7):
                head = 0.0
                if start <= n:
                    head = float(np.sum(ts.diameters(system, n)[start - 1:] ** s))
                lo, hi = system.tail.bracket(s, max(start, n + 1) + system.offset)
                got = ts.diam_series(system, s, start=start)
                assert got == (head + lo, head + hi), (system, s, start)


def test_diam_series_builds_tail_base_once():
    # the exponent-free part of the bracket's 1e3-term head is built once
    # for a system, whatever the number of exponents, and cannot be
    # written to
    sub = ts.restricted_system(ts.gauss_system(), 37)
    systems._diam_series_cached.cache_clear()
    systems._tail_base.cache_clear()
    for s in np.linspace(0.61, 1.9, 50):
        ts.diam_series(sub, float(s))
    info = systems._tail_base.cache_info()
    assert (info.misses, info.hits) == (1, 49)
    base = systems._tail_base(sub.tail, 37, 37 + systems._EM_HEAD)
    assert systems._tail_base.cache_info().misses == 1
    with pytest.raises(ValueError):
        base[0] = 1.0


def test_tails_share_one_bracket():
    # both tail families supply Euler-Maclaurin terms, not a bracket
    subclasses = systems.Tail.__subclasses__()
    assert {ts.PowerLogTail, GaussTail} <= set(subclasses)
    for cls in subclasses:
        assert "bracket" not in vars(cls), cls


# The power-log bracket as it formed its exact products before: Fractions
# where the code now takes integer ratios.  Only the rational steps differ;
# the rest repeats the float arithmetic of PowerLogTail._em_terms,
# _powerlog_integral and _expint_scaled line for line.


def _fraction_expint_scaled(r, z):
    if z == 0.0:
        return 1.0 / float(r - 1) if r > 1 else math.inf
    rf = float(r)
    if z >= 0.5:
        t = z
        for k in range(int(3.0 + 60.0 / math.sqrt(z) + 60.0 / z), -1, -1):
            t = z + (rf + k) / (1.0 + (k + 1) / t)
        return 1.0 / t
    m = max(0, round(rf - 1.0))
    delta = float(1 + m - r)
    c_over = systems._lgamma1p_over(delta)
    for j in range(1, m + 1):
        c_over -= math.log1p(-delta / j) / delta if delta else -1.0 / j
    e = delta * (c_over - math.log(z))
    if abs(e) < 1.0:
        g = (c_over - math.log(z)) * (math.expm1(e) / e if e else 1.0)
    else:
        g = (z ** -delta * math.exp(delta * c_over) - 1.0) / delta
    out = (-z) ** m / math.factorial(m) * g
    term, k = 1.0, 0
    while True:
        if k != m:
            part = term / (1.0 - rf + k)
            out -= part
            if k > m and abs(part) <= systems._ROUND * abs(out):
                return out * math.exp(z)
        k += 1
        term *= -z / k


def _fraction_powerlog_integral(lam, r, b, L, xb):
    total, coef, k = 0.0, 1.0, 0
    while True:
        term = coef * _fraction_expint_scaled(r, (lam + k) * L)
        total += term
        if term <= systems._ROUND * total:
            return total
        k += 1
        coef *= b * (lam + k) / (k * xb)


class _FractionPowerLogTail(ts.PowerLogTail):
    def converges(self, s):
        p, r = (x * s if x * s != 1.0 else Fraction(x) * Fraction(s)
                for x in (self.a, self.d))
        return p > 1 or (p == 1 and r > 1)

    def _em_terms(self, s, M):
        p, r = self.a * s, self.d * s
        x, xb = float(M), M + self.b
        L = math.log(xb)
        f0 = self.diameter(M) ** s
        lam = float(Fraction(self.a) * Fraction(s) - 1)
        scale = L * xb * math.exp(-p * math.log1p(self.b / x))
        integral = scale * _fraction_powerlog_integral(
            lam, Fraction(self.d) * Fraction(s), self.b, L, xb)
        taylor = systems._powerlog_taylor(p, r, x, xb, L)
        allowance = 12.0 + s * (4.0 + self.d)
        if f0 >= systems._NORMAL:
            return f0, taylor, integral, allowance
        logs = (s * math.log(self.c), -lam * math.log(x), -r * math.log(L))
        return (math.exp(math.fsum(logs)), [t / x for t in taylor], integral / x,
                allowance + 4.0 + 2.0 * sum(abs(v) for v in logs))


def _near(x, ulps):
    """x and its floats up to ``ulps`` steps either side."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


@pytest.mark.parametrize("name, system", [
    ("flat", ts.flat_example_system()),
    ("invsq", ts.powerlog_system([], c=0.5, a=2.0)),
    # a = d = 1.5: a s and d s round to 1 near s = 2/3 without being 1
    ("three-halves", ts.powerlog_system([], c=0.3, a=1.5, d=1.5))])
def test_powerlog_bracket_keeps_the_bits_of_the_fraction_form(name, system):
    # Python's int / int is correctly rounded, like float(Fraction), so the
    # integer-ratio products give the Fraction form's bracket bit for bit
    tail = system.tail
    reference = systems.BranchSystem(
        head=system.head, tail=_FractionPowerLogTail(tail.c, tail.a, tail.b, tail.d),
        xi=system.xi)
    rng = np.random.default_rng(24)
    s_inf = 1.0 / tail.a
    grid = [float(s) for s in rng.uniform(s_inf, 3.0, 2000)]
    grid += _near(s_inf, 40) + _near(1.0 / 1.5, 40) + [0.25, 0.5, 1.0]
    if name == "three-halves":
        assert any(1.5 * s == 1.0 and Fraction(1.5) * Fraction(s) != 1 for s in grid)
    for s in grid:
        for start in (1, 2):
            assert ts.diam_series(system, s, start=start) == \
                ts.diam_series(reference, s, start=start), (s, start)


# _expint_scaled with int counters, the reference for its float counters:
# Python converts these small ints to floats exactly, so both must give the
# same bits


def _int_counter_expint_scaled(r, z):
    num, den = r
    if z == 0.0:
        return 1.0 / ((num - den) / den) if num > den else math.inf
    rf = num / den
    if z >= 0.5:
        t = z
        for k in range(int(3.0 + 60.0 / math.sqrt(z) + 60.0 / z), -1, -1):
            t = z + (rf + k) / (1.0 + (k + 1) / t)
        return 1.0 / t
    m = max(0, round(rf - 1.0))
    delta = ((1 + m) * den - num) / den
    c_over = systems._lgamma1p_over(delta)
    for j in range(1, m + 1):
        c_over -= math.log1p(-delta / j) / delta if delta else -1.0 / j
    e = delta * (c_over - math.log(z))
    if abs(e) < 1.0:
        g = (c_over - math.log(z)) * (math.expm1(e) / e if e else 1.0)
    else:
        g = (z ** -delta * math.exp(delta * c_over) - 1.0) / delta
    out = (-z) ** m / math.factorial(m) * g
    term, k = 1.0, 0
    while True:
        if k != m:
            part = term / (1.0 - rf + k)
            out -= part
            if k > m and abs(part) <= systems._ROUND * abs(out):
                return out * math.exp(z)
        k += 1
        term *= -z / k


def test_expint_scaled_keeps_the_bits_of_int_counters():
    rng = np.random.default_rng(37)
    rs = [float(r) for r in rng.uniform(0.0, 40.0, 60)]
    rs += [float(n) for n in range(0, 12)]
    # within 1e-12 of an integer: the series merges the pole term with Gamma
    rs += [n + float(dv) for n in range(0, 12) for dv in rng.uniform(-1e-12, 1e-12, 3)]
    ratios = [r.as_integer_ratio() for r in rs if r >= 0.0]
    # exact products d s, as the power-log bracket passes them
    ratios += [systems._exact_product(4.0, float(s)) for s in rng.uniform(0.5, 3.0, 20)]
    zs = [0.0, *_near(0.5, 8), *rng.uniform(1e-6, 0.5, 25).tolist(),
          *np.exp(rng.uniform(math.log(1e-9), math.log(0.5), 10)).tolist(),
          *rng.uniform(0.5, 60.0, 25).tolist()]
    branches = {"series": 0, "fraction": 0}
    for r in ratios:
        for z in zs:
            got, want = systems._expint_scaled(r, z), _int_counter_expint_scaled(r, z)
            assert got.hex() == want.hex(), (r, z)
            branches["series" if 0.0 < z < 0.5 else "fraction"] += 1
    assert min(branches.values()) > 1000
    assert any(abs(n / d - round(n / d)) < 1e-12 and n % d for n, d in ratios)


def test_taylor_coefficients_keep_their_bits():
    # the Euler-Maclaurin Taylor coefficients of both tail families, pinned
    # as Python 3.11's builtin sum() added them: from 3.12 on sum() is
    # compensated, and the helpers add in loops so the bits stay the same
    rng = np.random.default_rng(2000)
    x, xb = 1002.0, 1003.0
    L = math.log(xb)
    grid = [float(s) for s in rng.uniform(0.5, 3.0, 2000)]

    def digest(rows):
        return hashlib.sha256(";".join(",".join(c.hex() for c in row)
                                       for row in rows).encode()).hexdigest()

    assert digest(systems._powerlog_taylor(2.0 * s, 4.0 * s, x, xb, L) for s in grid) == \
        "461a036aef74a7334ede80c466de7b348cf1da9b39cba06000a709e621631c89"
    assert digest(GaussTail()._em_terms(s, 1037)[1] for s in grid) == \
        "441566b247bed22bea0caf6215f6d7514e8dfa9e309a1b6e1c4b325801afd910"


def _bracket_digest(system, grid):
    """sha256 of the float hex of diam_series over the grid, starts 1 and 3."""
    text = ";".join(f"{lo.hex()},{hi.hex()}" for s in grid for start in (1, 3)
                    for lo, hi in [ts.diam_series(system, s, start=start)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_powerlog_brackets_keep_their_bits_restricted_and_subnormal():
    # the brackets of a restricted power-log system (labels offset by 4),
    # also at exponents where f(M) = diam(I_M)^s is subnormal, so _em_terms
    # rescales by M f(M) from logs; the digests pin their bits
    base = ts.powerlog_system([0.3, 0.2], c=0.05, a=2.0, b=1.0, d=1.5)
    restricted = ts.restricted_system(base, 5)
    assert restricted.offset == 4
    rng = np.random.default_rng(137)
    grid = [float(s) for s in rng.uniform(0.5, 3.0, 150)]
    assert _bracket_digest(restricted, grid) == RESTRICTED_DIGEST
    big = [float(s) for s in rng.uniform(40.0, 95.0, 60)]
    M = 1 + restricted.offset + len(restricted.head) + systems._EM_HEAD
    # and where f(M) is subnormal but the scale M f(M) is normal
    log_d = math.log(restricted.tail.diameter(M))
    band = np.linspace(math.log(systems._NORMAL) / log_d,
                       math.log(systems._NORMAL / M) / log_d, 22)[1:-1].tolist()
    assert all(restricted.tail._em_terms(s, M)[0] >= systems._NORMAL for s in band)
    big += band
    assert all(restricted.tail.diameter(M) ** s < systems._NORMAL for s in big)
    assert all(ts.diam_series(restricted, s)[0] > 0.0 for s in big)  # sums still normal
    assert _bracket_digest(restricted, big) == SUBNORMAL_DIGEST
    # there the remainder is far below the head's rounding, so its own
    # terms are pinned as well: (F, c_0..c_5, integral, allowance) at M
    terms = ";".join(",".join(v.hex() for v in (F, *taylor, integral, allowance))
                     for F, taylor, integral, allowance in
                     (restricted.tail._em_terms(s, M) for s in big))
    assert hashlib.sha256(terms.encode()).hexdigest() == SUBNORMAL_TERMS_DIGEST
    flat = ts.flat_example_system()
    assert _bracket_digest(flat, big) == FLAT_SUBNORMAL_DIGEST


RESTRICTED_DIGEST = "97a49f9e36a23d59120e4c8ee7e912d3e95d0177446581e967a1d84339b63e64"
SUBNORMAL_DIGEST = "efc3d2dd4f1f4e24687e8b0ca54e8921dd2c58e0106c0fee5b20fe7d474cc4c9"
FLAT_SUBNORMAL_DIGEST = "8235ae07eeda9ad080338ca53fb13fbb44b49381941d655c82eb99784790f815"
SUBNORMAL_TERMS_DIGEST = "a7f6b60a18dbadbb9e27da178b10a9ae9a4cc66811b469c1a0535cb5ad9f70f8"


def test_powerlog_converges_decides_on_the_exact_product():
    # 1.5 * fl(1/1.5) rounds to 1 but is 1 - 2^-54 exactly: p < 1 diverges
    # whatever the log factor
    tail = ts.PowerLogTail(c=0.5, a=1.5, d=4.5)
    s = 1 / 1.5
    assert 1.5 * s == 1.0 and Fraction(1.5) * Fraction(s) < 1
    assert not tail.converges(s)
    assert tail.bracket(s, 1) == (math.inf, math.inf)
    system = systems.BranchSystem(head=(), tail=tail, xi=2.0)
    assert ts.diam_series(system, s) == (math.inf, math.inf)
    # a product that is 1 exactly still converges through the log factor
    assert ts.PowerLogTail(c=0.5, a=2.0, d=4.5).converges(0.5)


def _partial_sum(tail, s, count, first=1):
    """sum_{m = first..first + count - 1} of the tail's summands, 1e6 terms
    at a time."""
    total, stop = 0.0, first + count
    for lo in range(first, stop, 10**6):
        m = np.arange(lo, min(lo + 10**6, stop), dtype=float)
        total += float(np.sum(tail.terms(tail.base(m), s)))
    return total


def test_terms_to_exceed_log10_counts_pass_the_bound():
    # a reported count is a divergence certificate: the partial sum over
    # ceil(10^x) terms exceeds the bound.  Seeded divergent cases of both
    # families, at p = a s = 1 and below it, whose counts are at most 1e7.
    # The first two counts were once 23 and 10 terms, whose sums are 3.14
    # and 2.12, and the Gauss count at p = 1 was infinite
    rng = np.random.default_rng(29)
    invsq = ts.PowerLogTail(c=0.5, a=2.0)
    cases = [(invsq, 0.45, 10.0), (invsq, 0.49, 5.0), (GaussTail(), 0.5, 1.0)]
    for _ in range(40):
        a = float(rng.choice([1.0, 2.0, 4.0, rng.uniform(1.0, 3.0)]))
        tail = ts.PowerLogTail(c=float(rng.uniform(0.05, 1.0)), a=a,
                               b=float(rng.uniform(1.0, 5.0)),
                               d=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])))
        s = float(rng.choice([1.0 / a, (1.0 - 10.0 ** rng.uniform(-3.0, -0.3)) / a]))
        cases.append((tail, s, float(rng.uniform(1.0, 20.0))))
    for _ in range(20):
        s = float(rng.choice([0.5, 0.5 - 10.0 ** rng.uniform(-3.0, -0.5)]))
        cases.append((GaussTail(), s, float(rng.uniform(1.0, 20.0))))
    checked = {"powerlog": 0, "gauss": 0}
    for tail, s, bound in cases:
        x = tail.terms_to_exceed_log10(s, bound, 1)
        if not x <= 7.0:
            continue
        assert _partial_sum(tail, s, math.ceil(10.0 ** x)) > bound, (tail, s, bound, x)
        checked["gauss" if isinstance(tail, GaussTail) else "powerlog"] += 1
    assert checked["powerlog"] >= 15 and checked["gauss"] >= 10, checked


def _closed_form_lower(tail, s, first, count):
    """A lower bound on sum_{m = first..first + count - 1} of the summands
    from a closed form, at 40 digits: (m (m+1))^-s >= (m + 1/2)^-2s on the
    Gauss tail and c^s m^-p exactly on a power tail without log factor,
    summed as differences of Hurwitz zeta (digamma at exponent 1)."""
    with mp.workdps(40):
        p = mp.mpf(2 * s if isinstance(tail, GaussTail) else tail.a * s)
        shift, scale = (0.5, 1) if isinstance(tail, GaussTail) else (0, mp.mpf(tail.c) ** s)
        a, b = mp.mpf(first) + shift, mp.mpf(first) + count + shift
        if p == 1:
            return scale * (mp.digamma(b) - mp.digamma(a))
        return scale * (mp.zeta(p, a) - mp.zeta(p, b))


def test_terms_to_exceed_log10_counts_from_the_first_label():
    # the count is taken from the label first = N: the partial sum over
    # ceil(10^x) terms from N exceeds the bound, on seeded N with both tail
    # families, at p = 1 and below it.  Counts up to 1e7 are summed
    # explicitly, larger ones (to 1e30) through a closed-form lower bound
    rng = np.random.default_rng(30)
    cases = [(GaussTail(), 0.5, 10**6, 1.0)]
    for _ in range(30):
        N = int(10 ** rng.uniform(0.0, 9.0))
        bound = float(rng.uniform(0.5, 5.0))
        if rng.random() < 0.5:
            s = float(rng.choice([0.5, 0.5 - 10.0 ** rng.uniform(-3.0, -1.0)]))
            cases.append((GaussTail(), s, N, bound))
        else:
            a = float(rng.choice([1.0, 2.0, rng.uniform(1.0, 3.0)]))
            d = float(rng.choice([0.0, 0.0, rng.uniform(0.0, 1.0 / a)]))
            tail = ts.PowerLogTail(c=float(rng.uniform(0.05, 1.0)), a=a,
                                   b=float(rng.uniform(1.0, 5.0)), d=d)
            s = float(rng.choice([1.0 / a, (1.0 - 10.0 ** rng.uniform(-3.0, -1.0)) / a]))
            cases.append((tail, s, N, bound))
    checked = {"explicit": 0, "closed": 0}
    for tail, s, N, bound in cases:
        x = tail.terms_to_exceed_log10(s, bound, N)
        count = math.ceil(10.0 ** x)
        if x <= 7.0:
            assert _partial_sum(tail, s, count, N) > bound, (tail, s, N, bound, x)
            checked["explicit"] += 1
        elif x <= 30.0 and (isinstance(tail, GaussTail) or tail.d == 0.0):
            assert _closed_form_lower(tail, s, N, count) > bound, (tail, s, N, bound, x)
            checked["closed"] += 1
    assert checked["explicit"] >= 8 and checked["closed"] >= 5, checked


def test_terms_to_exceed_log10_at_and_below_the_exponent():
    # at p = 2 s = 1 the Gauss count comes from sum 1/(m+1) >= log((K+2)/2);
    # one float below s_inf the inverse-square count is the harmonic one,
    # not 1 (10 terms), and above s_inf no count exists
    assert GaussTail().terms_to_exceed_log10(0.5, 1e6, 1) == pytest.approx(434294.78, abs=0.01)
    below = math.nextafter(0.5, -math.inf)
    invsq = ts.PowerLogTail(c=0.5, a=2.0)
    assert invsq.terms_to_exceed_log10(below, 1e6, 1) == pytest.approx(
        1e6 * math.sqrt(2.0) / math.log(10.0), rel=1e-9)
    for tail in (GaussTail(), invsq):
        assert tail.terms_to_exceed_log10(math.nextafter(0.5, math.inf), 1e6, 1) == math.inf


def test_flat_example_geometry():
    flat = ts.flat_example_system()
    assert flat.flat is not None
    assert flat.flat.K == 0.55 and flat.flat.C == 0.6
    # |I_1|^s_inf = K at s_inf = 1/2
    assert ts.branch_diameter(flat, 1) == pytest.approx(0.55 ** 2, rel=1e-14)
    # calibrated tail: series of tail diameters at s_inf equals C, to
    # rounding in the float bracket and in the oracle's 40-digit sum
    lo, hi = ts.diam_series(flat, 0.5, start=2)
    assert lo - 1e-6 <= 0.6 <= hi + 1e-6
    assert abs(0.5 * (lo + hi) - 0.6) <= 1e-14
    assert abs(powerlog_series(flat.tail, 0.5, 2) - mp.mpf("0.6")) <= 1e-14
    assert ts.s_inf_exact(flat) == 0.5


def test_truncate_and_restrict():
    g = ts.gauss_system()
    g8 = ts.truncate(g, 8)
    assert g8.branch_count() == 8
    assert ts.branch_diameter(g8, 3) == ts.branch_diameter(g, 3)
    e10 = ts.restricted_system(g, 10)
    # digits are reindexed; first branch of E_10 is the physical digit 10
    assert ts.branch_diameter(e10, 1) == pytest.approx(1.0 / (10 * 11), rel=1e-15)
    assert ts.s_inf_exact(e10) == 0.5


def test_check_word_validation():
    sys2 = ts.doubling_system()
    assert ts.check_word(sys2, (1, 2, 1)) == (1, 2, 1)
    with pytest.raises(ts.InvalidWordError):
        ts.check_word(sys2, (0, 1))
    with pytest.raises(ts.InvalidWordError):
        ts.check_word(sys2, (1, 3))
    g = ts.gauss_system()
    assert ts.check_word(g, (4, 1000000)) == (4, 1000000)


def test_cylinder_diameter_linear_products():
    sys2 = ts.linear_system((0.5, 0.25))
    assert ts.cylinder_diameter(sys2, (1, 2)) == pytest.approx(0.125, rel=1e-15)
    assert ts.cylinder_diameter(sys2, (2, 2, 1)) == pytest.approx(0.25 * 0.25 * 0.5, rel=1e-15)


def test_cylinder_diameter_gauss_exact():
    g = ts.gauss_system()
    # |I_{1,1}| = 1/6 by the continuant recursion
    assert ts.cylinder_diameter(g, (1, 1)) == pytest.approx(1.0 / 6.0, rel=1e-12)
    lo, hi = ts.cylinder_diameter_bracket(g, (1, 1))
    assert lo <= 1.0 / 6.0 <= hi
    # words whose endpoint difference cancels every digit: large digits and
    # long words; the brackets must still hold the exact rational diameter
    for word in ((2, 5, 1, 3), (1000,), (10 ** 6,), (10 ** 6, 10 ** 6), (5,) * 20,
                 (1, 7, 2, 300, 1, 1, 4, 9, 2, 1, 1, 5, 60, 3, 1, 2, 8, 1, 1, 2)):
        exact = ts.cf_cylinder_diameter_exact(word)
        lo, hi = ts.cylinder_diameter_bracket(g, word)
        assert Fraction(lo) <= exact <= Fraction(hi), word
        assert ts.cylinder_diameter(g, word) == pytest.approx(float(exact), rel=1e-13)
    # a restricted system reads its words as physical digits N - 1 + i
    e10 = ts.restricted_system(g, 10)
    exact = ts.cf_cylinder_diameter_exact((10, 12, 11))
    assert ts.cylinder_diameter(e10, (1, 3, 2)) == pytest.approx(float(exact), rel=1e-13)


def test_periodic_points_golden():
    g = ts.gauss_system()
    pts = ts.periodic_points(g, (1,))
    assert len(pts) == 1
    assert pts[0] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-14)


def test_periodic_points_two_cycle():
    g = ts.gauss_system()
    a, b = ts.periodic_points(g, (1, 2))
    # x = 1/(1 + 1/(2 + x)) has the positive root sqrt(3) - 1 + ... checked
    # by re-applying the inverse branches
    assert a == pytest.approx(1.0 / (1.0 + 1.0 / (2.0 + a)), abs=1e-12)
    assert b == pytest.approx(1.0 / (2.0 + 1.0 / (1.0 + b)), abs=1e-12)


def test_potentials_level1_values():
    sys2 = ts.doubling_system()
    chi1 = ts.indicator_potential(1)
    assert potential_value(sys2, chi1, (1,)) == 1.0
    assert potential_value(sys2, chi1, (2,)) == 0.0
    g = ts.gauss_system()
    harm = ts.harmonic_potential()
    assert potential_value(g, harm, (4,)) == 0.25
    const = ts.constant_potential(2.5)
    assert potential_value(g, const, (9,)) == 2.5
    np.testing.assert_allclose(level1_values(g, harm, 4), [1.0, 0.5, 1.0 / 3.0, 0.25])


def test_potential_kinds_are_frozen_values():
    assert ts.indicator_potential(2) == ts.IndicatorPotential(2)
    assert ts.harmonic_potential() == ts.HarmonicPotential()
    assert ts.constant_potential(1.5) == ts.ConstantPotential(1.5)
    assert ts.log_deriv_potential() == ts.LogDerivPotential()
    tab = ts.table_potential(2, {(1, 2): 3.0, (1, 1): 0.5})
    assert tab == ts.TablePotential(2, (((1, 1), 0.5), ((1, 2), 3.0)))
    assert (tab.lower, tab.upper) == (0.5, 3.0)
    assert len({ts.indicator_potential(1), ts.IndicatorPotential(1)}) == 1
    with pytest.raises(FrozenInstanceError):
        ts.indicator_potential(1).index = 2
    with pytest.raises(TypeError):
        ts.Potential(kind="indicator", index=1)


@pytest.mark.parametrize("make", [
    lambda: ts.constant_potential(math.nan),
    lambda: ts.constant_potential(-math.inf),
    lambda: ts.table_potential(1, {(1,): 0.5, (2,): math.nan}),
    lambda: ts.table_potential(2, {(1, 1): math.inf}),
    lambda: ts.load_potential('{"kind": "constant", "value": NaN}'),
    lambda: ts.load_potential('{"kind": "table", "level": 1, "values": {"1": Infinity}}'),
], ids=["constant-nan", "constant-inf", "table1-nan", "table2-inf", "json-nan", "json-inf"])
def test_potentials_reject_non_finite_values(make):
    with pytest.raises(ts.ModelError, match="must be finite"):
        make()


def test_no_kind_comparisons_in_source():
    # potentials, branches and tails dispatch by type; a comparison against
    # a ``.kind`` attribute would be a string switch on their kinds
    hits = []
    for path in sorted(Path(ts.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(x, ast.Attribute) and x.attr == "kind"
                    for x in (node.left, *node.comparators)):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_only_systems_names_the_tail_families():
    # the tail families are told apart in systems.py alone; other modules
    # call Tail methods or ask systems.py about the family
    hits = []
    for path in sorted(Path(ts.__file__).parent.glob("*.py")):
        if path.name in ("systems.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {a.name for a in node.names} if isinstance(node, ast.ImportFrom)
                     else set())
            if names & {"GaussTail", "PowerLogTail"}:
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_indicator_requires_positive_index():
    with pytest.raises(ts.ThermospecError):
        ts.indicator_potential(0)


def test_table_potential_level2():
    sys2 = ts.doubling_system()
    tab = ts.table_potential(2, {(1, 2): 3.0, (1, 1): 0.5})
    assert potential_value(sys2, tab, (1, 2)) == 3.0
    assert potential_value(sys2, tab, (1, 1)) == 0.5
    assert tab.level == 2


def test_log_deriv_potential_is_unbounded():
    pot = ts.log_deriv_potential()
    assert not pot.bounded
    g = ts.gauss_system()
    harm = ts.harmonic_potential()
    lo, hi = harm.tail_bounds(g, 10)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 / 11.0)


def test_log_deriv_sums_match_continued_fraction_oracle():
    # the closed form 2 log mu of the continuant trace against the
    # 50-digit integer-matrix oracle, on all-ones, all-twos and 40 seeded
    # words per (N, n) with logical digits log-uniform on [1, 1000]
    import mpmath as mp
    from thermospec.oracle import cf_orbit_log_deriv
    g = ts.gauss_system()
    pot = ts.log_deriv_potential()
    rng = np.random.default_rng(13)
    for N in (1, 20, 10**6, 10**12, 10**45):
        sub = ts.restricted_system(g, N)
        for n in (1, 2, 3, 6, 9, 12):
            digits = np.exp(rng.uniform(0.0, math.log(1000.0), (40, n))).astype(np.int64)
            words = [(1,) * n, (2,) * n] + [tuple(map(int, w)) for w in digits]
            if N == 1 and n == 3:
                # (1, 3, 21) and its rotations: backward iteration of their
                # branches in floats ends in a 2-cycle, not a fixed point
                words += [(1, 3, 21), (3, 21, 1), (21, 1, 3)]
            L = pot.birkhoff_sums(sub, [np.array(c) for c in zip(*words)])
            assert np.isfinite(L).all()
            bound = 2.2e-16 if N <= 10**12 else 4.4e-16
            for w, value in zip(words, L):
                exact = cf_orbit_log_deriv(tuple(m + N - 1 for m in w))
                assert abs((mp.mpf(float(value)) - exact) / exact) <= bound, (N, w)


def test_log_deriv_sums_past_the_square_overflow():
    # above digits of about 1e154 the half trace's square overflows; there
    # mu = 2y, both for flat word columns and for the level arrays' prefix
    # blocks, and the pressure stays finite
    import mpmath as mp
    from thermospec.oracle import cf_orbit_log_deriv
    g = ts.gauss_system()
    pot = ts.log_deriv_potential()
    words = [(1,), (2,), (7,), (1, 1), (1, 3), (5, 2), (9, 9)]
    for N in (10**160, 10**200, 10**300):
        sub = ts.restricted_system(g, N)
        flat = [(w, pot.birkhoff_sums(sub, [np.array([m]) for m in w])[0]) for w in words]
        L, _ = thermo._level_arrays(sub, None, 3, 2, 1)
        blocks = zip((tuple(map(int, w)) for w in systems._decode_words(3, 2)), L)
        for w, value in flat + list(blocks):
            exact = cf_orbit_log_deriv(tuple(m + N - 1 for m in w))
            assert abs((mp.mpf(float(value)) - exact) / exact) <= 1e-15, (N, w)
    est = ts.pressure(ts.restricted_system(g, 10**160), t=0.6, q=3, n_max=2)
    lo, hi = est.bracket
    assert -442.0 < lo <= hi < -440.0


def test_birkhoff_sum_counts_matches():
    sys2 = ts.doubling_system()
    chi1 = ts.indicator_potential(1)
    assert ts.birkhoff_sum(sys2, chi1, (1, 2, 1)) == 2.0
    assert ts.birkhoff_sum(sys2, chi1, (2, 2)) == 0.0


def test_model_round_trips():
    for sysm in (ts.doubling_system(), ts.gauss_system(),
                 ts.powerlog_system([], c=0.5, a=2.0),
                 ts.flat_example_system()):
        blob = ts.dump_model(sysm)
        again = ts.load_model(blob)
        assert ts.dump_model(again) == blob
        # text form loads identically
        assert ts.dump_model(ts.load_model(json.dumps(blob))) == blob


def test_model_dump_of_derived_systems():
    g, flat = ts.gauss_system(), ts.flat_example_system()
    # a derived system never dumps as the built-in model it came from
    with pytest.raises(ts.ModelError):
        ts.dump_model(ts.truncate(g, 3))
    with pytest.raises(ts.ModelError):
        ts.dump_model(ts.restricted_system(flat, 3))
    # restricted tails keep physical labels, which JSON cannot express
    with pytest.raises(ts.ModelError):
        ts.dump_model(ts.restricted_system(ts.powerlog_system([0.25], c=0.1, a=2.0), 2))
    flat5 = ts.truncate(flat, 5)
    blob = ts.dump_model(flat5)
    assert blob["kind"] == "linear"
    assert np.array_equal(ts.diameters(ts.load_model(blob), 5), ts.diameters(flat5, 5))


def _positive_masses(draw, count_max):
    ws = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=count_max))
    mass = draw(st.floats(0.1, 0.7))
    return [w / sum(ws) * mass for w in ws]


@st.composite
def _linear_or_powerlog_systems(draw):
    head = _positive_masses(draw, 5)
    if draw(st.booleans()):
        base = ts.linear_system(head)
    else:
        head = head[:draw(st.integers(0, len(head)))]
        base = ts.powerlog_system(head, c=draw(st.floats(0.005, 0.05)),
                                  a=draw(st.floats(1.5, 4.0)), b=draw(st.floats(1.0, 3.0)),
                                  d=draw(st.floats(0.0, 1.0)))
    size = len(base.head) if base.tail is None else len(base.head) + 4
    how = draw(st.sampled_from(("full", "truncate", "restrict")))
    if how == "truncate":
        return ts.truncate(base, draw(st.integers(1, size)))
    if how == "restrict":
        return ts.restricted_system(base, draw(st.integers(1, size)))
    return base


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_linear_or_powerlog_systems())
def test_model_round_trip_property(sysm):
    try:
        blob = ts.dump_model(sysm)
    except ts.ModelError:
        assert sysm.offset != 0
        return
    assert ts.load_model(blob) == sysm
    assert ts.load_model(json.dumps(blob)) == sysm


def test_model_load_from_path(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "linear", "head": [0.5, 0.25]}))
    sysm = ts.load_model(str(path))
    assert sysm.branch_count() == 2
    assert ts.branch_diameter(sysm, 2) == 0.25


def test_model_load_rejects_unknown_kind():
    with pytest.raises(ts.ModelError):
        ts.load_model({"kind": "weird"})


def test_potential_round_trips():
    for pot in (ts.indicator_potential(3), ts.harmonic_potential(),
                ts.constant_potential(-1.5), ts.log_deriv_potential(),
                ts.table_potential(2, {(1, 1): 0.5, (1, 2): 3.0})):
        blob = ts.dump_potential(pot)
        again = ts.load_potential(blob)
        assert ts.dump_potential(again) == blob
        assert ts.dump_potential(ts.load_potential(json.dumps(blob))) == blob
