"""The tilted level-1 series on the continued-fraction family and on
linear systems, pinned bit for bit to values recorded before its head
data and weights moved into one evaluator, and checked against the
array evaluator it had before short series became lists of floats."""

import math

import numpy as np
import pytest

import thermospec as ts
from thermospec import thermo
from thermospec.systems import _logaddexp, _logsumexp


def _no_zero(system, potential, delta, alpha, expected):
    # chi1 at alpha = 0: the increasing branch keeps its sign, so there is no
    # witness and the values are those of its limit end
    return pytest.param(system, potential, delta, alpha, expected,
                        id=f"{system}-{potential}-{delta}-{alpha}-"
                           "no zero of the certificate function found")


# flat_certificate on the continued-fraction family (the level-1 sandwich
# above delta = 1/2), recorded bit for bit: (qhat, value_lo, value_hi) as
# float hex with None for no witness.  The chi1 and truncate8 entries were
# recorded with one head term per digit and, on the infinite systems, the
# Hurwitz tail from the second digit on; the interior levels (alpha = 0.3)
# at the tilt of the Newton tilt solve, which lands elsewhere in the few
# ulps where alpha(q) - alpha is flat to rounding
GAUSS_CERTIFICATES = [
    ('gauss', 'harmonic', 0.6, 0.0, (None, '0x1.b07273a1374b0p-3', '0x1.b6ec3c0fd849cp-3')),
    ('gauss', 'harmonic', 0.6, 0.3, (None, '0x1.7f4004928221cp+0', '0x1.b7a384fc84e5ep+0')),
    ('gauss', 'harmonic', 0.6, 1.0, ('0x1.fc00000000000p+6', '-0x1.a9de9fec5df00p-1', '0x0.0p+0')),
    ('gauss', 'harmonic', 0.75, 0.0, ('-0x1.5e00000000000p+9', '-0x1.5a3312db9321ap+1', '-0x1.59fa7189a911dp+1')),
    ('gauss', 'harmonic', 0.75, 0.3, (None, '0x1.0b5dbdb67ef6fp-1', '0x1.a0ee72d8b0a35p-1')),
    ('gauss', 'harmonic', 0.75, 1.0, ('0x1.fc00000000000p+6', '-0x1.0a2b23f3bab80p+0', '0x0.0p+0')),
    _no_zero('gauss', 'chi1', 0.6, 0.0, (None, '0x1.6cb45a877e44dp+0', '0x1.8633976965e7cp+0')),
    ('gauss', 'chi1', 0.6, 0.3, (None, '0x1.68af6c95a6a2cp+0', '0x1.ad85b787cc5c2p+0')),
    ('gauss', 'chi1', 0.6, 1.0, ('0x1.f800000000000p+5', '-0x1.a9de9fec5df00p-1', '0x0.0p+0')),
    _no_zero('gauss', 'chi1', 0.75, 0.0, (None, '0x1.d766b003e706dp-3', '0x1.e92c6850085d6p-2')),
    ('gauss', 'chi1', 0.75, 0.3, (None, '0x1.096f830797ac9p-1', '0x1.e3f925fe73614p-1')),
    ('gauss', 'chi1', 0.75, 1.0, ('0x1.f800000000000p+5', '-0x1.0a2b23f3bab80p+0', '0x0.0p+0')),
    ('restricted3', 'harmonic', 0.6, 0.0, (None, '0x1.b0727b2ee4cd8p-3', '0x1.b6ec3a8cf9088p-3')),
    ('restricted3', 'harmonic', 0.6, 0.3, ('0x1.1d03a5b06616ep+4', '-0x1.8881e9de93940p-1', '-0x1.d36df9b6233d0p-2')),
    ('restricted3', 'harmonic', 0.6, 1.0, ('0x1.89b6ad0ca69a3p+0', '-0x1.533546598cd30p-4', '0x1.bb6c9f3a00000p-21')),
    ('restricted3', 'harmonic', 0.75, 0.0, ('-0x1.5e00000000000p+9', '-0x1.5a3312bf59362p+1', '-0x1.59fa7197cc81dp+1')),
    ('restricted3', 'harmonic', 0.75, 0.3, ('0x1.ecd080c9a6373p+3', '-0x1.3b96dd2b2f540p+0', '-0x1.b09fc5fc61154p-1')),
    ('restricted3', 'harmonic', 0.75, 1.0, ('0x1.0fbd7c973251ap-2', '-0x1.5ce2d2f01a14bp-3', '0x1.ba3fbfc000000p-28')),
    _no_zero('restricted3', 'chi1', 0.6, 0.0, (None, '0x1.4ee1d3ea7a9bap+0', '0x1.5bab3f10848f4p+0')),
    ('restricted3', 'chi1', 0.6, 0.3, (None, '0x1.094909d1685c2p+0', '0x1.2a805c0c16de9p+0')),
    ('restricted3', 'chi1', 0.6, 1.0, ('0x1.ab63477f6e977p+0', '-0x1.eed9d494b4d40p-4', '0x0.0p+0')),
    _no_zero('restricted3', 'chi1', 0.75, 0.0, (None, '-0x1.eeefb3baf0553p-5', '0x1.0737b4acca7d0p-4')),
    ('restricted3', 'chi1', 0.75, 0.3, (None, '-0x1.7728a7bf906ecp-5', '0x1.4ab1f65f4e652p-3')),
    ('restricted3', 'chi1', 0.75, 1.0, ('0x1.1caf50dc598afp-2', '-0x1.6a3aa30786513p-3', '0x1.8000000000000p-53')),
    ('truncate8', 'harmonic', 0.6, 0.0, ('-0x1.a5b7071862fdfp+0', '-0x1.7fbe13800f63cp-2', '0x0.0p+0')),
    ('truncate8', 'harmonic', 0.6, 0.3, (None, '0x1.a1e0d1e345290p-4', '0x1.8fcb0161f7580p-2')),
    ('truncate8', 'harmonic', 0.6, 1.0, ('0x1.fc00000000000p+6', '-0x1.a9de9fec5df00p-1', '0x0.0p+0')),
    ('truncate8', 'harmonic', 0.75, 0.0, ('-0x1.0f6a8ca264c06p+0', '-0x1.2645d2f50ce44p-1', '-0x1.0000000000000p-52')),
    ('truncate8', 'harmonic', 0.75, 0.3, ('-0x1.12137f7cc2e7dp+2', '-0x1.85a6689ff55d4p-2', '-0x1.5fbd3f6cf67c0p-6')),
    ('truncate8', 'harmonic', 0.75, 1.0, ('0x1.fc00000000000p+6', '-0x1.0a2b23f3bab80p+0', '0x0.0p+0')),
    _no_zero('truncate8', 'chi1', 0.6, 0.0, (None, '-0x1.fe27d6ced7380p-6', '0x1.26582ed70541ap-2')),
    ('truncate8', 'chi1', 0.6, 0.3, (None, '0x1.75f0ac370fe9ap-2', '0x1.9fc878474be44p-1')),
    ('truncate8', 'chi1', 0.6, 1.0, ('0x1.f800000000000p+5', '-0x1.a9de9fec5df00p-1', '0x0.0p+0')),
    ('truncate8', 'chi1', 0.75, 0.0, ('-0x1.4e72bd50c79f2p+1', '-0x1.cf486493b906cp-2', '0x0.0p+0')),
    ('truncate8', 'chi1', 0.75, 0.3, (None, '-0x1.43df20cb2c980p-7', '0x1.1d785ca31b3aep-1')),
    ('truncate8', 'chi1', 0.75, 1.0, ('0x1.f800000000000p+5', '-0x1.0a2b23f3bab80p+0', '0x0.0p+0')),
]
# pressure_locally_constant_bracket as float hex: (lo, hi); each contains
# the 40-digit value of its series
LOCALLY_CONSTANT_BRACKETS = [
    ('flat', 'none', 0.6, -1.5, ('-0x1.0a203ff0a67c4p-2', '-0x1.0a203ff0a6798p-2')),
    ('flat', 'none', 0.6, 0.0, ('-0x1.0a203ff0a67c4p-2', '-0x1.0a203ff0a6798p-2')),
    ('flat', 'none', 0.6, 2.0, ('-0x1.0a203ff0a67c4p-2', '-0x1.0a203ff0a6798p-2')),
    ('flat', 'none', 0.75, -1.5, ('-0x1.3ba38606d2304p-1', '-0x1.3ba38606d22efp-1')),
    ('flat', 'none', 0.75, 0.0, ('-0x1.3ba38606d2304p-1', '-0x1.3ba38606d22efp-1')),
    ('flat', 'none', 0.75, 2.0, ('-0x1.3ba38606d2304p-1', '-0x1.3ba38606d22efp-1')),
    ('flat', 'harmonic', 0.6, -1.5, ('-0x1.4346a49c86464p+0', '-0x1.4346a4583d20bp+0')),
    ('flat', 'harmonic', 0.6, 0.0, ('-0x1.0a203ff0a6857p-2', '-0x1.0a203ff0a6705p-2')),
    ('flat', 'harmonic', 0.6, 2.0, ('0x1.6f95f16691e53p+0', '0x1.6f95f16cb2742p+0')),
    ('flat', 'harmonic', 0.75, -1.5, ('-0x1.ce4ceff0429f3p+0', '-0x1.ce4cefefea7d8p+0')),
    ('flat', 'harmonic', 0.75, 0.0, ('-0x1.3ba38606d234fp-1', '-0x1.3ba38606d22a3p-1')),
    ('flat', 'harmonic', 0.75, 2.0, ('0x1.334a31261d45bp+0', '0x1.334a3126231b4p+0')),
    ('invsq', 'none', 0.6, -1.5, ('0x1.4e2cfdf216d05p+0', '0x1.4e2cfdf216d12p+0')),
    ('invsq', 'none', 0.6, 0.0, ('0x1.4e2cfdf216d05p+0', '0x1.4e2cfdf216d12p+0')),
    ('invsq', 'none', 0.6, 2.0, ('0x1.4e2cfdf216d05p+0', '0x1.4e2cfdf216d12p+0')),
    ('invsq', 'none', 0.75, -1.5, ('0x1.c2f8175018c26p-2', '0x1.c2f8175018c53p-2')),
    ('invsq', 'none', 0.75, 0.0, ('0x1.c2f8175018c26p-2', '0x1.c2f8175018c53p-2')),
    ('invsq', 'none', 0.75, 2.0, ('0x1.c2f8175018c26p-2', '0x1.c2f8175018c53p-2')),
    ('invsq', 'harmonic', 0.6, -1.5, ('0x1.06ecad920baacp+0', '0x1.06eccb4b7dd17p+0')),
    ('invsq', 'harmonic', 0.6, 0.0, ('0x1.4e2cfdf216ce4p+0', '0x1.4e2cfdf216d35p+0')),
    ('invsq', 'harmonic', 0.6, 2.0, ('0x1.1717f8b43297dp+1', '0x1.1717fef51bef1p+1')),
    ('invsq', 'harmonic', 0.75, -1.5, ('-0x1.3e497987f703cp-3', '-0x1.3e4970afeb2ecp-3')),
    ('invsq', 'harmonic', 0.75, 0.0, ('0x1.c2f8175018b94p-2', '0x1.c2f8175018ce7p-2')),
    ('invsq', 'harmonic', 0.75, 2.0, ('0x1.c92e409be790ap+0', '0x1.c92e40d20fd4fp+0')),
]


def _system(name):
    g = ts.gauss_system()
    return {"gauss": g, "restricted3": ts.restricted_system(g, 3),
            "truncate8": ts.truncate(g, 8), "flat": ts.flat_example_system(),
            "invsq": ts.powerlog_system([], c=0.5, a=2.0)}[name]


def _potential(name):
    return {"none": None, "harmonic": ts.harmonic_potential(),
            "chi1": ts.indicator_potential(1)}[name]


def _hex(x):
    return None if x is None else float(x).hex()


@pytest.mark.parametrize("system, potential, delta, alpha, expected", GAUSS_CERTIFICATES)
def test_gauss_flat_certificates_bit_for_bit(system, potential, delta, alpha, expected):
    cert = ts.flat_certificate(_system(system), _potential(potential), alpha, delta)
    assert (_hex(cert.qhat), _hex(cert.value_lo), _hex(cert.value_hi)) == expected
    assert cert.witness == (expected[0] is not None)


@pytest.mark.parametrize("system, potential, t, coeff, expected", LOCALLY_CONSTANT_BRACKETS)
def test_locally_constant_brackets_bit_for_bit(system, potential, t, coeff, expected):
    lo, hi = ts.pressure_locally_constant_bracket(
        _system(system), _potential(potential), t, coeff)
    assert (_hex(lo), _hex(hi)) == expected


def _array_f_alpha(system, potential, t, q, memo):
    """``thermo._f_alpha`` as its all-array form computed it: one term per
    head digit, the tail appended per call and folded by np.logaddexp.
    ``memo`` keeps the per-t terms, as the cache did."""
    key = (system, potential, t)
    if key not in memo:
        H, uvals, logd = thermo._level1_head(system, potential)[:3]
        if ts.is_linear(system):
            logS_lo = logS = t * logd
        else:
            digits = np.arange(1, H + 1, dtype=float) + system.offset
            logS_lo = -2.0 * t * np.log(digits + 1.0)
            logS = -2.0 * t * np.log(digits)
        tail = None
        if system.tail is not None:
            p_lo, p_hi = potential.tail_bounds(system, H)
            if ts.is_linear(system):
                logT_lo, logT_hi = map(thermo._log, ts.diam_series(system, t, start=H + 1))
                logT = 0.5 * (logT_lo + logT_hi)
            else:
                first = H + 1 + system.offset
                logT_lo = thermo._log(thermo._zeta_tail(2.0 * t, first + 1))
                logT = logT_hi = thermo._log(thermo._zeta_tail(2.0 * t, first))
            tail = (p_lo, p_hi, logT_lo, logT, logT_hi)
        memo[key] = (H, uvals, logS_lo, logS, tail)
    H, uvals, logS_lo, logS, tail = memo[key]
    if tail is not None and math.isinf(tail[4]):
        return math.inf, math.inf, math.inf, math.nan
    terms = q * uvals + logS
    head = _logsumexp(terms)
    head_lo = head if logS_lo is logS else _logsumexp(q * uvals + logS_lo)
    if tail is None:
        weights = np.exp(terms - head)
        return head_lo, head, head, float(weights @ uvals)
    p_lo, p_hi, logT_lo, logT, logT_hi = tail
    head_hi = head
    if logS_lo is logS:
        slack = thermo._EPS * (2.0 * (abs(head) + math.log(H)) + math.log2(H) + 2.0)
        head_lo, head_hi = head - slack, head + slack
    lo_val, hi_val = (p_lo, p_hi) if q >= 0 else (p_hi, p_lo)
    f_lo = float(np.logaddexp(head_lo, q * lo_val + logT_lo))
    f_hi = float(np.logaddexp(head_hi, q * hi_val + logT_hi))
    p_mid = 0.5 * (p_lo + p_hi)
    all_terms = np.append(terms, q * p_mid + logT)
    f = _logsumexp(all_terms)
    weights = np.exp(all_terms - f)
    return f_lo, f, f_hi, float(weights @ np.append(uvals, p_mid))


def _linear(rng, n):
    d = rng.uniform(0.2, 1.0, n)
    return ts.linear_system((0.9 * d / d.sum()).tolist())


def test_f_alpha_matches_the_array_evaluator_seeded():
    # both forms of the series, short float lists (up to 7 terms) and
    # arrays (8 terms and more, as the 1e5-digit harmonic heads), across
    # finite, linear-tail and continued-fraction systems; t below 1/2
    # reaches the divergent tails
    rng = np.random.default_rng(20)
    g = ts.gauss_system()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    systems = [ts.doubling_system(), ts.linear_system([golden, golden ** 2]),
               _linear(rng, 3), _linear(rng, 6), _linear(rng, 7), _linear(rng, 8),
               ts.flat_example_system(), g, ts.truncate(g, 5), ts.restricted_system(g, 7)]
    potentials = [ts.indicator_potential(1), ts.indicator_potential(2),
                  ts.constant_potential(float(rng.uniform(-2.0, 2.0))), ts.harmonic_potential()]
    memo, forms, cases = {}, set(), 0
    for system in systems:
        for potential in potentials:
            for t in rng.uniform(0.3, 1.6, 5).tolist():
                for q in [0.0, *rng.uniform(-5.0, 5.0, 5).tolist(),
                          *rng.uniform(-700.0, 700.0, 4).tolist()]:
                    got = thermo._f_alpha(system, potential, t, q)
                    want = _array_f_alpha(system, potential, t, q, memo)
                    assert [x.hex() for x in got] == [x.hex() for x in want], (
                        system, potential, t, q)
                    cases += 1
                forms.add(type(thermo._series_groups(system, potential, t)[2]))
    assert cases >= 1500
    assert forms == {list, np.ndarray}
    # the benchmark's flat and doubling chi1 rows take the float lists
    for system in (ts.flat_example_system(), ts.doubling_system()):
        assert type(thermo._series_groups(system, ts.indicator_potential(1), 0.6)[2]) is list


def test_short_logsumexp_and_logaddexp_match_numpy():
    rng = np.random.default_rng(21)
    special = [0.0, -0.0, 1.0, -1.0, 709.5, -745.0, math.inf, -math.inf, math.nan]
    cases = [[], [math.inf, 1.0], [-math.inf, -math.inf], [1.0, math.nan],
             [math.nan, 1.0], [2.0, 2.0, 2.0], [1e308, 1e308], [0.0, -40.0, -45.0]]
    for _ in range(4000):
        n = int(rng.integers(1, 8))
        a = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n) + rng.normal(scale=50.0)
        ties = rng.integers(0, n, size=int(rng.integers(0, n + 1)))
        a[ties] = a.max()
        if rng.random() < 0.2:
            a[rng.integers(0, n)] = special[rng.integers(0, len(special))]
        cases.append(a.tolist())
    for a in cases:
        assert _logsumexp(a).hex() == _logsumexp(np.array(a)).hex(), a
    x = rng.normal(scale=10.0 ** rng.uniform(-3, 3, 100_000))
    y = np.where(rng.random(100_000) < 0.1, x, x + rng.normal(scale=10.0 ** rng.uniform(-18, 3, 100_000)))
    pairs = list(zip(x.tolist(), y.tolist()))
    pairs += [(a, b) for a in special for b in special]
    with np.errstate(invalid="ignore"):
        for a, b in pairs:
            assert _logaddexp(a, b).hex() == float(np.logaddexp(a, b)).hex(), (a, b)


def test_constant_tails_hold_no_long_head_arrays():
    # a potential that is constant past digit k keeps the shortest
    # max(1, len(head)) 2^j >= k digits explicit on both families, and the
    # certified tail sum carries the rest; harmonic is constant on no tail
    # and keeps the 1e5-digit head
    g = ts.gauss_system()
    systems = [g, ts.restricted_system(g, 10), ts.flat_example_system(),
               ts.powerlog_system([], c=0.5, a=2.0)]
    potentials = [(ts.indicator_potential(1), 1), (ts.indicator_potential(2), 2),
                  (ts.constant_potential(0.7), 1)]
    for cache in (thermo._level1_head, thermo._series_groups):
        cache.cache_clear()
    for system in systems:
        for potential, H in potentials:
            thermo._f_alpha(system, potential, 0.75, 0.3)
            head = thermo._level1_head(system, potential)
            groups = thermo._series_groups(system, potential, 0.75)
            assert head[0] == H, (system, potential)
            sizes = [np.size(x) for x in head + groups if isinstance(x, (list, np.ndarray))]
            assert max(sizes) <= 1000, (system, potential, sizes)
        assert thermo._level1_head(system, ts.harmonic_potential())[0] == thermo._PLC_HEAD
