"""Pressure estimates, critical exponents and pressure roots."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import thermospec as ts
from hypothesis import given, settings, strategies as st

from thermospec import level3, spectrum, thermo
from thermospec.oracle import powerlog_series
from thermospec.systems import _decode_words, _logsumexp

LOG2 = math.log(2.0)
# root of (1/2)^s + (1/4)^s = 1, i.e. log2 of the golden ratio
MORAN_HALF_QUARTER = 0.6942419136306174
# root of (1/2)^s zeta(2 s) = 1 for the inverse-square tail
INVSQ_ROOT = 0.9037927608987680
# level-3 periodic-word pressure of the continued-fraction family, t=1, q=4
GAUSS_V3 = -0.32430666783211276
GAUSS_V1 = -0.35533289730235196


def test_pressure_doubling_counts_words():
    est = ts.pressure(ts.doubling_system(), t=0.0, n_max=3)
    np.testing.assert_allclose(est.values, [LOG2, LOG2, LOG2], rtol=0, atol=1e-15)
    assert est.extrapolated == pytest.approx(LOG2, abs=1e-15)
    assert est.bracket[0] <= LOG2 <= est.bracket[1]
    assert not est.diverged


def test_pressure_linear_level1_factorizes():
    sys2 = ts.linear_system((0.5, 0.25))
    est = ts.pressure(sys2, t=1.0, n_max=4)
    # Z_n = Z_1^n exactly for linear level-1 data, so v_n is constant
    assert len(set(est.values)) == 1
    assert est.values[0] == pytest.approx(math.log(0.75), abs=1e-15)
    assert est.var_totals == (0.0,) * 4


def test_pressure_gauss_levels_and_bracket():
    est = ts.pressure(ts.gauss_system(), t=1.0, q=4, n_max=3)
    assert est.values[0] == pytest.approx(GAUSS_V1, abs=1e-14)
    assert est.values[2] == pytest.approx(GAUSS_V3, abs=1e-14)
    lo, hi = est.bracket
    assert lo <= est.values[2] <= hi
    assert est.extrapolated == pytest.approx(min(max(est.extrapolated, lo), hi))


def test_truncations_are_equal_values_and_share_level_arrays():
    g = ts.gauss_system()
    assert ts.truncate(g, 13) == ts.truncate(g, 13)
    assert hash(ts.truncate(g, 13)) == hash(ts.truncate(g, 13))
    first = ts.pressure(ts.truncate(g, 13), t=1.0, n_max=3)
    misses = thermo._level_sums.cache_info().misses
    # a separately built truncation hits the arrays cached for the first one
    assert ts.pressure(ts.truncate(g, 13), t=1.0, n_max=3) == first
    assert thermo._level_sums.cache_info().misses == misses


def test_pressure_reads_the_arrays_of_the_criterion_2_root():
    # the root's levels at q = 200 are the pressure's: levels 1 and 2, and
    # level 3 as the array below digit H and the rows past it.  The log|T'|
    # potential still reads level 3 as one array of one value per digit
    # multiset, which the root no longer builds, and a pass at t <= 0 with
    # no potential reads that same array
    g = ts.gauss_system()
    ts.pressure_root(g, bracket=(0.8, 1.2), q=200, n_max=4)
    misses = thermo._level_sums.cache_info().misses
    rows = level3._row_data.cache_info().misses
    ts.pressure(g, t=1.0, q=200, n_max=3)
    assert thermo._level_sums.cache_info().misses == misses
    assert level3._row_data.cache_info().misses == rows
    ts.pressure(g, ts.log_deriv_potential(), t=1.0, q=200, n_max=3)
    ts.pressure(g, t=0.0, q=200, n_max=3)
    assert thermo._level_sums.cache_info().misses == misses + 1
    assert level3._row_data.cache_info().misses == rows


def test_worker_count_builds_its_own_level_arrays():
    # the worker count is part of the cache key, so a 4-worker call after a
    # 1-worker one builds its levels with the thread pool
    g = ts.gauss_system()
    thermo._level_sums.cache_clear()
    ref = ts.pressure(g, t=1.0, q=25, n_max=3, workers=1)
    assert ts.pressure(g, t=1.0, q=25, n_max=3, workers=4) == ref
    assert thermo._level_sums.cache_info().misses == 6


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_pressure_rejects_non_finite_t(t):
    # NaN gave NaN values and +inf a pressure of -inf
    for system in (ts.doubling_system(), ts.gauss_system()):
        with pytest.raises(ts.ModelError, match=f"t must be finite, got {t}"):
            ts.pressure(system, t=t, q=4)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_counts_below_one_raise(workers):
    # a count below 1 is refused before any level array is built
    g = ts.gauss_system()
    misses = thermo._level_sums.cache_info().misses
    with pytest.raises(ts.ModelError, match=f"workers must be >= 1, got {workers}"):
        ts.pressure(g, t=1.0, q=30, n_max=3, workers=workers)
    with pytest.raises(ts.ModelError, match=f"workers must be >= 1, got {workers}"):
        ts.pressure_root(g, q=30, workers=workers)
    assert thermo._level_sums.cache_info().misses == misses


def test_pressure_bracket_narrows_with_level():
    g = ts.gauss_system()
    w = []
    for n in (1, 2, 3):
        est = ts.pressure(g, t=1.0, q=8, n_max=n)
        w.append(est.bracket[1] - est.bracket[0])
    assert w[2] < w[1] < w[0]


def test_pressure_divergence_flag():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    est = ts.pressure(inv, t=0.4, q=64, n_max=2)
    assert est.diverged
    est2 = ts.pressure(inv, t=0.8, q=64, n_max=2)
    assert not est2.diverged


def test_pressure_log_deriv_divergence_at_t_minus_one():
    # log|T'| - t log|T'| = -(t - 1) log|T'|: the series must converge at t - 1
    ld = ts.log_deriv_potential()
    for system, t in ((ts.gauss_system(), 1.0),
                      (ts.powerlog_system([], c=0.5, a=2.0), 1.2)):
        est = ts.pressure(system, ld, t=t, q=4, n_max=2)
        assert est.diverged
        assert est.bracket[1] == math.inf
    est = ts.pressure(ts.gauss_system(), ld, t=2.0, q=4, n_max=2)
    assert not est.diverged
    assert math.isfinite(est.bracket[1])


def test_pressure_budget_carries_partial():
    g = ts.gauss_system()
    pot = ts.table_potential(2, {(i, j): 0.1 for i in (1, 2, 3) for j in (1, 2, 3)})
    with pytest.raises(ts.BudgetExceededError) as exc:
        ts.pressure(g, pot, t=1.0, q=3, n_max=5, budget=90)
    partial = exc.value.partial
    assert partial is not None
    assert partial.levels == (1, 2, 3)  # 3 + 9 + 27 fits, level 4 does not


def test_default_budget_env(monkeypatch):
    monkeypatch.setenv("THERMOSPEC_BUDGET", "1234")
    assert ts.default_budget() == 1234
    monkeypatch.delenv("THERMOSPEC_BUDGET")
    assert ts.default_budget() == 100_000_000


def test_pressure_workers_bit_identical():
    # levels 3 and 4 at q = 30 are two blocks each, so the thread pool
    # runs; the worker count is part of the level cache's key, so each call
    # builds its four levels
    g = ts.gauss_system()
    thermo._level_sums.cache_clear()
    ests = []
    for w in (1, 2, 4, 8):
        ests.append(ts.pressure(g, t=1.0, q=30, n_max=4, workers=w))
        assert thermo._level_sums.cache_info().misses == 4 * len(ests)
    for est in ests[1:]:
        assert est.values == ests[0].values
        assert est.bracket == ests[0].bracket


def _plan_shapes(q, n, size):
    _, blocks = thermo._level_plan(q, n, n == 3, size)
    return [np.broadcast_shapes(*(np.shape(c) for c in block()[0])) for block in blocks]


def test_level_arrays_invariant_to_worker_count(monkeypatch):
    # all words at (30, 4): whole 3-prefixes times all 30 last digits,
    # 810,000 words, a tile of them per block with one worker (25 blocks)
    # and a chunk with more (two).  One value per multiset at (200, 3): the
    # words (v, v, w) in blocks of rows, then blocks of words (a, m, b),
    # a < m < b, each the next rows (a, m) that fit in half a block against
    # the last digits b > m0, its first row's m.  So the thread pool really
    # runs, and workers 1, 2 and 8 agree
    g = ts.gauss_system()
    shapes = []
    real = ts.LogDerivPotential.birkhoff_sums

    def recording(self, system, cols, **kwargs):
        shapes.append(np.broadcast_shapes(*(np.shape(c) for c in cols)))
        return real(self, system, cols, **kwargs)

    thermo._level_sums.cache_clear()
    tile, chunk = thermo._TILE, thermo._CHUNK
    for q, n in ((30, 4), (200, 3)):
        monkeypatch.setattr(ts.LogDerivPotential, "birkhoff_sums", recording)
        shapes.clear()
        L1, _ = thermo._level_arrays(g, None, q, n, 1)
        built = list(shapes)
        for workers in (2, 8):
            L2, _ = thermo._level_arrays(g, None, q, n, workers)
            assert L1.tobytes() == L2.tobytes()
            assert L1.segments == L2.segments
        monkeypatch.undo()
        threaded = _plan_shapes(q, n, chunk)
        assert built == _plan_shapes(q, n, tile)
        assert sorted(shapes[len(built):]) == sorted(threaded * 2)
        if n == 4:
            rows = tile // q
            assert built == [(rows, q)] * 24 + [(27_000 - 24 * rows, q)]
            assert threaded == [(chunk // q, q), (27_000 - chunk // q, q)]
            # the same words as flat per-word columns give the same bits
            flat = ts.log_deriv_potential().birkhoff_sums(g, list(_decode_words(q, n, 0, 5000).T))
            assert flat.tobytes() == L1[:5000].tobytes()
        else:
            assert built[:3] == [(81, q), (81, q), (38, q)] and len(built) == 86
            assert threaded[0] == (q, q) and len(threaded) == 8
            # the rows (a, m) in order: m - 1 of them for each m, so row r
            # has C(m - 1, 2) <= r < C(m, 2).  Every block but the last is
            # full, and its first row's m is q - cols
            for size, plan in ((tile, built[3:]), (chunk, threaded[1:])):
                r = 0
                for k, (h, cols) in enumerate(plan, 1):
                    m0 = q - cols
                    assert math.comb(m0 - 1, 2) <= r < math.comb(m0, 2)
                    assert h * cols <= size // 2 and (h == size // 2 // cols or k == len(plan))
                    r += h
                assert r == math.comb(q - 1, 2)
            # the first rows as flat per-word columns (1, 1, w) give the same
            # bits: (1, 1, 1) first, then (1, 1, w) for w = 2..q
            words = [np.array([1] * q), np.array([1] * q), np.arange(1, q + 1)]
            flat = ts.log_deriv_potential().birkhoff_sums(g, words)
            assert flat[0] == L1[0] and flat[1:].tobytes() == L1[q:2 * q - 1].tobytes()


def test_table_potential_level_arrays_match_per_word_sums():
    # prefix columns (P, 1) and last digits (1, q) broadcast through the
    # table lookup; every word's sum is birkhoff_sum's, bit for bit
    g = ts.gauss_system()
    for level in (2, 3):
        table = {w: 0.1 * sum(w) + 0.01 * w[0] for w in map(tuple, _decode_words(4, level))}
        pot = ts.table_potential(level, table)
        for n in (level, 4):
            _, phi = thermo._level_arrays(g, pot, 4, n, 1)
            expected = [ts.birkhoff_sum(g, pot, w) for w in _decode_words(4, n)]
            assert phi.tolist() == expected


def test_log_deriv_level_arrays_hold_one_array():
    # for the log|T'| potential phi equals L, so one array of the C(102, 3)
    # multiset values (1.37 MB, against 8 MB for all 1e6 words) serves both
    g = ts.gauss_system()
    thermo._level_sums.cache_clear()
    tracemalloc.start()
    try:
        L, phi = thermo._level_arrays(g, ts.log_deriv_potential(), 100, 3, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert L.nbytes == 8 * math.comb(102, 3) == 1_373_600
    assert held < 1.5 * L.nbytes
    assert phi.tobytes() == L.tobytes()


def test_level_arrays_shared_across_potentials():
    # L does not depend on the potential: a harmonic or log|T'| pressure
    # after a plain one reuses the swept L and builds only what it lacks
    g = ts.gauss_system()
    harm, logd = ts.harmonic_potential(), ts.log_deriv_potential()
    ts.pressure(g, t=1.0, q=40, n_max=2)
    L_plain, _ = thermo._level_arrays(g, None, 40, 2, 1)
    est = ts.pressure(g, harm, t=1.0, q=40, n_max=2)
    L_harm, phi = thermo._level_arrays(g, harm, 40, 2, 1)
    assert L_harm is L_plain
    L_logd, phi_logd = thermo._level_arrays(g, logd, 40, 2, 1)
    assert L_logd is L_plain and phi_logd is L_plain
    # phi is the harmonic sum of each word's digit reciprocals
    words = _decode_words(40, 2)
    assert phi.tobytes() == (1.0 / words[:, 0] + 1.0 / words[:, 1]).tobytes()
    assert est.values[1] == thermo._log_partition(L_plain, phi, 1.0) / 2
    assert L_plain.segments == ((1, 0, 1600),)
    # at n = 3 a plain or log|T'| level holds one value per digit multiset,
    # C(42, 3) of them; a harmonic one keeps all 64,000 words, phi with them
    L3, _ = thermo._level_arrays(g, None, 40, 3, 1)
    assert thermo._level_arrays(g, logd, 40, 3, 1) == (L3, L3)
    assert len(L3) == math.comb(42, 3) and [m for m, _, _ in L3.segments] == [1, 3, 6]
    L3_harm, phi3 = thermo._level_arrays(g, harm, 40, 3, 1)
    assert len(L3_harm) == len(phi3) == 64_000 and L3_harm.segments == ((1, 0, 64_000),)


def test_log_partition_streams_tiles():
    # one pass over the 8e6 level-3 words, or over the 1,353,400 multiset
    # values, holds one tile of floats and one of bools (plus a few Python
    # objects), allocated once, and keeps the bits of each segment's
    # streamed log-sum-exp, plus log(mult), folded over segments
    g = ts.gauss_system()
    L_words, phi = thermo._level_arrays(g, ts.harmonic_potential(), 200, 3, 1)
    L_sets, _ = thermo._level_arrays(g, None, 200, 3, 1)
    assert L_words.segments == ((1, 0, 8_000_000),)
    assert L_sets.segments == ((1, 0, 200), (3, 200, 40_000), (6, 40_000, 1_353_400))
    for L, p in ((L_words, None), (L_words, phi), (L_sets, None)):
        for t in (0.8, 1.0, 1.2):
            expected = _pass_reference(L, p, t, L.segments)
            tracemalloc.start()
            try:
                value = thermo._log_partition(L, p, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert _same_bits(value, expected)
            assert peak < 9 * thermo._TILE + 65_536
    thermo._level_sums.cache_clear()  # the all-word L and phi hold 128 MB


@pytest.mark.parametrize("system, q, n, digest", [
    (ts.gauss_system(), 200, 3,  # one value per digit multiset
     "8eb020c9fa81607e90e1897e9815ee76ad3a8013ec57db96609fd7e7f00ceb7f"),
    (ts.gauss_system(), 30, 4,  # all words, two blocks
     "6601e960a650d268b59b0ec807574474571e70887bf47e25740fea8d9b36de56"),
    (ts.restricted_system(ts.gauss_system(), 20), 50, 3,
     "e0d2873b910399dce1915ca17f5eb2455328bd7c23c9e8ce3c9803b9987293b7"),
    (ts.powerlog_system([0.3], c=0.5, a=2.0), 6, 3,  # linear: summed per digit
     "531c805ad4fd50d2d5650b65e62ed9480d8c55827dcd8bb930400ac3c17aabf0"),
])
def test_level_array_bits_pinned(system, q, n, digest):
    # L written in place, block by block, keeps its bits
    L, _ = thermo._level_arrays(system, None, q, n, 1)
    assert hashlib.sha256(L.tobytes()).hexdigest() == digest


def _multiplicities(L):
    return np.repeat([m for m, _, _ in L.segments], [b - a for _, a, b in L.segments])


@pytest.mark.parametrize("system, q", [
    (ts.gauss_system(), 200),
    (ts.restricted_system(ts.gauss_system(), 20), 50),
])
def test_multiset_level_holds_every_words_value(system, q):
    # each value stands for the words that reorder its digits: repeated by
    # its multiplicity, the level is the all-word L, byte for byte
    L, _ = thermo._level_arrays(system, None, q, 3, 1)
    mult = _multiplicities(L)
    assert len(L) == math.comb(q + 2, 3)
    assert int(mult.sum()) == q ** 3
    words = ts.log_deriv_potential().birkhoff_sums(system, list(_decode_words(q, 3).T))
    assert np.sort(words).tobytes() == np.sort(np.repeat(L, mult)).tobytes()


def test_multiset_log_partition_matches_all_word_sums():
    # seeded: log Z_3 in the layout each potential gets (one value per digit
    # multiset with no potential or log|T'|, every word with a level-1 one)
    # against the log-sum-exp over every word
    g = ts.gauss_system()
    systems = [g, ts.restricted_system(g, 20), ts.restricted_system(g, 10**6),
               ts.powerlog_system([0.3, 0.2], c=0.5, a=2.0)]
    rng = np.random.default_rng(2021)
    multisets = 0
    for _ in range(40):
        system = systems[rng.integers(len(systems))]
        q, n = int(rng.integers(1, 25)), 3
        t = float(rng.uniform(0.3, 2.0))
        pot = [None, ts.harmonic_potential(), ts.indicator_potential(int(rng.integers(1, 4))),
               ts.constant_potential(float(rng.normal())),
               ts.table_potential(1, {(i,): float(rng.normal()) for i in range(1, q + 1)}),
               ts.log_deriv_potential()][rng.integers(6)]
        if ts.is_linear(system) and pot is not None and pot != ts.log_deriv_potential():
            pot = None  # linear level-1 pressure skips the enumeration
        L, phi = thermo._level_arrays(system, pot, q, n, 1)
        assert int(_multiplicities(L).sum()) == q ** n
        if pot is None or pot == ts.log_deriv_potential():
            multisets += 1
            assert len(L) == math.comb(q + n - 1, n)
        else:
            assert len(L) == len(phi) == q ** n
        cols = list(_decode_words(q, n).T)
        x = -t * ts.log_deriv_potential().birkhoff_sums(system, cols)
        if pot is not None:
            x += pot.birkhoff_sums(system, cols)
        brute = _logsumexp(x)
        logZ = thermo._log_partition(L, phi, t)
        assert abs(logZ - brute) <= 8 * _EPS * max(1.0, abs(brute)), (system, pot, q, n, t)
        if pot is not None:  # pressure() reads the same layout
            est = ts.pressure(system, pot, t=t, q=q, n_max=n)
            assert est.values[-1] == thermo._log_partition(
                *thermo._level_arrays(system, pot, q, n, 1), t) / n
    assert multisets >= 10


def test_level_array_build_holds_one_block_beyond_L():
    # a block formed beside the level takes half a tile of values, the
    # potential's half-trace temporary of its shape the other half: with
    # the block's rows, that is all the level-3 build holds beyond L
    g = ts.gauss_system()
    thermo._level_sums.cache_clear()
    tracemalloc.start()
    try:
        L, _ = thermo._level_arrays(g, None, 200, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - L.nbytes < 1_000_000


def _segment_reference(L, phi, t):
    # a pass's log-sum-exp of one segment, unstreamed: _logsumexp's
    # arithmetic over the whole segment but for the sum of the shifted
    # exponentials, math.fsum of its tiles' numpy sums
    a = -t * L if phi is None else phi - t * L
    a_max = a.max()
    if not math.isfinite(a_max):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return float(np.log(np.exp(a).sum()))
    ismax = a == a_max
    m = float(np.count_nonzero(ismax))
    e = np.exp(a - a_max)
    e[ismax] = 0.0
    s = math.fsum(e[i:i + thermo._TILE].sum() for i in range(0, e.size, thermo._TILE))
    return float(np.log1p(s / m) + np.log(m) + a_max)


def _pass_reference(L, phi, t, segments):
    # the segments' log-sum-exps, plus log(mult), folded in order
    out = None
    for mult, start, stop in segments:
        seg = _segment_reference(L[start:stop], None if phi is None else phi[start:stop], t)
        seg = seg + math.log(mult) if mult > 1 else seg
        out = seg if out is None else np.logaddexp(out, seg)
    return float(out)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_log_partition_minima_path_bit_identical():
    # three segments whose ends are not on tile bounds, each with repeated
    # minima and values one and two ulps above them, whose exponents round
    # to the maximum at small t: each tile's stored minimum gives its
    # largest exponent, the flat minima are read segment by segment, and
    # the ties are found in every tile whose largest exponent is the
    # segment's
    tile = thermo._TILE
    rng = np.random.default_rng(5)
    L = rng.uniform(2.0, 40.0, 32 * tile + 1000)
    segments = ((1, 0, 16 * tile - 300), (3, 16 * tile - 300, 32 * tile + 77),
                (6, 32 * tile + 77, L.size))
    for (_, start, stop), lo in zip(segments, (1.955, 1.729, 0.99)):
        at = start + rng.choice(stop - start, 12, replace=False)
        L[at[:4]] = lo
        L[at[4:8]] = np.nextafter(lo, np.inf)
        L[at[8:]] = np.nextafter(np.nextafter(lo, np.inf), np.inf)
    Lm = thermo._with_minima(L.copy(), segments)
    assert Lm.minima == tuple(float(L[i:min(i + tile, stop)].min())
                              for _, start, stop in segments for i in range(start, stop, tile))
    for lo in (1.955, 1.729):  # the planted minimum in at least two tiles
        assert Lm.minima.count(lo) >= 2
    ties = []
    for t in (1e-3, 0.5, 1.0, 7.0):
        assert _same_bits(thermo._log_partition(Lm, None, t), _pass_reference(L, None, t, segments))
        ties.append([int(np.count_nonzero(a == a.max()))
                     for a in (-t * L[start:stop] for _, start, stop in segments)])
    # values above a minimum round onto the maximum: segment 0 at
    # t = 1e-3, segment 1 at t = 7
    assert ties[0][0] > 4 and ties[3][1] > 4


def _fallback_cases(size):
    # (L, phi, t) over ``size`` values: the maximum found tile by tile
    # (phi given, t <= 0), and the stored minima where fl(-t min L) is not
    # a normal float, is 0 or is not finite, or where many values tie
    rng = np.random.default_rng(6)
    base = rng.uniform(2.0, 40.0, size)
    phi = rng.uniform(-1.0, 1.0, size)
    cases = [(base, phi, 0.8),  # phi given
             (base, None, 0.0), (base, None, -0.5),  # t <= 0
             (base, None, 1e-320), (base, None, 1e308)]  # t min L not normal
    zero = base.copy()
    zero[3] = 0.0  # minimum 0: fl(-t min L) = 0
    cases.append((zero, None, 1.0))
    for bad in (-np.inf, np.nan):  # minimum not finite
        L = base.copy()
        L[size - 7] = bad
        cases.append((L, None, 1.0))
    crowded = base.copy()
    crowded[:65] = 1.5  # many ties in one tile
    cases.append((crowded, None, 1.0))
    return cases


def test_log_partition_minima_fallbacks_bit_identical():
    # over 17 tiles, the fallbacks keep the bits of the unstreamed
    # segment; so does a +inf exponent beside tiles whose finite sums add
    # past the largest float (about a quarter of it each), where fsum raises
    size = 16 * thermo._TILE + 500
    cases = _fallback_cases(size)
    huge = 0.8 * cases[0][0] + 698.0
    huge[5] = np.inf
    cases.append((cases[0][0], huge, 0.8))
    for L, p, t in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            value = thermo._log_partition(thermo._with_minima(L.copy()), p, t)
            assert _same_bits(value, _segment_reference(L, p, t)), (p is None, t)
    assert value == math.inf  # the last case
    assert thermo._with_minima(cases[-2][0].copy()).minima[0] == 1.5


def test_log_partition_of_one_tile_is_logsumexp_bit_for_bit():
    # a level of one segment of at most a tile is one _logsumexp, bit for
    # bit, on every path: the minima shortcut, phi given, t <= 0, and the
    # fallbacks of a non-finite or crowded minimum.  So every golden at a
    # small q keeps its bits
    g = ts.gauss_system()
    harm = ts.harmonic_potential()
    cases = []
    for q in (100, 181):  # 10,000 and 32,761 words
        L, phi = thermo._level_arrays(g, harm, q, 2, 1)
        assert isinstance(L, thermo._LevelArray) and L.segments == ((1, 0, q * q),)
        cases += [(L, None, t) for t in (0.6, 1.0, 1.6)] + [(L, phi, 1.0), (L, None, -0.5)]
    for size in (100, 10_000, thermo._TILE):
        cases += [(thermo._with_minima(L.copy()), p, t)
                  for L, p, t in _fallback_cases(size)]
    for L, p, t in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _logsumexp(-t * L if p is None else p - t * L)
            assert _same_bits(thermo._log_partition(L, p, t), expected), (len(L), p is None, t)


def _exact_log_partition(L, t):
    # log Z_n of a level from the max-shifted float exponentials e in
    # (0, 1], exactly: each segment's e split into columns of 30-bit
    # digits, whose sums are exact in floats (whole numbers below 2^53),
    # taken mult times and added with the log and the shift at 256 bits.
    # Only the digits past 2^-120 are summed inexactly, below 1e-29 of Z
    a_max = max(float((-t * L[start:stop]).max()) for _, start, stop in L.segments)
    columns = []
    for mult, start, stop in L.segments:
        e = np.exp(-t * L[start:stop] - a_max)
        for k in range(1, 5):
            e *= 2.0 ** 30
            digits = np.floor(e)
            e -= digits
            columns += [float(digits.sum()) * 2.0 ** (-30 * k)] * mult
        columns += [float(e.sum()) * 2.0 ** -120] * mult
    with mpmath.workprec(256):
        return float(mpmath.log(mpmath.fsum(columns)) + a_max)


def test_log_partition_accuracy_on_segments_past_a_tile():
    # every level here has a segment longer than a tile.  A pass is within
    # 1e-15 max(1, |log Z|) of the exactly summed log Z: the relative
    # error of log Z, or of Z itself where |log Z| < 1 (near the root)
    g = ts.gauss_system()
    worst = 0.0
    for q, n in ((200, 2), (200, 3), (60, 3), (40, 4)):
        L, _ = thermo._level_arrays(g, None, q, n, 1)
        assert max(stop - start for _, start, stop in L.segments) > thermo._TILE
        for t in np.linspace(0.6, 1.6, 11).tolist():
            exact = _exact_log_partition(L, t)
            error = abs(thermo._log_partition(L, None, t) - exact) / max(1.0, abs(exact))
            worst = max(worst, error)
    assert worst <= 1e-15, worst


def _row_exponents():
    # seeded t in (0, 20]: 1/2 and two points within 1e-9 of it, then
    # log-uniform draws over (1e-3, 20) and uniform ones over (0, 20]
    rng = np.random.default_rng(39)
    return ([0.5] + (0.5 + rng.uniform(-1e-9, 1e-9, 2)).tolist()
            + np.exp(rng.uniform(math.log(1e-3), math.log(20.0), 4)).tolist()
            + (20.0 - rng.uniform(0.0, 20.0, 2)).tolist())


_ROW_SYSTEMS = ((1, ts.gauss_system()), (20, ts.restricted_system(ts.gauss_system(), 20)),
                (10**6, ts.restricted_system(ts.gauss_system(), 10**6)))


def test_level3_rows_match_the_multiset_pass():
    # level 3 with no potential, summed as the array below digit H, the top
    # multisets and Euler-Maclaurin rows, against a pass over the whole
    # multiset array.  A pass rounds log Z as a_max + log S, so its own
    # error grows with |a_max| = t L_min (1.1e-15 of max(1, |log Z|) where
    # log Z crosses 0 on digits >= 20 and >= 10^6); the bound scales with
    # it.  Below H the level is that pass, bit for bit
    H = thermo._ROWS_FROM
    for N, system in _ROW_SYSTEMS:
        for q in (H - 1, H, H + 1, 100, 200, 300):
            L, _ = thermo._level_arrays(system, None, q, 3, 1)
            for t in _row_exponents():
                value = thermo._level_log_partition(system, None, q, 3, t, 1)
                ref = thermo._log_partition(L, None, t)
                if q < H:
                    assert _same_bits(value, ref), (N, q, t)
                else:
                    scale = max(1.0, abs(ref), t * min(L.minima))
                    assert abs(value - ref) <= 1e-15 * scale, (N, q, t, value, ref)
            thermo._level_sums.cache_clear()


def test_level3_rows_match_the_exact_level_sum():
    # against log Z summed exactly from the same multiset array, the rows
    # keep the bound of the passes past a tile: 1e-15 max(1, |log Z|)
    H = thermo._ROWS_FROM
    worst = 0.0
    for N, system in _ROW_SYSTEMS:
        for q in (H, H + 1, 100):
            L, _ = thermo._level_arrays(system, None, q, 3, 1)
            for t in _row_exponents():
                exact = _exact_log_partition(L, t)
                value = thermo._level_log_partition(system, None, q, 3, t, 1)
                worst = max(worst, abs(value - exact) / max(1.0, abs(exact)))
            thermo._level_sums.cache_clear()
    assert worst <= 1e-15, worst


def test_level3_rows_keep_the_arrays_where_they_do_not_apply(monkeypatch):
    # t <= 0, the log|T'| potential at t <= 1, any other potential, and a
    # failed remainder bound read the arrays, bit for bit; two workers give
    # the bits of one
    g = ts.gauss_system()
    L, _ = thermo._level_arrays(g, None, 100, 3, 1)
    for t in (0.0, -0.5, -3.0):
        assert _same_bits(thermo._level_log_partition(g, None, 100, 3, t, 1),
                          thermo._log_partition(L, None, t))
    logd = ts.log_deriv_potential()
    for t in (1.0, 0.5, -1.0):
        assert _same_bits(thermo._level_log_partition(g, logd, 100, 3, t, 1),
                          thermo._log_partition(L, L, t))
    harm = ts.harmonic_potential()
    assert _same_bits(thermo._level_log_partition(g, harm, 100, 3, 2.0, 1),
                      thermo._log_partition(*thermo._level_arrays(g, harm, 100, 3, 1), 2.0))
    for t in _row_exponents():
        assert _same_bits(thermo._level_log_partition(g, None, 200, 3, t, 2),
                          thermo._level_log_partition(g, None, 200, 3, t, 1))
    monkeypatch.setattr(level3, "_EM_TOL", -1.0)
    for t in (0.5, 1.0, 3.0):
        assert level3.log_partition(g, 100, t, 1) is None
        assert _same_bits(thermo._level_log_partition(g, None, 100, 3, t, 1),
                          thermo._log_partition(L, None, t))
    thermo._level_sums.cache_clear()


def test_log_deriv_level3_reads_the_rows_at_t_minus_1():
    # phi - t L = -(t - 1) L for the log|T'| potential, so past t = 1 its
    # level 3 is the no-potential rows' value at t - 1, bit for bit, within
    # 1e-15 max(1, |log Z|) of the pass over the multiset array
    g = ts.gauss_system()
    logd = ts.log_deriv_potential()
    for N, system in _ROW_SYSTEMS[:2]:
        for q in (thermo._ROWS_FROM, 100, 200):
            L, _ = thermo._level_arrays(system, None, q, 3, 1)
            for t in (1.0 + 1e-9, 1.25, 1.5, 2.0, 3.0, 6.0):
                value = thermo._level_log_partition(system, logd, q, 3, t, 1)
                assert _same_bits(value, thermo._level_log_partition(system, None, q, 3, t - 1.0, 1))
                ref = thermo._log_partition(L, L, t)
                assert abs(value - ref) <= 1e-15 * max(1.0, abs(ref)), (N, q, t, value, ref)
            thermo._level_sums.cache_clear()
    # a cold call at q = 200 holds the rows, not the 10.8 MB multiset level;
    # levels 1 and 2 keep the bits of their passes
    level3._row_data.cache_clear()
    tracemalloc.start()
    try:
        est = ts.pressure(g, logd, t=1.5, q=200, n_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_000_000
    for n in (1, 2):
        assert _same_bits(est.values[n - 1],
                          thermo._log_partition(*thermo._level_arrays(g, logd, 200, n, 1), 1.5) / n)
    thermo._level_sums.cache_clear()


def test_level_partitions_within_their_a_priori_range():
    # the skip rule of the enumeration root: on physical digits N..N+q-1,
    # m^2 <= |T'| <= (m+1)^2 gives S_lo^n <= Z_n(t) <= S_hi^n for t > 0
    g = ts.gauss_system()
    for N, q in ((1, 30), (10, 20), (10**6, 10)):
        system = g if N == 1 else ts.restricted_system(g, N)
        for n in (1, 2, 3):
            L, phi = thermo._level_arrays(system, None, q, n, 1)
            for t in (0.55, 1.0, 3.0):
                S_hi = thermo._zeta_tail(2 * t, N) - thermo._zeta_tail(2 * t, N + q)
                S_lo = thermo._zeta_tail(2 * t, N + 1) - thermo._zeta_tail(2 * t, N + q + 1)
                logZ = thermo._log_partition(L, phi, t)
                slack = 1e-12 * max(1.0, abs(logZ))
                assert n * math.log(S_lo) - slack <= logZ <= n * math.log(S_hi) + slack


def test_pressure_root_criterion_2_bits_and_level_passes(monkeypatch):
    # level 3 is evaluated only where a bound or the point value can use
    # it: near the lower end the level-1 Hurwitz term already wins
    # max(lows), so its solve evaluates no level 3.  The bounds are solved
    # before the point, so the upper bound's lazy check evaluates level 3 at
    # t = 1.0 itself: 8 evaluations for the bracketed call, 9 for the
    # default bracket.  Each sums the rows past digit H, and no pass runs
    # over the C(202, 3) values of the whole level
    seen, evaluated = [], []
    real, real_rows = thermo._log_partition, level3.log_partition

    def counting(L, phi, t):
        seen.append((t, len(L)))
        return real(L, phi, t)

    def counting_rows(system, q, t, workers):
        evaluated.append(t)
        return real_rows(system, q, t, workers)

    monkeypatch.setattr(thermo, "_log_partition", counting)
    monkeypatch.setattr(level3, "log_partition", counting_rows)
    g = ts.gauss_system()
    res = ts.pressure_root(g, bracket=(0.8, 1.2), q=200, n_max=4)
    assert res.value.hex() == "0x1.feb062408f6fcp-1"
    assert [x.hex() for x in res.interval] == ["0x1.ba88a01dd1180p-1",
                                               "0x1.3333333333333p+0"]
    assert res.n_used == 3
    assert len(evaluated) == len(set(evaluated)) == 8
    assert max(size for _, size in seen) < math.comb(202, 3)
    evaluated.clear()
    res = ts.pressure_root(g, q=200, n_max=4)
    assert res.value.hex() == "0x1.feb0624084891p-1"
    assert [x.hex() for x in res.interval] == ["0x1.ba88a01dd052dp-1",
                                               "0x1.0000000000000p+1"]
    assert len(evaluated) == len(set(evaluated)) == 9
    assert max(size for _, size in seen) < math.comb(202, 3)


def test_pressure_root_criterion_2_holds_little_beyond_its_level():
    # a cold criterion-2 call holds levels 1 and 2 (320 kB), the level-3
    # array below digit H (350 kB) and the rows past it (1.4 MB), plus one
    # pass's scratch at a time: at most 4 MB traced, where the level-3
    # array of C(202, 3) values alone took 10.8 MB
    g = ts.gauss_system()
    thermo._level_sums.cache_clear()
    level3._row_data.cache_clear()
    tracemalloc.start()
    try:
        res = ts.pressure_root(g, bracket=(0.8, 1.2), q=200, n_max=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value.hex() == "0x1.feb062408f6fcp-1"
    assert peak <= 4_000_000


def test_locally_constant_bracket_flat_series():
    flat = ts.flat_example_system()
    lo, hi = ts.pressure_locally_constant_bracket(flat, None, t=0.5, coeff=0.0)
    # untilted series value log(K + C) at the critical exponent
    assert lo - 1e-12 <= math.log(1.15) <= hi + 1e-12
    assert hi - lo < 1e-6


def test_locally_constant_bracket_divergence():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    lo, hi = ts.pressure_locally_constant_bracket(inv, None, t=0.5, coeff=0.0)
    assert math.isinf(lo) and math.isinf(hi)


def test_locally_constant_tilted_monotone_in_coeff():
    flat = ts.flat_example_system()
    chi1 = ts.indicator_potential(1)
    vals = [ts.pressure_locally_constant(flat, chi1, t=0.6, coeff=c)
            for c in (-1.0, 0.0, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_s_infinity_gauss():
    res = ts.s_infinity(ts.gauss_system())
    assert res.value == 0.5
    assert res.s_lo <= 0.5 <= res.s_hi
    assert math.isfinite(res.certificate["series_upper_bound_at_s_hi"])
    assert math.isfinite(res.certificate["log10_terms_to_exceed_probe_at_s_lo"])
    assert res.method == "series-exponent"
    assert res.certificate["converges_at_value"] is False


def test_s_infinity_divergence_certificate_scale():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.s_infinity(inv)
    assert res.value == 0.5
    # just below s_inf the partial sums need astronomically many terms
    assert res.certificate["log10_terms_to_exceed_probe_at_s_lo"] > 1e4


@pytest.mark.parametrize("model, N, want", [
    ("gauss", 10**6, (1e6 + math.log(1e6 + 1.0)) / math.log(10.0)), ("flat", 5, None)])
def test_s_infinity_counts_from_the_first_tail_label(model, N, want):
    # a restricted system's divergence count starts at its own first label
    # N: restricted to digits >= 10^6 the Gauss count (now 434300.48) was
    # the full family's 434294.78, and flat_example restricted to digits
    # >= 5 gave the full system's count
    base = ts.gauss_system() if model == "gauss" else ts.flat_example_system()
    system = ts.restricted_system(base, N)
    res = ts.s_infinity(system)
    count = res.certificate["log10_terms_to_exceed_probe_at_s_lo"]
    assert count == system.tail.terms_to_exceed_log10(res.s_lo, 1e6, N)
    assert count != base.tail.terms_to_exceed_log10(res.s_lo, 1e6, 1)
    if want is not None:
        assert count == pytest.approx(want, rel=1e-15)


def test_linear_roots_and_rows_ignore_the_budget_environment(monkeypatch):
    # THERMOSPEC_BUDGET is read only where enumeration runs: a bad value
    # made every pressure_root raise ModelError before it dispatched, and a
    # Legendre row that reads the root with it
    chi1 = ts.indicator_potential(1)
    flat = ts.flat_example_system()
    systems = [ts.doubling_system(), flat, ts.powerlog_system([], c=0.5, a=2.0)]
    monkeypatch.delenv("THERMOSPEC_BUDGET", raising=False)
    roots = [ts.pressure_root(s) for s in systems]
    row = ts.legendre_solve(flat, chi1, 0.5)
    monkeypatch.setenv("THERMOSPEC_BUDGET", "foo")
    spectrum._repeller_root.cache_clear()
    assert [ts.pressure_root(s) for s in systems] == roots
    assert ts.legendre_solve(flat, chi1, 0.5) == row
    with pytest.raises(ts.ModelError, match="THERMOSPEC_BUDGET"):
        ts.pressure_root(ts.gauss_system(), bracket=(0.8, 1.2), q=200, n_max=4)


def test_s_infinity_finite_system():
    res = ts.s_infinity(ts.doubling_system())
    assert res.value == 0.0
    assert res.certificate == {"finite_system": True, "series_at_0": 2.0}


def _seeded_powerlog_systems():
    # one tail whose series converges at s_inf (d s_inf > 1) and one whose
    # series diverges there (d s_inf <= 1/2)
    rng = np.random.default_rng(290)
    systems = []
    for ratio in (rng.uniform(1.2, 3.0), rng.uniform(0.0, 0.5)):
        a = float(rng.uniform(1.5, 3.0))
        systems.append(ts.powerlog_system([], c=float(rng.uniform(0.05, 0.3)), a=a,
                                          b=float(rng.uniform(2.0, 5.0)), d=float(a * ratio)))
    return systems


_SINF_SYSTEMS = [("gauss", ts.gauss_system()), ("invsq", ts.powerlog_system([], c=0.5, a=2.0)),
                 ("flat_example", ts.flat_example_system())] + [
    (f"powerlog{i}", system) for i, system in enumerate(_seeded_powerlog_systems())]


@pytest.mark.parametrize("tol", [1e-3, 0.3, 1e-20])
@pytest.mark.parametrize("name, system", _SINF_SYSTEMS, ids=[c[0] for c in _SINF_SYSTEMS])
def test_s_infinity_carries_evidence_on_both_sides(name, system, tol):
    # s_inf itself is one end of the probe bracket, on the side where the
    # series decides there; the other end is tol away, or one float away
    # when tol is below the spacing.  Both certificate numbers are finite,
    # and the convergent bound at s_hi holds a 40-digit reference sum
    res = ts.s_infinity(system, tol=tol)
    assert res.value == ts.s_inf_exact(system)
    assert res.s_lo < res.s_hi <= res.s_lo + tol + math.ulp(res.value)
    assert (res.s_lo == res.value) != (res.s_hi == res.value)
    cert = res.certificate
    assert (res.s_hi == res.value) is cert["converges_at_value"]
    upper = cert["series_upper_bound_at_s_hi"]
    assert math.isfinite(upper)
    assert math.isfinite(cert["log10_terms_to_exceed_probe_at_s_lo"])
    with mpmath.workdps(40):
        s_hi = mpmath.mpf(res.s_hi)
        if name == "gauss":
            # (m+1)^-2s < (m (m+1))^-s < m^-2s puts the sum in [zeta - 1,
            # zeta]; the bound may pass zeta by its rounding allowance, which
            # one float above 1/2 (zeta = 2^52 + 0.58) reaches 5.4
            zeta = mpmath.zeta(2 * s_hi)
            assert zeta - 1 <= upper <= zeta + 1e-14 * upper
        else:
            head = mpmath.fsum(mpmath.mpf(b.diameter) ** s_hi for b in system.head)
            want = head + powerlog_series(system.tail, res.s_hi, len(system.head) + 1)
            assert ts.diam_series(system, res.s_hi)[0] <= want <= upper


@pytest.mark.parametrize("model, q, n_max", [
    ("gauss", 0, 3), ("gauss", -3, 2), ("gauss", 10, 0), ("doubling", None, 0),
])
def test_pressure_root_rejects_empty_truncations(model, q, n_max):
    # as in pressure; the Gauss cases returned a level-1 sandwich root
    system = ts.gauss_system() if model == "gauss" else ts.doubling_system()
    with pytest.raises(ts.ModelError, match="q and n_max must be >= 1"):
        ts.pressure_root(system, q=q, n_max=n_max)


_BAD_TOLERANCES = """
import contextlib, io, json, math
import thermospec as ts
from thermospec import cli
calls = {
    "root gauss -1": lambda: ts.pressure_root(ts.gauss_system(), tol=-1.0),
    "root gauss nan": lambda: ts.pressure_root(ts.gauss_system(), tol=math.nan),
    "root gauss inf": lambda: ts.pressure_root(ts.gauss_system(), tol=math.inf),
    "root (1/2, 1/4) -1": lambda: ts.pressure_root(ts.linear_system([0.5, 0.25]), tol=-1.0),
    "root flat -1": lambda: ts.pressure_root(ts.flat_example_system(), tol=-1.0),
    "sinf gauss nan": lambda: ts.s_infinity(ts.gauss_system(), tol=math.nan),
    "sinf gauss 0": lambda: ts.s_infinity(ts.gauss_system(), tol=0.0),
    "sinf gauss inf": lambda: ts.s_infinity(ts.gauss_system(), tol=math.inf),
    "sinf gauss -1": lambda: ts.s_infinity(ts.gauss_system(), tol=-1.0),
}
out = {}
for name, call in calls.items():
    try:
        call()
        out[name] = "returned"
    except ts.ModelError:
        out[name] = "ModelError"
with contextlib.redirect_stdout(io.StringIO()):
    out["cli root --tol -1"] = cli.main(["root", "--model", "gauss", "--tol", "-1"])
print(json.dumps(out))
"""


def test_tolerance_not_finite_and_nonnegative_raises():
    # a negative or NaN tol never reaches the root solver's stop width, so
    # the calls run in a child process with a timeout: a regression fails
    # here instead of hanging the run
    src = str(Path(thermo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _BAD_TOLERANCES], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("cli root --tol -1") == 3
    assert out == dict.fromkeys(out, "ModelError") and len(out) == 9


def test_zero_tolerance_root_still_solves():
    res = ts.pressure_root(ts.gauss_system(), tol=0.0)
    assert res.interval[0] <= res.value <= res.interval[1]
    assert abs(res.value - ts.pressure_root(ts.gauss_system()).value) < 1e-10
    res = ts.pressure_root(ts.linear_system([0.5, 0.25]), tol=0.0)
    assert res.value == pytest.approx(MORAN_HALF_QUARTER, abs=1e-15)


def _seeded_linear(draw):
    """A seeded finite linear system of two to six branches."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.uniform(0.2, 1.0, draw(st.integers(2, 6)))
    return ts.linear_system((0.9 * d / d.sum()).tolist())


@st.composite
def _enumerated_systems(draw):
    """The Gauss map, truncated by the pressure call's q, or a seeded
    finite linear system."""
    return ts.gauss_system() if draw(st.booleans()) else _seeded_linear(draw)


_LEVEL1 = st.sampled_from([None, ts.indicator_potential(1), ts.indicator_potential(2),
                           ts.harmonic_potential()])


def _within_ulps(a, b):
    # a <= b up to 4 ulps of summation order, on the scale of the values
    return a <= b + 4.0 * math.ulp(max(abs(a), abs(b), 1.0))


@settings(max_examples=40, deadline=None)
@given(system=_enumerated_systems(), potential=_LEVEL1, t=st.floats(0.1, 2.0),
       q=st.integers(1, 5), dq=st.integers(1, 2), n_max=st.integers(1, 3))
def test_pressure_values_do_not_decrease_in_q(system, potential, t, q, dq, n_max):
    # every word on q digits is a word on q + dq digits, and every term is
    # positive, so each level's value can only grow
    small = ts.pressure(system, potential, t=t, q=q, n_max=n_max).values
    large = ts.pressure(system, potential, t=t, q=q + dq, n_max=n_max).values
    assert all(_within_ulps(a, b) for a, b in zip(small, large)), (small, large)


@settings(max_examples=40, deadline=None)
@given(system=_enumerated_systems(), potential=_LEVEL1, t=st.floats(0.1, 2.0),
       dt=st.floats(1e-9, 1.0), q=st.integers(1, 6), n_max=st.integers(1, 3))
def test_pressure_values_do_not_increase_in_t(system, potential, t, dt, q, n_max):
    # log|(T^n)'| > 0 at every periodic point (diam < 1 on linear
    # branches), so each term e^(S_n phi - t log|(T^n)'|) falls as t grows
    low = ts.pressure(system, potential, t=t, q=q, n_max=n_max).values
    high = ts.pressure(system, potential, t=t + dt, q=q, n_max=n_max).values
    assert all(_within_ulps(b, a) for a, b in zip(low, high)), (low, high)


@st.composite
def _series_systems(draw):
    """The two built-in linear tail models, or a seeded finite linear system."""
    kind = draw(st.sampled_from(["flat", "invsq", "finite"]))
    if kind == "flat":
        return ts.flat_example_system()
    if kind == "invsq":
        return ts.powerlog_system([], c=0.5, a=2.0)
    return _seeded_linear(draw)


@settings(max_examples=40, deadline=None)
@given(system=_series_systems(),
       potential=st.one_of(st.integers(1, 4).map(ts.indicator_potential),
                           st.just(ts.harmonic_potential()),
                           st.floats(0.0, 2.0).map(ts.constant_potential)),
       t=st.floats(0.55, 1.5), coeff=st.floats(-5.0, 5.0), dc=st.floats(1e-3, 5.0))
def test_locally_constant_bracket_ends_do_not_decrease_in_coeff(system, potential, t,
                                                                coeff, dc):
    # with phi >= 0 every term e^(coeff phi(i)) diam(I_i)^t grows with coeff
    lo, hi = ts.pressure_locally_constant_bracket(system, potential, t, coeff)
    lo2, hi2 = ts.pressure_locally_constant_bracket(system, potential, t, coeff + dc)
    assert _within_ulps(lo, lo2) and _within_ulps(hi, hi2), (lo, hi, lo2, hi2)


def test_pressure_root_doubling():
    res = ts.pressure_root(ts.doubling_system())
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.method == "moran"
    assert res.interval[0] <= 1.0 <= res.interval[1]


def test_pressure_root_half_quarter():
    res = ts.pressure_root(ts.linear_system((0.5, 0.25)))
    assert res.value == pytest.approx(MORAN_HALF_QUARTER, abs=1e-12)
    assert res.residual == pytest.approx(0.0, abs=1e-12)


def test_pressure_root_series_invsq():
    inv = ts.powerlog_system([], c=0.5, a=2.0)
    res = ts.pressure_root(inv)
    assert res.method == "series"
    assert res.value == pytest.approx(INVSQ_ROOT, abs=5e-10)
    assert res.interval[0] <= INVSQ_ROOT <= res.interval[1]


def test_pressure_root_gauss_sandwich():
    res = ts.pressure_root(ts.gauss_system())
    assert res.method == "level1-sandwich"
    assert res.interval[0] <= 1.0 <= res.interval[1]
    assert abs(res.value - 1.0) < 0.05


def test_pressure_root_level_four_narrows_the_gauss_interval():
    # from level 4 on the per-level bounds beat the level-1 sandwich: the
    # upper end falls from the bracket end 2 to about 1.698
    res = ts.pressure_root(ts.gauss_system(), q=40, n_max=4)
    assert res.n_used == 4
    assert res.interval[0] <= 1.0 <= res.interval[1] < 1.75


def test_pressure_root_restricted_family():
    g = ts.gauss_system()
    # 40-digit roots of the level-1 proxy sum_{m >= N} (m (m+1))^(-t) = 1,
    # which the midpoint of the diam_series bracket meets to rounding
    want = {10: 0.69951253745962373, 100: 0.63899374100395037,
            1000: 0.60975657598494303}
    for N, frozen in want.items():
        res = ts.pressure_root(ts.restricted_system(g, N))
        assert res.value == pytest.approx(frozen, abs=1e-12)


# certified intervals of the digits >= N roots on the benchmark's seed-0 ladder
_LADDER_INTERVALS = {
    2: ("0x1.9531aa90d3876p-1", "0x1.ba88a01dd16c8p-1"),
    5: ("0x1.7531fde7332fbp-1", "0x1.7ba272987f063p-1"),
    10: ("0x1.651cf473c2fa2p-1", "0x1.673cd70961db6p-1"),
    20: ("0x1.5947758850329p-1", "0x1.5a0b9a559dc73p-1"),
    100: ("0x1.471f1a4ce0175p-1", "0x1.4735503a402ebp-1"),
    1000: ("0x1.383162f4e1e0dp-1", "0x1.3832a43a2fcb2p-1"),
    10 ** 4: ("0x1.2f12283cd93a0p-1", "0x1.2f123d4bd7731p-1"),
    10 ** 6: ("0x1.243b1a95d8bd6p-1", "0x1.243b1ab2f4e14p-1"),
    10 ** 12: ("0x1.16854cdc3137bp-1", "0x1.16854cdc3251fp-1"),
    10 ** 45: ("0x1.086ebab10b922p-1", "0x1.086ebab10cabcp-1"),
}


def test_pressure_root_restricted_work_count():
    # the Hurwitz bounds are solved first and the point solve starts inside
    # their interval, so the ladder takes at most 50 diam_series brackets,
    # and at most 4 where the interval is narrower than the tolerance; the
    # intervals keep their bits
    g = ts.gauss_system()
    cache = ts.systems._diam_series_cached
    cache.cache_clear()
    for N, pinned in _LADDER_INTERVALS.items():
        misses = cache.cache_info().misses
        res = ts.pressure_root(ts.restricted_system(g, N))
        assert [x.hex() for x in res.interval] == list(pinned)
        if N >= 10 ** 12:
            assert cache.cache_info().misses - misses <= 4
    assert cache.cache_info().misses <= 50


def test_pressure_root_enumeration_work_count(monkeypatch):
    # the point value and the certified bounds share one log-partition
    # pass per distinct (t, level)
    seen = []
    real = thermo._log_partition

    def counting(L, phi, t):
        seen.append((t, len(L)))
        return real(L, phi, t)

    monkeypatch.setattr(thermo, "_log_partition", counting)
    res = ts.pressure_root(ts.gauss_system(), bracket=(0.8, 1.2), q=200, n_max=2)
    assert res.n_used == 2
    assert len(seen) == len(set(seen))
    assert len(seen) <= 40


def test_pressure_root_budget_caps_enumeration_depth():
    # 200 + 200^2 words fit the budget, 200^3 more do not
    g = ts.gauss_system()
    capped = ts.pressure_root(g, q=200, n_max=4, budget=200 + 200 ** 2)
    assert capped.n_used == 2
    assert capped == ts.pressure_root(g, q=200, n_max=2)


def test_pressure_harmonic_enumeration_values_pinned():
    # level-1 potential sums index no q-sized table, and the values stay
    est = ts.pressure(ts.gauss_system(), ts.harmonic_potential(), t=1.0, q=100, n_max=3)
    assert est.values == (0.559848229880013, 0.6527154983137293, 0.6197001784130428)


_EPS = np.finfo(float).eps


@pytest.mark.parametrize("fn, lo, hi", [
    (lambda x: x ** 3 - 2.0, 0.0, 3.0),
    (lambda x: math.expm1(50.0 * (x - 0.7)), 0.0, 1.0),
    (lambda x: (x - 0.4) ** 3, 0.0, 1.0),
    (lambda x: x - 0.25 if x < 0.25 else 1e-3 * (x - 0.25) + 1e-9, 0.0, 1.0),
    (lambda x: -math.inf if x < 0.2 else math.log(x / 0.5), 0.1, 1.0),
    (lambda x: x - 1e-20, -1.0, 1.0),
    (lambda x: -math.log(0.5 ** x + 0.25 ** x), 0.0, 1.0),
], ids=["cubic", "steep", "triple-zero", "kink", "minus-inf", "near-zero", "moran"])
@pytest.mark.parametrize("tol", [1e-15, 1e-12, 1e-10])
def test_root_helper_returns_final_bracket(fn, lo, hi, tol):
    x, a, b = thermo._root(fn, lo, hi, tol=tol)
    assert lo <= a <= b <= hi
    assert x in (a, b)
    assert a < b or fn(x) == 0.0  # a rounded value may hit zero exactly
    assert fn(a) <= 0.0 <= fn(b)
    assert b - a <= tol + 4.0 * _EPS * abs(x)


def test_root_helper_exact_zero_and_clamped_ends():
    root = thermo._root
    # exact zeros, at the first midpoint and at either end
    assert root(lambda x: x - 0.5, 0.0, 1.0) == (0.5, 0.5, 0.5)
    assert root(lambda x: x, 0.0, 1.0) == (0.0, 0.0, 0.0)
    assert root(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 1.0, 1.0)
    # no sign change within the limits: the end the zero lies beyond
    assert root(lambda x: x + 5.0, 0.0, 1.0) == (0.0, 0.0, 0.0)
    assert root(lambda x: x + 5.0, 0.0, 1.0, (-2.0, 3.0)) == (-2.0, -2.0, -2.0)
    assert root(lambda x: x - 5.0, 0.0, 1.0, (-2.0, 3.0)) == (3.0, 3.0, 3.0)


_SCIPY_ROOT_FINDERS = {"brentq", "brenth", "bisect", "ridder", "toms748",
                       "newton", "root_scalar", "elementwise"}


def test_one_root_solver_in_source():
    # every bracketed root goes through thermo._root, which returns the
    # final bracket that certified ends are read from
    hits = []
    for path in sorted(Path(ts.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = set()
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = {a.name for a in node.names} | set(node.module.split("."))
            elif isinstance(node, ast.Import):
                names = {part for a in node.names if a.name.startswith("scipy")
                         for part in a.name.split(".")}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.FunctionDef) and node.name in ("_bisect_root", "_root_ends"):
                names = {node.name}
            if names & (_SCIPY_ROOT_FINDERS | {"_bisect_root", "_root_ends"}):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_pressure_roots_solve_only_in_certified_root():
    # every pressure root reaches _root through _certified_root, so a new
    # path supplies a (lower, point, upper) triple instead of its own solves
    tree = ast.parse(Path(thermo.__file__).read_text(encoding="utf-8"))
    certified = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "_certified_root")

    def uses(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Name) and node.id == "_root"]

    assert uses(certified)
    assert uses(tree) == uses(certified)


def _hurwitz_root(first):
    """Root t of zeta(2t, first) = 1 at 30 digits, by bisection."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf("0.5"), mpmath.mpf(1)
        for _ in range(110):
            mid = (lo + hi) / 2
            if mpmath.zeta(2 * mid, first) > 1:
                lo = mid
            else:
                hi = mid
        return float(lo), float(hi)


def test_pressure_root_restricted_family_inside_hurwitz_sandwich():
    # |T'| lies between m^2 and (m+1)^2 on digit m, so the dimension of the
    # digits >= N set lies between the roots of zeta(2t, N+1) = 1 and
    # zeta(2t, N) = 1
    g = ts.gauss_system()
    for N in (10 ** 6, 10 ** 45):
        lo = _hurwitz_root(N + 1)[0]
        hi = _hurwitz_root(N)[1]
        res = ts.pressure_root(ts.restricted_system(g, N))
        assert lo - 1e-10 <= res.value <= hi + 1e-10
        # certified ends round outward, so the interval holds the sandwich
        assert res.interval[0] <= lo + 1e-15 and res.interval[1] >= hi - 1e-15
        assert res.interval[0] <= res.value <= res.interval[1]


def test_pressure_root_restricted_family_far_out():
    # at t = 2 the Hurwitz sums past N = 10**120 underflow to 0; their logs
    # are -inf, and the roots keep falling towards 1/2 as N grows
    g = ts.gauss_system()
    values = []
    for N in (10 ** 100, 10 ** 120, 10 ** 150):
        res = ts.pressure_root(ts.restricted_system(g, N))
        assert math.isfinite(res.value)
        assert res.interval[0] <= res.value <= res.interval[1]
        values.append(res.value)
    assert values[0] > values[1] > values[2] > 0.5


def test_pressure_root_bad_bracket():
    with pytest.raises(ts.BracketError):
        ts.pressure_root(ts.doubling_system(), bracket=(1.5, 2.0))
    with pytest.raises(ts.BracketError):
        ts.pressure_root(ts.doubling_system(), bracket=(2.0, 1.0))


def test_truncated_pressure_increases_with_q():
    g = ts.gauss_system()
    vals = [ts.pressure(g, t=1.0, q=q, n_max=2).values[-1]
            for q in (8, 16, 32, 64)]
    assert vals == sorted(vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
