"""Independent oracles and samplers used to validate the other modules.

Everything here is deliberately low-tech: closed forms in extended
precision, exact integer arithmetic for continued-fraction cylinders, and
deterministic symbol schedulers.  None of it reuses the numerical paths it
is checking beyond the module calls under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product, repeat

import mpmath
import numpy as np

from ._frozen import frozen
from .errors import InvalidWordError, ModelError, UnsupportedPotentialError
from .systems import (
    BranchSystem,
    Potential,
    Tail,
    branch,
    check_word,
    diam_series,
    diameters,
    flat_example_system,
    gauss_system,
    harmonic_potential,
    indicator_potential,
    is_linear,
    linear_system,
    log_deriv_potential,
    powerlog_system,
    restricted_system,
)

__all__ = [
    "OracleReport",
    "OrbitSample",
    "besicovitch_eggleston",
    "moran_root",
    "powerlog_series",
    "cf_cylinder_matrix",
    "cf_periodic_point",
    "cf_orbit_log_deriv",
    "cf_cylinder_diameter_exact",
    "sample_orbit",
    "canonical_cylinder",
    "truncation_ladder_check",
    "verification_suite",
]

_DPS = 50
_LAYOUT_CAP = 1_000_000  # largest digit resolved by explicit prefix sums


@frozen
class OracleReport:
    quantity: str
    oracle_value: float
    module_value: float
    abs_difference: float
    tolerance: float
    passed: bool


def _report(quantity: str, oracle_value: float, module_value: float,
            tolerance: float) -> OracleReport:
    diff = abs(float(oracle_value) - float(module_value))
    return OracleReport(quantity=quantity, oracle_value=float(oracle_value),
                        module_value=float(module_value), abs_difference=diff,
                        tolerance=float(tolerance), passed=diff <= tolerance)


# ---------------------------------------------------------------------------
# closed forms


def besicovitch_eggleston(p, r) -> float:
    """Dimension of a digit-frequency set: (-sum p log p)/(-sum p log r).

    Evaluated in extended precision.  Zero-entropy vectors (a single atom)
    give 0 regardless of r; entries with p_i = 0 drop out of both sums.
    """
    p = [float(x) for x in p]
    r = [float(x) for x in r]
    if len(p) != len(r):
        raise ModelError("frequency and diameter vectors must have equal length")
    if any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-9:
        raise ModelError("frequencies must be nonnegative and sum to 1")
    if any(not 0.0 < x < 1.0 for x in r):
        raise ModelError("diameters must lie in (0, 1)")
    with mpmath.workdps(_DPS):
        h = -mpmath.fsum(mpmath.mpf(x) * mpmath.log(x) for x in p if x > 0)
        lam = -mpmath.fsum(mpmath.mpf(x) * mpmath.log(rr)
                           for x, rr in zip(p, r) if x > 0)
        if h == 0:
            return 0.0
        return float(h / lam)


def moran_root(r) -> float:
    """Root t of sum r_i^t = 1 for a finite diameter vector, to 1e-12."""
    r = [float(x) for x in r]
    if not r or any(not 0.0 < x < 1.0 for x in r):
        raise ModelError("need at least one diameter in (0, 1)")

    def total(t):
        return sum(x ** t for x in r)

    if abs(total(0.0) - 1.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while total(hi) > 1.0:
        hi *= 2.0
        if hi > 1e6:
            raise ModelError("Moran equation has no root below 1e6")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if total(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def powerlog_series(tail: Tail, s, first: int) -> mpmath.mpf:
    """sum_{m >= first} (c m^-a log(m + b)^-d)^s of a power-log tail, in
    40-digit arithmetic.

    The parameters are the tail's floats taken exactly, so p = a s and
    r = d s carry no rounding.  A hundred terms are summed explicitly; the
    rest is the Euler-Maclaurin formula at N = first + 100 with six
    Bernoulli terms and mpmath's numerical derivatives.  Its integral, with
    u = log(x + b) and (1 - b e^-u)^(-p) expanded binomially, is
    sum_k binom(p+k-1, k) b^k L^(1-r) E_r((p-1+k) L), L = log(N + b), from
    mpmath's expint.  A divergent series gives inf.
    """
    with mpmath.workdps(40):
        c, a, b, d, s = (mpmath.mpf(float(v)) for v in (tail.c, tail.a, tail.b, tail.d, s))
        cs, p, r = c ** s, a * s, d * s
        if p < 1 or (p == 1 and r <= 1):
            return mpmath.inf

        def f(x):
            return cs * x ** -p * mpmath.log(x + b) ** -r

        N = first + 100
        L = mpmath.log(N + b)
        integral, k, term = mpmath.mpf(0), 0, mpmath.mpf(1)
        while abs(term) > mpmath.eps * abs(integral):
            term = (mpmath.binomial(p + k - 1, k) * b ** k * L ** (1 - r)
                    * mpmath.expint(r, (p - 1 + k) * L))
            integral += term
            k += 1
        total = mpmath.fsum(f(mpmath.mpf(m)) for m in range(first, N))
        total += cs * integral + f(N) / 2
        # derivatives in x = N (1 + t), on the scale f varies on
        derivs = list(mpmath.diffs(lambda t: f(N * (1 + t)), 0, 12))
        for k in range(1, 7):
            total -= (mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)
                      * derivs[2 * k - 1] / mpmath.mpf(N) ** (2 * k - 1))
        return +total


# ---------------------------------------------------------------------------
# exact continued-fraction cylinders via integer Moebius products
#
# The inverse branch x -> 1/(m + x) is the Moebius action of [[0, 1], [1, m]].
# Products over a word stay in integer arithmetic, so fixed points, orbit
# log-derivatives and cylinder endpoints come out exact (up to one square
# root taken in extended precision).


def cf_cylinder_matrix(word) -> tuple[int, int, int, int]:
    """(A, B, C, D) with psi_word(x) = (A x + B)/(C x + D), exact integers."""
    word = tuple(int(m) for m in word)
    if not word or any(m < 1 for m in word):
        raise InvalidWordError("continued-fraction digits must be >= 1")
    A, B, C, D = 1, 0, 0, 1
    for m in word:
        # right-multiply by [[0, 1], [1, m]]
        A, B = B, A + B * m
        C, D = D, C + D * m
    return A, B, C, D


def cf_periodic_point(word) -> mpmath.mpf:
    """Fixed point of psi_word in its cylinder: the positive root of
    C x^2 + (D - A) x - B = 0, in extended precision."""
    A, B, C, D = cf_cylinder_matrix(word)
    with mpmath.workdps(_DPS):
        disc = mpmath.sqrt(mpmath.mpf((D - A) ** 2 + 4 * B * C))
        return (mpmath.mpf(A - D) + disc) / (2 * C)


def cf_orbit_log_deriv(word) -> mpmath.mpf:
    """log |(T^n)'(x)| at the periodic point of the word: 2 log(C x + D).

    The derivative of the Moebius inverse branch at x is det/(C x + D)^2
    with determinant +-1, so the forward orbit derivative is (C x + D)^2.
    """
    A, B, C, D = cf_cylinder_matrix(word)
    with mpmath.workdps(_DPS):
        disc = mpmath.sqrt(mpmath.mpf((D - A) ** 2 + 4 * B * C))
        x = (mpmath.mpf(A - D) + disc) / (2 * C)
        return 2 * mpmath.log(C * x + D)


def cf_cylinder_diameter_exact(word) -> Fraction:
    """|psi_word([0,1])| = 1/(D (C + D)) as an exact rational."""
    _, _, C, D = cf_cylinder_matrix(word)
    return Fraction(1, D * (C + D))


# ---------------------------------------------------------------------------
# deterministic orbit sampler


@frozen
class OrbitSample:
    """Deterministic orbit construction over a finite horizon.

    ``points[m-1]`` is the image of the base point under the inverse-branch
    composition of the first m symbols; ``averages`` holds one running
    Birkhoff-average array per requested potential; ``frequencies`` maps
    each recipe digit (or each observed digit in word mode) to its
    empirical frequency.
    """

    word: tuple
    points: np.ndarray
    averages: tuple
    frequencies: dict
    escape_frequency: float = 0.0


def _schedule_symbols(system: BranchSystem, recipe, n: int):
    """Deficit round-robin over the recipe digits plus an escape slot.

    Each step emits the digit whose target count target*step is furthest
    ahead of its emitted count.  The escape slot (mass 1 - sum recipe)
    emits digit (k+1) * 2^v on its v-th visit, so every fixed digit's
    frequency converges to the recipe and the escape digits go to
    infinity.
    """
    p = np.asarray(list(recipe), dtype=float)
    if p.ndim != 1 or len(p) == 0 or np.any(p < 0):
        raise ModelError("recipe must be a nonempty vector of nonnegative frequencies")
    if not np.all(np.isfinite(p)):
        raise ModelError(f"recipe frequencies must be finite, got {p.tolist()}")
    if p.sum() > 1.0 + 1e-12:
        raise ModelError("recipe frequencies must sum to at most 1")
    k = len(p)
    count = system.branch_count()
    if count is not None and k > count:
        raise ModelError(f"recipe names {k} digits, system has {count}")
    deficit = max(0.0, 1.0 - float(p.sum()))
    if deficit > 1e-12 and count is not None:
        raise ModelError("deficit escape requires an infinite branch family")
    targets = np.append(p, deficit) if deficit > 1e-12 else p
    counts = np.zeros(len(targets))
    word = []
    visits = 0
    for step in range(1, n + 1):
        slot = int(np.argmax(targets * step - counts))
        counts[slot] += 1
        if deficit > 1e-12 and slot == k:
            if (k + 1) * 2 ** visits > 1e300:
                raise ModelError(
                    "escape digits exceed the floating-point range at this "
                    "horizon; shorten the horizon or raise the recipe mass")
            word.append((k + 1) * 2 ** visits)
            visits += 1
        else:
            word.append(slot + 1)
    freqs = {i + 1: counts[i] / n for i in range(k)} if n else {}
    escape = counts[k] / n if (deficit > 1e-12 and n) else 0.0
    return word, freqs, escape


def _linear_layout(system: BranchSystem, word):
    """Left endpoint and diameter of each branch in the canonical layout.

    Branches tile [0, sum diam] in index order.  Digits beyond the explicit
    prefix window get their left endpoint as a series difference: total
    mass minus the certified tail bracket midpoint from the digit on.
    """
    small = [d for d in word if d <= _LAYOUT_CAP]
    prefix = max(small) if small else 1
    d = diameters(system, prefix)
    lefts = np.concatenate([[0.0], np.cumsum(d)])
    total = None
    if any(dd > _LAYOUT_CAP for dd in word):
        s_lo, s_hi = diam_series(system, 1.0)
        total = 0.5 * (s_lo + s_hi)

    def at(i: int):
        if i <= prefix:
            return float(lefts[i - 1]), float(d[i - 1])
        m = i + system.offset
        t_lo, t_hi = system.tail.bracket(1.0, m)
        return total - 0.5 * (t_lo + t_hi), system.tail.diameter(m)

    return at


def _symbol_values(system: BranchSystem, potential: Potential, word):
    """Per-symbol potential values phi(T^{j-1} x) for locally constant phi,
    one scalar ``value`` call per symbol (escape digits may exceed int64)."""
    if potential.level != 1:
        raise UnsupportedPotentialError("orbit averages support level-1 potentials")
    return np.array([potential.value(system, (w,)) for w in word])


def _compose_points(system: BranchSystem, word, base: float) -> np.ndarray:
    n = len(word)
    points = np.empty(n)
    if is_linear(system):
        at = _linear_layout(system, word)
        A, scale = 0.0, 1.0
        for m, w in enumerate(word, 1):
            left, dd = at(w)
            A += scale * left
            scale *= dd
            points[m - 1] = A + scale * base
        return points
    inv = {}
    for m in range(1, n + 1):
        y = base
        for j in range(m, 0, -1):
            w = word[j - 1]
            if w not in inv:
                inv[w] = branch(system, w).inverse
            y = inv[w](y)
        points[m - 1] = y
    return points


def canonical_cylinder(system: BranchSystem, word) -> tuple[float, float]:
    """Endpoints of the cylinder of a word, consistent with sample_orbit.

    Linear systems use the canonical contiguous layout; analytic systems
    compose the inverse branches from both ends of [0, 1].
    """
    word = tuple(int(w) for w in word)
    if not word:
        return 0.0, 1.0
    lo = _compose_points(system, word, 0.0)[-1]
    hi = _compose_points(system, word, 1.0)[-1]
    return (lo, hi) if lo <= hi else (hi, lo)


def sample_orbit(system: BranchSystem, recipe=None, word=None, *, n: int,
                 potentials=(), base: float = 0.5) -> OrbitSample:
    """Build an orbit from a frequency recipe or an explicit word stream.

    Exactly one of ``recipe`` and ``word`` must be given.  Recipes are
    realized by the deficit round-robin scheduler (deterministic; any
    missing mass escapes through digits that double on every visit).  The
    m-th trace point is the backward composition of the first m inverse
    branches applied to ``base``, so it lies in the m-cylinder of the word.
    Horizon 0 yields an empty trace.
    """
    if (recipe is None) == (word is None):
        raise ModelError("provide exactly one of recipe or word")
    if n < 0:
        raise ModelError("horizon must be >= 0")
    escape = 0.0
    if recipe is not None:
        symbols, freqs, escape = _schedule_symbols(system, recipe, n)
    else:
        symbols = [int(w) for w in islice(word, n)]
        if len(symbols) < n:
            raise ModelError(f"word stream ended after {len(symbols)} of {n} symbols")
        if symbols:
            check_word(system, symbols)
        freqs = {}
        if symbols:
            uniq, cnt = np.unique(symbols, return_counts=True)
            freqs = {int(u): c / n for u, c in zip(uniq, cnt)}
    pots = tuple(potentials)
    if n == 0:
        return OrbitSample(word=(), points=np.empty(0),
                           averages=tuple(np.empty(0) for _ in pots),
                           frequencies={}, escape_frequency=0.0)
    points = _compose_points(system, symbols, base)
    steps = np.arange(1, n + 1, dtype=float)
    averages = tuple(np.cumsum(_symbol_values(system, pot, symbols)) / steps
                     for pot in pots)
    return OrbitSample(word=tuple(symbols), points=points, averages=averages,
                       frequencies=freqs, escape_frequency=escape)


# ---------------------------------------------------------------------------
# ladder checks


def truncation_ladder_check(evaluator, ladder) -> list[OracleReport]:
    """Monotonicity along a (q, n) ladder plus a final-gap estimate.

    ``evaluator(q, n)`` is re-evaluated at every rung; each consecutive
    pair yields a report whose difference is the monotonicity violation
    (0 when nondecreasing) against a 1e-12 tolerance, followed by one
    informational report carrying the final gap.
    """
    rungs = [(int(q), int(n)) for q, n in ladder]
    if not rungs:
        raise ModelError("ladder must contain at least one rung")
    for (q1, n1), (q2, n2) in zip(rungs, rungs[1:]):
        if q2 < q1 or n2 < n1 or (q2, n2) == (q1, n1):
            raise ModelError("ladder must be strictly increasing")
    values = [float(evaluator(q, n)) for q, n in rungs]
    reports = []
    for k in range(1, len(values)):
        violation = max(0.0, values[k - 1] - values[k])
        reports.append(OracleReport(
            quantity=f"monotone rung {rungs[k - 1]} -> {rungs[k]}",
            oracle_value=values[k - 1], module_value=values[k],
            abs_difference=violation, tolerance=1e-12,
            passed=violation <= 1e-12))
    gap = abs(values[-1] - values[-2]) if len(values) >= 2 else 0.0
    reports.append(OracleReport(
        quantity="final gap", oracle_value=values[-2] if len(values) >= 2 else values[-1],
        module_value=values[-1], abs_difference=gap, tolerance=math.inf,
        passed=True))
    return reports


# ---------------------------------------------------------------------------
# shipped validation suite


def _thermo_reports() -> list[OracleReport]:
    from .thermo import pressure, pressure_locally_constant, pressure_root, s_infinity

    out = []
    with mpmath.workdps(_DPS):
        log2 = float(mpmath.log(2))
        log34 = float(mpmath.log(mpmath.mpf(3) / 4))
        golden = float((mpmath.sqrt(5) - 1) / 2)
        log115 = float(mpmath.log(mpmath.mpf("1.15")))

    doubling = linear_system([0.5, 0.5])
    half_quarter = linear_system([0.5, 0.25])
    gauss = gauss_system()

    out.append(_report("pressure of the doubling model at t=0",
                       log2, pressure(doubling, t=0.0).extrapolated, 1e-12))
    out.append(_report("pressure of (1/2,1/4) at t=1",
                       log34, pressure(half_quarter, t=1.0).extrapolated, 1e-12))

    # dual route: enumerated level-3 value against the exact integer-matrix
    # periodic sum over all 64 words on digits 1..4
    with mpmath.workdps(_DPS):
        total = mpmath.mpf(0)
        for w1 in range(1, 5):
            for w2 in range(1, 5):
                for w3 in range(1, 5):
                    total += mpmath.e ** (-cf_orbit_log_deriv((w1, w2, w3)))
        v3_oracle = float(mpmath.log(total) / 3)
    v3_module = pressure(gauss, t=1.0, q=4, n_max=3).values[2]
    out.append(_report("Gauss level-3 periodic sum at t=1, q=4",
                       v3_oracle, v3_module, 1e-14))

    # level 3 past the digit where its rows start: every word's term
    # mu^-2 = 4 / (T + sqrt(T^2 + 4))^2 from its integer continuant trace
    # T = abc + a + b + c, added exactly rounded
    digits = np.arange(1, 101, dtype=np.int64)
    bc, b_c = digits[:, None] * digits[None, :], digits[:, None] + digits[None, :]

    def terms(a):  # the words (a, b, c)
        T = (a * bc + a + b_c).astype(float)
        return (4.0 / (T + np.sqrt(T * T + 4.0)) ** 2).ravel().tolist()

    v3_oracle = math.log(math.fsum(x for a in digits.tolist() for x in terms(a))) / 3
    v3_module = pressure(gauss, t=1.0, q=100, n_max=3).values[2]
    out.append(_report("Gauss level-3 periodic sum at t=1, q=100, exactly added",
                       v3_oracle, v3_module, 1e-15))

    # closed-form orbit sums past the float range of the continuants
    words = list(product((1, 2), repeat=8))
    sums = log_deriv_potential().birkhoff_sums(restricted_system(gauss, 10**45), np.array(words).T)
    exact = [cf_orbit_log_deriv([m + 10**45 - 1 for m in w]) for w in words]
    i = max(range(len(words)), key=lambda i: abs(sums[i] - exact[i]) / exact[i])
    out.append(_report("worst log|T'| orbit sum of 256 length-8 words on digits >= 1e45",
                       exact[i], sums[i], 4.4e-16 * float(exact[i])))

    out.append(_report("pressure root of the doubling model",
                       1.0, pressure_root(doubling).value, 1e-10))
    out.append(_report("pressure root of (1/2,1/4) vs Moran bisection",
                       moran_root([0.5, 0.25]), pressure_root(half_quarter).value,
                       1e-9))

    out.append(_report("critical exponent of the continued-fraction family",
                       0.5, s_infinity(gauss).value, 1e-3))
    invsq = powerlog_system([], c=0.5, a=2.0)
    out.append(_report("critical exponent of the inverse-square tail",
                       0.5, s_infinity(invsq).value, 1e-3))

    flat = flat_example_system()
    out.append(_report("untilted series of the two-block family at delta",
                       log115, pressure_locally_constant(flat, None, t=0.5, coeff=0.0),
                       1e-12))
    tail_lo, tail_hi = diam_series(flat, 0.5, start=2)
    out.append(_report("two-block tail series at delta vs 40-digit mpmath sum",
                       powerlog_series(flat.tail, 0.5, 2), 0.5 * (tail_lo + tail_hi),
                       1e-14))

    ones = sample_orbit(gauss, word=repeat(1), n=40,
                        potentials=(harmonic_potential(),))
    out.append(_report("terminal point of the all-ones orbit",
                       golden, float(ones.points[-1]), 1e-12))
    out.append(_report("harmonic average along the all-ones orbit",
                       1.0, float(ones.averages[0][-1]), 1e-15))
    return out


def _measures_reports() -> list[OracleReport]:
    from .measures import (
        CylinderMeasure,
        digit_frequency_dimension,
        feasible,
        golden_dirac_stats,
        maximize_ratio,
        stats,
    )

    out = []
    with mpmath.workdps(_DPS):
        golden_lambda = float(2 * mpmath.log((1 + mpmath.sqrt(5)) / 2))

    doubling = linear_system([0.5, 0.5])
    half_quarter = linear_system([0.5, 0.25])
    gauss = gauss_system()

    out.append(_report("Lyapunov exponent of the golden Dirac mass",
                       golden_lambda, golden_dirac_stats().lyapunov, 1e-12))

    bern = CylinderMeasure(level=1, words=((1,), (2,)), weights=(0.25, 0.75))
    out.append(_report("Bernoulli(1/4,3/4) ratio on the doubling model",
                       besicovitch_eggleston([0.25, 0.75], [0.5, 0.5]),
                       stats(doubling, bern).ratio, 1e-12))

    _, best = maximize_ratio(half_quarter)
    out.append(_report("unconstrained ratio maximum vs Moran root on (1/2,1/4)",
                       moran_root([0.5, 0.25]), best.ratio, 1e-12))

    # the box [0.2499, 0.2501] around level 1/4 peaks at its upper edge
    chi1 = indicator_potential(1)
    _, pinned = maximize_ratio(doubling, constraints=((chi1, 0.25, 1e-4),))
    out.append(_report("constrained ratio maximum at level 1/4 on doubling",
                       besicovitch_eggleston([0.2501, 0.7499], [0.5, 0.5]),
                       pinned.ratio, 1e-9))

    rep = feasible(gauss, gamma=(0.6,), eps=1e-6, q=3, n=1,
                   potentials=(harmonic_potential(),))
    out.append(_report("harmonic moment of the feasibility witness",
                       0.6, rep.moments[0], 2e-6))

    # certified distances (max_violation - eps): 1/a_1 <= 1, chi1 + chi2 = 1
    out.append(_report("certified distance of harmonic moment 1.5 on Gauss", 0.5, feasible(
        gauss, (1.5,), q=30, potentials=(harmonic_potential(),)).max_violation, 1e-12))
    out.append(_report("certified distance of chi1, chi2 at 0.8 +- 1e-3", 0.3 - 1e-3,
                       feasible(doubling, (0.8, 0.8), eps=1e-3).max_violation - 1e-3, 1e-12))

    out.append(_report("digit-frequency dimension, full vector on doubling",
                       besicovitch_eggleston([0.25, 0.75], [0.5, 0.5]),
                       digit_frequency_dimension(doubling, [0.25, 0.75]).dimension,
                       1e-12))
    invsq = powerlog_system([], c=0.5, a=2.0)
    out.append(_report("digit-frequency floor at deficit 0.1",
                       0.5,
                       digit_frequency_dimension(invsq, [0.5, 0.4]).dimension,
                       1e-12))

    alt = sample_orbit(doubling, recipe=(0.5, 0.5), n=1000,
                       potentials=(indicator_potential(1),))
    out.append(_report("running average of the alternating orbit",
                       0.5, float(alt.averages[0][-1]), 2e-3))
    esc = sample_orbit(gauss, recipe=(0.55, 0.2, 0.15), n=2000)
    out.append(_report("scheduled frequency of digit 1 under deficit 0.1",
                       0.55, esc.frequencies[1], 5e-3))
    return out


def _spectrum_reports() -> list[OracleReport]:
    from .spectrum import flat_bounds, flat_certificate, legendre_solve

    out = []
    doubling = linear_system([0.5, 0.5])
    gauss = gauss_system()
    flat = flat_example_system()
    chi1 = indicator_potential(1)
    harm = harmonic_potential()

    out.append(_report("Legendre exponent at level 1/4 on doubling",
                       besicovitch_eggleston([0.25, 0.75], [0.5, 0.5]),
                       legendre_solve(doubling, chi1, 0.25).t, 1e-6))
    out.append(_report("Legendre exponent at the symmetric level on doubling",
                       1.0, legendre_solve(doubling, chi1, 0.5).t, 1e-9))

    fb = flat_bounds(flat)
    with mpmath.workdps(_DPS):
        qm = float(mpmath.log((1 - mpmath.mpf("0.6")) / mpmath.mpf("0.55")))
        qp = float(mpmath.log(mpmath.mpf("0.6") / (1 - mpmath.mpf("0.55"))))
    out.append(_report("left tilt root of the flat window", qm, fb.q_minus, 1e-9))
    out.append(_report("right tilt root of the flat window", qp, fb.q_plus, 1e-9))

    cert = flat_certificate(flat, chi1, 1.0)
    out.append(_report("certificate value at the upper endpoint",
                       0.0, 0.5 * (cert.value_lo + cert.value_hi), 1e-6))
    out.append(_report("certificate tilt at the upper endpoint",
                       qp, cert.qhat if cert.qhat is not None else math.nan, 1e-12))

    out.append(_report("harmonic spectrum at level 0 on the Gauss model",
                       0.5, legendre_solve(gauss, harm, 0.0).dim, 1e-12))
    out.append(_report("harmonic spectrum at level 1 on the Gauss model",
                       0.5, legendre_solve(gauss, harm, 1.0).dim, 1e-12))
    return out


def verification_suite(which: str = "all") -> list[OracleReport]:
    """The shipped oracle suite; every report is expected to pass."""
    builders = {
        "thermo": _thermo_reports,
        "measures": _measures_reports,
        "spectrum": _spectrum_reports,
    }
    if which == "all":
        out = []
        for name in ("thermo", "measures", "spectrum"):
            out.extend(builders[name]())
        return out
    if which not in builders:
        raise ModelError(f"unknown suite {which!r}; use all, thermo, measures or spectrum")
    return builders[which]()
