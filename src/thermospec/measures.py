"""Measures on cylinder partitions and entropy/Lyapunov ratio optimization.

A weight vector on level-n cylinder words induces the Bernoulli-type
statistics

    h      = -(1/n) sum_j p_j log p_j
    lambda = -(1/n) sum_j p_j log diam(C_n(w_j))

whose ratio h/lambda is the variational quantity maximized here, optionally
under finitely many Birkhoff-moment constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.special import xlogy

from .errors import (
    BudgetExceededError,
    InfeasibleConstraintsError,
    InvalidMeasureError,
    ModelError,
    UndeterminedError,
)
from .systems import (
    BranchSystem,
    Potential,
    _logsumexp,
    birkhoff_sum,
    check_word,
    cylinder_diameter,
    diameters,
    indicator_potential,
    is_linear,
    level1_values,
    s_inf_exact,
)

__all__ = [
    "CylinderMeasure",
    "MeasureStats",
    "FeasibilityReport",
    "MixtureResult",
    "FreqDimResult",
    "stats",
    "golden_dirac_stats",
    "maximize_ratio",
    "digit_frequency_dimension",
    "feasible",
    "mixture_lower_bound",
    "sequence_lower_bound",
]

_OPT_BUDGET = 200_000  # dense optimizer cap on q^n


@dataclass(frozen=True)
class CylinderMeasure:
    """Probability weights on a finite set of level-n cylinder words."""

    level: int
    words: tuple
    weights: tuple

    def __post_init__(self):
        if self.level < 1:
            raise InvalidMeasureError("level must be >= 1")
        if len(self.words) != len(self.weights) or not self.words:
            raise InvalidMeasureError("words and weights must be non-empty and aligned")
        for w in self.words:
            if len(w) != self.level:
                raise InvalidMeasureError(f"word {w} does not have length {self.level}")
        arr = np.asarray(self.weights, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InvalidMeasureError("weights must be finite and strictly positive")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise InvalidMeasureError(f"weights sum to {arr.sum():.17g}, not 1")


@dataclass(frozen=True)
class MeasureStats:
    """Entropy, Lyapunov exponent, their ratio and Birkhoff moments."""

    h: float
    lyapunov: float
    ratio: float
    moments: tuple = ()


@dataclass(frozen=True)
class FeasibilityReport:
    gamma: tuple
    eps: float
    q: int
    n: int
    verdict: str
    max_violation: float
    witness: CylinderMeasure | None
    moments: tuple


@dataclass(frozen=True)
class MixtureResult:
    p: float
    base_index: int
    stats: MeasureStats


@dataclass(frozen=True)
class FreqDimResult:
    dimension: float | None
    s_inf: float
    alpha3: float | None
    regime: str


# ---------------------------------------------------------------------------
# statistics


def _word_array(measure: CylinderMeasure) -> np.ndarray:
    return np.asarray(measure.words, dtype=np.int64).reshape(len(measure.words), measure.level)


def _log_cylinder_diams(system, arr: np.ndarray) -> np.ndarray:
    if is_linear(system):
        logd = np.log(diameters(system, int(arr.max())))
        return logd[arr - 1].sum(axis=1)
    y0 = np.zeros(len(arr), dtype=float)
    y1 = np.ones(len(arr), dtype=float)
    for j in range(arr.shape[1] - 1, -1, -1):
        m = arr[:, j].astype(float) + system.offset
        y0 = 1.0 / (m + y0)
        y1 = 1.0 / (m + y1)
    return np.log(np.abs(y0 - y1))


def _moment_rows(system, potential, arr: np.ndarray) -> np.ndarray:
    """Birkhoff means S_n(potential)/n over each word of ``arr``."""
    n = arr.shape[1]
    if potential.kind == "log_deriv":
        if is_linear(system):
            logd = np.log(diameters(system, int(arr.max())))
            return -logd[arr - 1].sum(axis=1) / n
        from .thermo import _orbit_log_derivs
        cols = [arr[:, j] for j in range(n)]
        return _orbit_log_derivs(system, cols) / n
    if potential.level == 1:
        vals = level1_values(system, potential, int(arr.max()))
        return vals[arr - 1].sum(axis=1) / n
    out = np.empty(len(arr))
    for i, w in enumerate(arr):
        out[i] = birkhoff_sum(system, potential, tuple(int(s) for s in w)) / n
    return out


def stats(system: BranchSystem, measure: CylinderMeasure,
          potentials: tuple = ()) -> MeasureStats:
    """Statistics of a cylinder measure; weights are validated again here."""
    for w in measure.words:
        check_word(system, w)
    p = np.asarray(measure.weights, dtype=float)
    if np.any(p <= 0) or abs(p.sum() - 1.0) > 1e-12:
        raise InvalidMeasureError("weights must be positive and sum to 1")
    arr = _word_array(measure)
    n = measure.level
    h = float(-(p * np.log(p)).sum() / n)
    lam = float(-(p * _log_cylinder_diams(system, arr)).sum() / n)
    moments = tuple(float(p @ _moment_rows(system, pot, arr)) for pot in potentials)
    return MeasureStats(h=h, lyapunov=lam, ratio=h / lam, moments=moments)


def golden_dirac_stats() -> MeasureStats:
    """Point mass on the all-ones periodic word.

    The fixed point of the first continued-fraction branch is
    x = (sqrt(5)-1)/2 with log|T'(x)| = -2 log x = 2 log((1+sqrt(5))/2);
    the entropy is 0 and the harmonic moment (mean of 1/a_1) is exactly 1.
    """
    lam = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)
    return MeasureStats(h=0.0, lyapunov=lam, ratio=0.0, moments=(1.0,))


# ---------------------------------------------------------------------------
# constrained ratio maximization


def _enumerate_words(q: int, n: int) -> np.ndarray:
    total = q ** n
    idx = np.arange(total, dtype=np.int64)
    arr = np.empty((total, n), dtype=np.int64)
    for j in range(n):
        arr[:, j] = (idx // q ** (n - 1 - j)) % q + 1
    return arr


def _project_box(p, A, lo, hi):
    """KL projection of p onto {x >= 0, sum x = 1, lo <= A x <= hi}.

    The minimizer is the tilt x ~ p * exp(theta^T A) at the minimum of the
    convex dual  log sum p exp(theta^T A) - theta.c + w.|theta|,  where c
    and w are the box centres and half-widths: a row with theta_i > 0 sits
    at lo, one with theta_i < 0 at hi, and one with theta_i = 0 inside its
    box.  Newton steps on the rows that are pinned or outside their box,
    stopped at theta_i = 0 and backtracked until the dual decreases, so
    dependent rows and rows that must leave their edge need no special
    case.  Deterministic; ``lo == hi`` gives the equality projection.
    Raises UndeterminedError when the solve fails: whether the boxes can
    be met at all is the feasibility LP's verdict, not this solver's.
    """
    if A is None:
        return p
    logp = np.log(p)
    c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    theta = np.zeros(A.shape[0])
    for _ in range(100):
        logits = logp + theta @ A
        x = np.exp(logits - _logsumexp(logits))
        m = A @ x
        g = m - c
        # the side of each row's kink that the dual descends into
        side = np.where(theta != 0, np.sign(theta), -np.sign(g) * (np.abs(g) > w + 1e-13))
        active = (side != 0) | (w == 0)
        grad = np.where(active, g + w * side, 0.0)
        if np.max(np.abs(grad)) <= 1e-13:
            return x
        centered = A[active] - m[active, None]
        H = (centered * x) @ centered.T
        H[np.diag_indices_from(H)] += 1e-14
        step = np.zeros_like(theta)
        try:
            step[active] = np.linalg.solve(H, grad[active])
        except np.linalg.LinAlgError:
            raise UndeterminedError("degenerate constraint system")
        if not np.all(np.isfinite(step)):
            raise UndeterminedError("constraint projection diverged")
        step *= min(1.0, 50.0 / np.max(np.abs(step)))
        # Armijo backtracking on the change of the dual, written so that its
        # rounding stays far below the decrease; a row whose theta would
        # change sign stops at 0
        t = 1.0
        while True:
            new = theta - t * step
            new[(w > 0) & (new * side < 0)] = 0.0
            delta = new - theta
            with np.errstate(over="ignore", invalid="ignore"):
                change = (np.log1p(x @ np.expm1(delta @ A)) - delta @ c
                          + w @ (np.abs(new) - np.abs(theta)))
            if change <= 1e-4 * grad @ delta or t < 1e-12:
                break
            t *= 0.5
        theta = new
    raise UndeterminedError("constraint projection did not converge")


def _ratio_of(p, logd):
    return -xlogy(p, p).sum() / -(p @ logd)


def _check_feasible_lp(logd_len, A, lo, hi):
    """Max-violation LP; raises when no weight vector fits the boxes."""
    k = A.shape[0]
    n_var = logd_len + 1
    c = np.zeros(n_var)
    c[-1] = 1.0
    A_ub = np.zeros((2 * k, n_var))
    b_ub = np.zeros(2 * k)
    A_ub[:k, :-1] = A
    A_ub[:k, -1] = -1.0
    b_ub[:k] = hi
    A_ub[k:, :-1] = -A
    A_ub[k:, -1] = -1.0
    b_ub[k:] = -lo
    A_eq = np.zeros((1, n_var))
    A_eq[0, :-1] = 1.0
    b_eq = [1.0]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(0, 1)] * logd_len + [(0, None)], method="highs")
    if res.status != 0:
        raise InfeasibleConstraintsError(f"feasibility LP failed: {res.message}")
    return float(res.x[-1]), res.x[:-1]


def maximize_ratio(system: BranchSystem, constraints=(), q: int | None = None,
                   n: int = 1):
    """Maximize h/lambda over level-n weights on words over {1..q}.

    ``constraints`` is a sequence of (potential, gamma, eps) triples pinning
    Birkhoff moments into [gamma-eps, gamma+eps].  Dinkelbach's iteration
    (Management Science 13, 1967): from R = 0, the exact maximizer of
    h - R lambda over the constraint boxes is the KL projection of the Gibbs
    weights softmax(R log diam) onto the boxes, and R is raised to its
    ratio until it stops rising.  The ratio is quasi-concave, so this is
    the global maximum; the result is deterministic and uses no seeds.
    Returns a (CylinderMeasure, MeasureStats) pair.
    """
    if q is None:
        q = system.branch_count()
        if q is None:
            raise ModelError("a truncation level q is required for infinite systems")
    if q ** n > _OPT_BUDGET:
        raise BudgetExceededError(f"q^n = {q ** n} exceeds optimizer budget {_OPT_BUDGET}")
    arr = _enumerate_words(q, n)
    logd = _log_cylinder_diams(system, arr)

    A = lo = hi = None
    pots = tuple(c[0] for c in constraints)
    if constraints:
        A = np.vstack([_moment_rows(system, pot, arr) for pot in pots])
        gam = np.array([float(c[1]) for c in constraints])
        eps = np.array([float(c[2]) for c in constraints])
        if np.any(eps < 0):
            raise ModelError("constraint tolerances must be >= 0")
        lo, hi = gam - eps, gam + eps
        violation, _ = _check_feasible_lp(len(logd), A, lo, hi)
        if violation > 1e-9:
            raise InfeasibleConstraintsError(
                f"constraints unattainable at truncation (violation {violation:.3g})")

    R, best_p = 0.0, None
    for _ in range(200):
        p = _project_box(np.exp(R * logd - _logsumexp(R * logd)), A, lo, hi)
        r = _ratio_of(p, logd)
        if best_p is not None and r <= R + 1e-15 * max(1.0, R):
            break
        R, best_p = r, p

    keep = best_p > 1e-300
    words = tuple(tuple(int(s) for s in w) for w in arr[keep])
    weights = best_p[keep]
    weights = weights / weights.sum()
    measure = CylinderMeasure(level=n, words=words, weights=tuple(weights))
    return measure, stats(system, measure, potentials=pots)


# ---------------------------------------------------------------------------
# digit-frequency dimensions


def digit_frequency_dimension(system: BranchSystem, p, mode: str = "full", *,
                              eps: float = 1e-6, q: int | None = None,
                              n: int = 1) -> FreqDimResult:
    """Dimension of the set with prescribed digit frequencies.

    Full-vector mode: a vector summing to 1 gives max(s_inf, h/lambda of the
    matching Bernoulli weights); a strict deficit is carried by escaping mass
    and pins the dimension at s_inf on infinite systems (no orbit on a finite
    alphabet realizes a deficit, so the verdict there is empty).  Partial
    mode pins only the listed digits and delegates to maximize_ratio.
    """
    freqs = np.asarray(p, dtype=float)
    if freqs.ndim != 1 or len(freqs) == 0:
        raise ModelError("frequency vector must be one-dimensional and non-empty")
    if np.any(freqs < -1e-15) or not np.all(np.isfinite(freqs)):
        raise ModelError("frequencies must be finite and >= 0")
    s_inf = s_inf_exact(system)
    total = float(freqs.sum())
    count = system.branch_count()
    if count is not None and len(freqs) > count:
        raise ModelError("frequency vector longer than the branch alphabet")

    if mode == "full":
        if total > 1.0 + 1e-9:
            return FreqDimResult(None, s_inf, None, "empty")
        if total < 1.0 - 1e-9:
            if count is not None:
                return FreqDimResult(None, s_inf, None, "empty")
            return FreqDimResult(s_inf, s_inf, None, "s_inf-floor")
        support = freqs > 0
        pw = freqs[support] / total
        logd = np.log(diameters(system, len(freqs)))[support]
        h = float(-(pw * np.log(pw)).sum())
        lam = float(-(pw @ logd))
        ratio = h / lam
        regime = "variational" if ratio >= s_inf else "s_inf-floor"
        return FreqDimResult(max(s_inf, ratio), s_inf, ratio, regime)

    if mode != "partial":
        raise ModelError(f"unknown mode {mode!r}")
    if total > 1.0 + 1e-9:
        return FreqDimResult(None, s_inf, None, "empty")
    if q is None:
        q = max(16, 2 * len(freqs))
        if count is not None:
            q = min(q, count)
    if q < len(freqs):
        raise ModelError("truncation q must cover the pinned digits")
    cons = [(indicator_potential(i + 1), float(freqs[i]), eps) for i in range(len(freqs))]
    try:
        _, st = maximize_ratio(system, cons, q=q, n=n)
    except InfeasibleConstraintsError:
        return FreqDimResult(None, s_inf, None, "empty")
    ratio = st.ratio
    regime = "variational" if ratio >= s_inf else "s_inf-floor"
    return FreqDimResult(max(s_inf, ratio), s_inf, ratio, regime)


# ---------------------------------------------------------------------------
# feasibility of moment vectors


def feasible(system: BranchSystem, gamma, eps: float = 0.0,
             q: int | None = None, n: int = 1,
             potentials=None) -> FeasibilityReport:
    """Decide whether weights on level-n words can match target moments.

    Default potentials are the digit indicators chi_{I_1}..chi_{I_k}.  On
    success the witness is the maximum-entropy (exponential-family) weight
    vector when one exists, otherwise a vertex solution with its zero-weight
    words dropped.
    """
    gam = np.atleast_1d(np.asarray(gamma, dtype=float))
    if eps < 0:
        raise ModelError("eps must be >= 0")
    if potentials is None:
        potentials = tuple(indicator_potential(i + 1) for i in range(len(gam)))
    if len(potentials) != len(gam):
        raise ModelError("gamma and potential list lengths differ")
    if q is None:
        q = system.branch_count()
        if q is None:
            q = 64
    if q ** n > _OPT_BUDGET:
        raise BudgetExceededError(f"q^n = {q ** n} exceeds optimizer budget {_OPT_BUDGET}")

    arr = _enumerate_words(q, n)
    A = np.vstack([_moment_rows(system, pot, arr) for pot in potentials])
    try:
        violation, lp_point = _check_feasible_lp(arr.shape[0], A, gam - eps, gam + eps)
    except InfeasibleConstraintsError:
        return FeasibilityReport(tuple(gam), eps, q, n, "infeasible-at-truncation",
                                 math.inf, None, ())
    if violation > eps + 1e-9 or (eps == 0 and violation > 1e-9):
        return FeasibilityReport(tuple(gam), eps, q, n, "infeasible-at-truncation",
                                 violation, None, ())

    witness_p = None
    try:
        witness_p = _project_box(np.full(arr.shape[0], 1.0 / arr.shape[0]), A, gam, gam)
    except UndeterminedError:
        pass
    if witness_p is None or np.any(witness_p <= 0):
        witness_p = lp_point

    keep = witness_p > 1e-15
    words = tuple(tuple(int(s) for s in w) for w in arr[keep])
    weights = witness_p[keep]
    weights = weights / weights.sum()
    measure = CylinderMeasure(level=n, words=words, weights=tuple(weights))
    moments = tuple(float(m) for m in (A[:, keep] @ weights))
    worst = float(np.max(np.abs(np.asarray(moments) - gam)))
    if worst > eps + 1e-9:
        return FeasibilityReport(tuple(gam), eps, q, n, "infeasible-at-truncation",
                                 worst, None, moments)
    return FeasibilityReport(tuple(gam), eps, q, n, "feasible-with-witness",
                             worst, measure, moments)


# ---------------------------------------------------------------------------
# mixtures and sequences of measures


def _combine(a: MeasureStats, b: MeasureStats, p: float) -> MeasureStats:
    if len(a.moments) != len(b.moments):
        raise ModelError("mixture components carry different moment vectors")
    h = p * a.h + (1.0 - p) * b.h
    lam = p * a.lyapunov + (1.0 - p) * b.lyapunov
    moments = tuple(p * x + (1.0 - p) * y for x, y in zip(a.moments, b.moments))
    return MeasureStats(h=h, lyapunov=lam, ratio=h / lam, moments=moments)


def mixture_lower_bound(base, bump: MeasureStats, schedule) -> MixtureResult:
    """Best h/lambda ratio over two-point mixtures p*base + (1-p)*bump.

    Entropy, Lyapunov exponents and moments combine affinely; the returned
    ratio is a dimension lower bound whenever both components are.
    """
    bases = list(base) if isinstance(base, (list, tuple)) else [base]
    if not bases:
        raise ModelError("empty base list")
    weights = [float(p) for p in schedule]
    if not weights:
        raise ModelError("empty weight schedule")
    for p in weights:
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"mixture weight {p} outside [0, 1]")
    best = None
    for i, b in enumerate(bases):
        for p in weights:
            st = _combine(b, bump, p)
            key = (st.ratio, -i, -p)
            if best is None or key > best[0]:
                best = (key, MixtureResult(p=p, base_index=i, stats=st))
    return best[1]


def sequence_lower_bound(stats_seq) -> float:
    """Limsup-style bound: the running maximum of tail suprema of ratios."""
    ratios = [s.ratio for s in stats_seq]
    if not ratios:
        raise ModelError("empty stats sequence")
    return max(ratios)
