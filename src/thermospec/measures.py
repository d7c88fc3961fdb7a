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

import numpy as np

from ._frozen import frozen
from .errors import (
    BudgetExceededError,
    InfeasibleConstraintsError,
    InvalidMeasureError,
    ModelError,
    UnderdeterminedWordError,
    UndeterminedError,
)
from .systems import (
    BranchSystem,
    _cf_log_cylinder_diams,
    _decode_words,
    _log_diameters_at,
    _logsumexp,
    check_word,
    diameters,
    indicator_potential,
    is_linear,
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


@frozen
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
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise InvalidMeasureError("weights must be finite and strictly positive")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise InvalidMeasureError(f"weights sum to {arr.sum():.17g}, not 1")


@frozen
class MeasureStats:
    """Entropy, Lyapunov exponent, their ratio and Birkhoff moments."""

    h: float
    lyapunov: float
    ratio: float
    moments: tuple = ()


@frozen
class FeasibilityReport:
    gamma: tuple
    eps: float
    q: int
    n: int
    verdict: str
    max_violation: float
    witness: CylinderMeasure | None
    moments: tuple


@frozen
class MixtureResult:
    p: float
    base_index: int
    stats: MeasureStats


@frozen
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
        return _log_diameters_at(system, arr).sum(axis=1)
    return _cf_log_cylinder_diams(arr.astype(float) + system.offset)


def _moment_rows(system, potential, arr: np.ndarray) -> np.ndarray:
    """Birkhoff means S_n(potential)/n over each word of ``arr``."""
    n = arr.shape[1]
    if n < potential.level:
        raise UnderdeterminedWordError(
            f"word of length {n} cannot carry a level-{potential.level} potential")
    cols = [arr[:, j] for j in range(n)]
    return potential.birkhoff_sums(system, cols) / n


def stats(system: BranchSystem, measure: CylinderMeasure,
          potentials: tuple = ()) -> MeasureStats:
    """Statistics of a cylinder measure; weights are validated again here."""
    for w in measure.words:
        check_word(system, w)
    p = np.asarray(measure.weights, dtype=float)
    if (p <= 0).any() or abs(p.sum() - 1.0) > 1e-12:
        raise InvalidMeasureError("weights must be positive and sum to 1")
    arr = _word_array(measure)
    return _stats(p, measure.level, _log_cylinder_diams(system, arr),
                  [_moment_rows(system, pot, arr) for pot in potentials])


def _stats(p, n, logd, rows) -> MeasureStats:
    """``stats`` from weights p on level-n words, their log diameters and moment rows."""
    h = float((0.0 - (p * np.log(p)).sum()) / n)  # +0.0 for a point mass
    lam = float(-(p * logd).sum() / n)
    moments = tuple(float(p @ row) for row in rows)
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


class _ProjectionFailed(UndeterminedError):
    """A KL projection that stopped short of its boxes, with its dual iterates."""

    def __init__(self, message, thetas):
        super().__init__(message)
        self.thetas = thetas


def _project_box(p, A, lo, hi, theta=None):
    """KL projection of p onto {x >= 0, sum x = 1, lo <= A x <= hi}, and its dual.

    The minimizer is the tilt x ~ p * exp(theta^T A) at the minimum of the
    convex dual  log sum p exp(theta^T A) - theta.c + w.|theta|,  where c
    and w are the box centres and half-widths: a row with theta_i > 0 sits
    at lo, one with theta_i < 0 at hi, and one with theta_i = 0 inside its
    box.  Newton steps on the rows that are pinned or outside their box,
    stopped at theta_i = 0 and backtracked until the dual decreases, so
    dependent rows and rows that must leave their edge need no special
    case.  Deterministic; ``lo == hi`` gives the equality projection.
    The solve starts from ``theta`` (default 0): the dual is convex and the
    steps are capped and backtracked, so every start reaches the same
    projection, and a converged theta on the same p passes the gradient
    test before its first step.  Its last weights x are returned, as the
    pair (x, theta of x), when their moments lie in the boxes up to 1e-9,
    also where the solve stops short (dependent rows can hold the gradient
    above its tolerance); else it raises ``_ProjectionFailed`` with every
    theta it saw: where the boxes cannot be met the dual is unbounded
    below, theta/|theta|_1 tends to a separating direction, and a capped
    step that repeats to a relative 1e-12 and separates the boxes ends the
    solve (the step may drift in its last bits while theta runs off).

    Row quantities (side, grad, step, trial theta, stop tests) are Python
    floats: sign tests and exact elementwise operations round as numpy's
    do.  What BLAS or LAPACK computes stays in numpy, whose bits it sets:
    W-length products, row dot products (OpenBLAS may fuse multiply-adds),
    the solve (its 1x1 case may multiply by a reciprocal).  Logits of under
    8 words go to ``_logsumexp`` as lists; listing short arrays inside
    ``_logsumexp`` would recurse forever on a non-finite maximum.
    """
    if A is None:
        return p, None
    logp = np.log(p)
    c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
    cl, wl, tol = c.tolist(), w.tolist(), (w + 1e-13).tolist()
    pack = np.ndarray.tolist if A.shape[1] < 8 else np.asarray  # short: the list path
    last = np.zeros(A.shape[0])
    theta = last if theta is None else theta
    th, thetas = theta.tolist(), [theta]  # th: theta as floats
    message = "constraint projection did not converge"
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(100):
            logits = logp + theta @ A
            logx = logits - _logsumexp(pack(logits))
            x, dual = np.exp(logx), theta
            m = A @ x
            g = [mi - ci for mi, ci in zip(m.tolist(), cl)]
            # the side of each row's kink that the dual descends into, NaN for a NaN g
            side = [math.copysign(1.0, t) if t else -math.copysign(1.0, gi) if abs(gi) > tl
                    else 0.0 * gi for t, gi, tl in zip(th, g, tol)]
            grad = [gi + wi * s if s != 0 or wi == 0 else 0.0 for gi, wi, s in zip(g, wl, side)]
            if all(abs(gr) <= 1e-13 for gr in grad):
                break
            rows = [i for i, (s, wi) in enumerate(zip(side, wl)) if s != 0 or wi == 0]
            centered = (A - m[:, None]).take(rows, axis=0)
            H = (centered * x) @ centered.T
            H.ravel()[::len(rows) + 1] += 1e-14  # H is C-contiguous: ravel is a view
            step = [0.0] * len(th)
            try:
                for i, v in zip(rows, np.linalg.solve(H, [grad[i] for i in rows]).tolist()):
                    step[i] = v
            except np.linalg.LinAlgError:
                message = "degenerate constraint system"
                break
            if not all(map(math.isfinite, step)):
                message = "constraint projection diverged"
                break
            top = max(map(abs, step))
            cap = 50.0 / top if top else math.inf
            step = [v * min(1.0, cap) for v in step]
            slope = np.array([1e-4 * gr for gr in grad])
            # Armijo backtracking on the change of the dual, rounded far below
            # the decrease (log1p of the mean of expm1, or a log-sum-exp where
            # log1p would cancel); a row whose theta would change sign stops at 0
            t = 1.0
            while True:
                new = [0.0 if (v := o - t * u) * s < 0 and wi > 0 else v
                       for o, u, s, wi in zip(th, step, side, wl)]
                delta = np.array([v - o for v, o in zip(new, th)])
                mean = x @ np.expm1(dA := delta @ A)
                lse = np.log1p(mean) if mean > -0.5 else _logsumexp(pack(logx + dA))
                change = lse - delta @ c + w @ np.array([abs(v) - abs(o) for v, o in zip(new, th)])
                if change <= slope @ delta or t < 1e-12:
                    break
                t *= 0.5
            if (cap < 1.0 and np.max(np.abs(delta - last)) <= 1e-12 * np.max(np.abs(delta))
                    and delta @ c - w @ np.abs(delta) > np.max(dA)):
                thetas.append(delta)  # the dual runs off along this step
                break
            theta, th, last = np.array(new), new, delta
            thetas.append(theta)
    if (m >= lo - 1e-9).all() and (m <= hi + 1e-9).all():
        return x, dual
    raise _ProjectionFailed(message, thetas)


def _ratio_of(p, logd):
    """h/lambda of the weights p, with 0 log 0 = 0 and h = +0.0 at a point mass."""
    return (0.0 - (p * np.log(p, out=np.zeros(p.shape), where=p > 0)).sum()) / -(p @ logd)


def _feasible_projection(p, A, lo, hi):
    """``_project_box(p, A, lo, hi)``'s (x, theta) pair, or the proof that
    the boxes cannot be met.

    Where the projection fails, each dual iterate theta gives a direction
    d = theta/|theta|_1 and the distance d.c - w.|d| - max_w (A^T d)_w by
    which all weights miss some box (c, w: box centres and half-widths).
    The largest, when above 1e-9 (relative to the largest |A|, |lo|, |hi|
    above 1, so that rounding cannot fake it), raises
    InfeasibleConstraintsError with its d; else the UndeterminedError stands.
    """
    try:
        return _project_box(p, A, lo, hi)
    except _ProjectionFailed as failure:
        c, w = 0.5 * (lo + hi), 0.5 * (hi - lo)
        dirs = [t / np.abs(t).sum() for t in failure.thetas if np.abs(t).sum() > 0]
        gaps = [float(d @ c - w @ np.abs(d) - np.max(d @ A)) for d in dirs]
        scale = max(1.0, np.max(np.abs(A)), np.max(np.abs(lo)), np.max(np.abs(hi)))
        if gaps and max(gaps) > 1e-9 * scale:
            best = int(np.argmax(gaps))
            raise InfeasibleConstraintsError(
                f"constraints unattainable at truncation (violation {gaps[best]:.3g})",
                dirs[best], gaps[best]) from None
        raise


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
    The first projection starts its dual at 0 and doubles as the
    feasibility check (see ``_feasible_projection``): boxes that its dual
    proves unattainable raise InfeasibleConstraintsError, carrying the
    separating direction, and ones it can neither meet nor refute
    UndeterminedError.  The boxes never change, so each later step starts
    its projection from the previous step's dual.  ModelError for q < 1
    or n < 1.  Returns a (CylinderMeasure, MeasureStats) pair.

    The moments of a word are its Birkhoff means over its cyclic windows,
    along its periodic orbit, while h and lambda are those of the measure
    that concatenates independent n-blocks.  With level-1 constraints no
    window crosses a block boundary, so the ratio is that of a measure
    meeting the boxes, a lower bound on the level set's dimension.  With a
    level >= 2 constraint it is a periodic-orbit estimate, not a lower
    bound: on the doubling map with the 11-block table at gamma = 0.1 it
    is 0.94773 at n = 2, above the true b(0.1) = 0.93227.
    """
    if q is None:
        q = system.branch_count()
        if q is None:
            raise ModelError("a truncation level q is required for infinite systems")
    if q < 1 or n < 1:
        raise ModelError(f"truncation q and level n must be >= 1, got q={q}, n={n}")
    if q ** n > _OPT_BUDGET:
        raise BudgetExceededError(f"q^n = {q ** n} exceeds optimizer budget {_OPT_BUDGET}")
    arr = _decode_words(q, n)
    logd = _log_cylinder_diams(system, arr)

    A = lo = hi = None
    pots = tuple(c[0] for c in constraints)
    if constraints:
        A = np.vstack([_moment_rows(system, pot, arr) for pot in pots])
        gam = np.array([float(c[1]) for c in constraints])
        eps = np.array([float(c[2]) for c in constraints])
        if not all(map(math.isfinite, gam.tolist() + eps.tolist())):
            raise ModelError(f"constraint gamma and eps must be finite, got "
                             f"gamma {gam.tolist()}, eps {eps.tolist()}")
        if (eps < 0).any():
            raise ModelError("constraint tolerances must be >= 0")
        lo, hi = gam - eps, gam + eps

    R, best_p, theta = 0.0, None, None
    pack = np.ndarray.tolist if len(logd) < 8 else np.asarray  # short: the list path
    for i in range(200):
        p = np.exp(R * logd - _logsumexp(pack(R * logd)))
        p, theta = _project_box(p, A, lo, hi, theta) if i else _feasible_projection(p, A, lo, hi)
        r = _ratio_of(p, logd)
        if best_p is not None and r <= R + 1e-15 * max(1.0, R):
            break
        R, best_p = r, p

    keep = best_p > 1e-300
    weights = best_p[keep] / best_p[keep].sum()
    measure = CylinderMeasure(level=n, words=tuple(map(tuple, arr[keep].tolist())),
                              weights=tuple(weights.tolist()))
    # the words are checked and the rows built: ``stats`` would redo both
    return measure, _stats(weights, n, logd[keep], [] if A is None else A[:, keep])


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

    if mode not in ("full", "partial"):
        raise ModelError(f"unknown mode {mode!r}")
    empty = FreqDimResult(None, s_inf, None, "empty")
    if total > 1.0 + 1e-9:
        return empty
    if mode == "full":
        if total < 1.0 - 1e-9:
            return empty if count is not None else FreqDimResult(s_inf, s_inf, None, "s_inf-floor")
        support = freqs > 0
        pw = freqs[support] / total
        logd = np.log(diameters(system, len(freqs)))[support]
        ratio = float(0.0 - (pw * np.log(pw)).sum()) / float(-(pw @ logd))  # h = +0.0 at a Dirac
    else:
        if q is None:
            q = max(16, 2 * len(freqs))
            if count is not None:
                q = min(q, count)
        if q < len(freqs):
            raise ModelError("truncation q must cover the pinned digits")
        cons = [(indicator_potential(i + 1), float(freqs[i]), eps) for i in range(len(freqs))]
        try:
            ratio = maximize_ratio(system, cons, q=q, n=n)[1].ratio
        except InfeasibleConstraintsError:
            return empty
    regime = "variational" if ratio >= s_inf else "s_inf-floor"
    return FreqDimResult(max(s_inf, ratio), s_inf, ratio, regime)


# ---------------------------------------------------------------------------
# feasibility of moment vectors


def feasible(system: BranchSystem, gamma, eps: float = 0.0,
             q: int | None = None, n: int = 1,
             potentials=None) -> FeasibilityReport:
    """Decide whether weights on level-n words can match target moments.

    Default potentials are the digit indicators chi_{I_1}..chi_{I_k}.  The
    witness is the maximum-entropy (exponential-family) weight vector when
    it meets the moments, else the KL projection of the uniform weights onto
    the boxes [gamma - eps, gamma + eps], which also decides the infeasible
    verdicts (``_feasible_projection``); words of weight <= 1e-15 are
    dropped.  ``max_violation`` is the witness's max |moment - gamma|, or on
    an infeasible verdict the certified distance plus eps, a lower bound on
    it over all weights (``moments`` is then empty).  UndeterminedError
    when the projection can neither meet nor refute the boxes; ModelError
    for q < 1 or n < 1.
    """
    gam = np.atleast_1d(np.asarray(gamma, dtype=float))
    if not np.all(np.isfinite(gam)):
        raise ModelError(f"gamma must be finite, got {gam.tolist()}")
    if not eps >= 0:
        raise ModelError(f"eps must be >= 0, got {eps}")
    if not math.isfinite(eps):
        raise ModelError(f"eps must be finite, got {eps}")
    if potentials is None:
        potentials = tuple(indicator_potential(i + 1) for i in range(len(gam)))
    if len(potentials) != len(gam):
        raise ModelError("gamma and potential list lengths differ")
    if q is None:
        q = system.branch_count() or 64
    if q < 1 or n < 1:
        raise ModelError(f"truncation q and level n must be >= 1, got q={q}, n={n}")
    check_word(system, (q,))
    if q ** n > _OPT_BUDGET:
        raise BudgetExceededError(f"q^n = {q ** n} exceeds optimizer budget {_OPT_BUDGET}")

    arr = _decode_words(q, n)
    A = np.vstack([_moment_rows(system, pot, arr) for pot in potentials])

    def report(x):
        keep = x > 1e-15
        weights = x[keep] / x[keep].sum()
        moments = tuple((A[:, keep] @ weights).tolist())
        measure = CylinderMeasure(level=n, words=tuple(map(tuple, arr[keep].tolist())),
                                  weights=tuple(weights.tolist()))
        return FeasibilityReport(tuple(gam.tolist()), eps, q, n, "feasible-with-witness",
                                 float(np.max(np.abs(np.asarray(moments) - gam))), measure, moments)

    # the maximum-entropy projection that meets the moments is the witness;
    # when it fails or misses them, the projection onto the boxes decides
    uniform = np.full(arr.shape[0], 1.0 / arr.shape[0])
    try:
        proj, _ = _project_box(uniform, A, gam, gam)
    except UndeterminedError:
        proj = None
    if proj is not None and (rep := report(proj)).max_violation <= eps + 1e-9:
        return rep
    try:
        return report(_feasible_projection(uniform, A, gam - eps, gam + eps)[0])
    except InfeasibleConstraintsError as exc:
        return FeasibilityReport(tuple(gam.tolist()), eps, q, n, "infeasible-at-truncation",
                                 exc.distance + eps, None, ())


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
