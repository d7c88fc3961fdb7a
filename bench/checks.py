"""Reference values and output checks, computed apart from thermospec.

Nothing here imports thermospec.  Each reference comes from a closed form,
from a published constant, or from mpmath at 30 digits; continued-fraction
cylinder diameters come from exact integer continuants.  Every check
returns a list of failure messages, empty when the output passes.
"""

from __future__ import annotations

import functools
import itertools
import math

import mpmath as mp

# Tolerances.  ``selftest.py`` shows that each check rejects an output moved
# by ten times its tolerance.
ROOT_TOL = 1e-10  # pressure_root's default tol
E2 = 0.5312805062772051  # Jenkinson & Pollicott, ETDS 21 (2001)
E2_TOL = 1e-10
EDGE_TOL = 1e-12  # flat window edges and tilt roots against mpmath
RESIDUAL_TOL = 1e-10  # Legendre residuals inside the window
BE_TOL = 1e-9  # doubling rows and ratios against H(alpha)/log 2
MONO_TOL = 1e-12  # rise-then-fall of the flat curve
RECOMPUTE_TOL = 1e-12  # statistics recomputed from returned words and weights
BOX_TOL = 1e-12  # moments against their constraint boxes
RATIO_TOL = 1e-9  # digit-frequency ratio against its mpmath window

FLAT_K, FLAT_C = "0.55", "0.6"


def _with_dps(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        with mp.workdps(30):
            return fn(*args)
    return wrapper


def _outward(x, direction: int) -> float:
    """Nearest float to the mpf ``x`` on the side given by ``direction``."""
    f = float(x)
    if direction < 0 and mp.mpf(f) > x:
        f = math.nextafter(f, -math.inf)
    if direction > 0 and mp.mpf(f) < x:
        f = math.nextafter(f, math.inf)
    return f


# ---------------------------------------------------------------------------
# Hurwitz-zeta sandwich for the digits >= N restriction of the Gauss map


@_with_dps
def _zeta_root(first: int):
    """Root t of zeta(2t, first) = 1; the function decreases in t."""
    f = lambda t: mp.zeta(2 * t, first) - 1  # noqa: E731
    lo, hi = mp.mpf("0.5"), mp.mpf(2)
    for _ in range(30):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = mp.findroot(f, (lo, hi), solver="secant")
    if not lo <= root <= hi:
        raise ArithmeticError(f"zeta root for first digit {first} left its bracket")
    return root


@functools.lru_cache(maxsize=None)
def sandwich_enclosure(N: int) -> tuple[float, float]:
    """Enclosure of the dimension of the digits >= N set, rounded outward.

    On the branch of digit m, |T'| lies between m^2 and (m+1)^2, so the
    pressure root lies between the roots of zeta(2t, N+1) = 1 and
    zeta(2t, N) = 1.
    """
    return _outward(_zeta_root(N + 1), -1), _outward(_zeta_root(N), +1)


def check_restricted_root(out: dict, N: int, previous: float | None) -> list:
    lo, hi = sandwich_enclosure(N)
    v = out["value"]
    a, b = out["interval"]
    bad = []
    if not lo - ROOT_TOL <= v <= hi + ROOT_TOL:
        gap = lo - v if v < lo else v - hi
        bad.append(f"value {v!r} is {gap:.3g} outside the enclosure [{lo!r}, {hi!r}]")
    if a > hi or b < lo:
        gap = lo - b if b < lo else a - hi
        bad.append(f"certified interval [{a!r}, {b!r}] misses the enclosure "
                   f"[{lo!r}, {hi!r}] by {gap:.3g}")
    if not v > 0.5:
        bad.append(f"value {v!r} not above 1/2")
    if previous is not None and not v < previous:
        bad.append(f"value {v!r} does not fall below the previous rung {previous!r}")
    return bad


def check_full_gauss_root(out: dict) -> list:
    """The Gauss measure is absolutely continuous, so the root is 1."""
    v = out["value"]
    a, b = out["interval"]
    bad = []
    if not 0.95 <= v <= 1.05:
        bad.append(f"value {v!r} outside [0.95, 1.05]")
    if not a <= 1.0 <= b:
        bad.append(f"certified interval [{a!r}, {b!r}] does not contain 1")
    return bad


def check_e2(out: dict) -> list:
    v = out["value"]
    if abs(v - E2) > E2_TOL:
        return [f"E_2 {v!r} differs from {E2!r} by {abs(v - E2):.3g}"]
    return []


# ---------------------------------------------------------------------------
# flat two-block family: alpha(q) = log(K e^q + C)/q


@functools.lru_cache(maxsize=None)
@_with_dps
def flat_window() -> dict:
    """Window edges as mpmath extrema of alpha(q), and the tilt roots.

    alpha'(q) = 0 where q K e^q / (K e^q + C) = log(K e^q + C); the lower
    edge is the maximum over q < q_minus, the upper edge the minimum over
    q > q_plus.
    """
    K, C = mp.mpf(FLAT_K), mp.mpf(FLAT_C)
    q_minus, q_plus = mp.log((1 - C) / K), mp.log(C / (1 - K))
    alpha = lambda q: mp.log(K * mp.exp(q) + C) / q  # noqa: E731
    slope = lambda q: q * K * mp.exp(q) / (K * mp.exp(q) + C) - mp.log(K * mp.exp(q) + C)  # noqa: E731

    def extremum(qs, pick):
        q0 = pick(qs, key=lambda q: alpha(q))
        return alpha(mp.findroot(slope, q0))

    lower = extremum([q_minus - mp.mpf(k) / 8 for k in range(1, 400)], max)
    upper = extremum([q_plus + mp.mpf(k) / 8 for k in range(1, 400)], min)
    return {"alpha_lower": float(lower), "alpha_upper": float(upper),
            "q_minus": float(q_minus), "q_plus": float(q_plus)}


def check_flat_bounds(values: dict) -> list:
    """Window edges and tilt roots against ``flat_window``."""
    ref = flat_window()
    bad = []
    for key, want in ref.items():
        got = values.get(key)
        if got is None or not abs(got - want) <= EDGE_TOL:
            bad.append(f"{key} {got!r} against mpmath {want!r}")
    return bad


def check_flat_row(out: dict, alpha: float) -> list:
    """Dim exactly 1/2 on the closed windows; above 1/2 strictly inside."""
    ref = flat_window()
    dim = out["dim"]
    if alpha <= ref["alpha_lower"] or alpha >= ref["alpha_upper"]:
        return [] if dim == 0.5 else [f"dim {dim!r} on the flat window is not 1/2"]
    bad = []
    if out["regime"] != "legendre" or not dim > 0.5:
        bad.append(f"{out['regime']} row with dim {dim!r} inside the window")
    res = out["residuals"]
    if res is None or max(res) > RESIDUAL_TOL:
        bad.append(f"residuals {res!r} above {RESIDUAL_TOL}")
    return bad


def check_flat_curve(out: dict, rows: list) -> list:
    """Transitions match the references; the spectrum rises, then falls.

    ``rows`` holds (alpha, dim) of the Legendre rows of the same pass; the
    curve's own alpha-tilde row joins them as the maximum.
    """
    tr = out["transitions"]
    ref = flat_window()
    bad = check_flat_bounds(tr)
    tilde = tr.get("alpha_tilde")
    if tilde is None or not ref["alpha_lower"] < tilde < ref["alpha_upper"]:
        return bad + [f"alpha_tilde {tilde!r} outside the window"]
    peak = [p["dim"] for p in out["points"] if abs(p["alpha"] - tilde) <= 1e-12]
    seq = sorted(rows + [(tilde, peak[0] if peak else math.nan)])
    for (x, a), (y, b) in zip(seq, seq[1:]):
        if y <= tilde and not b >= a - MONO_TOL:
            bad.append(f"dim falls from {a!r} to {b!r} between {x!r} and {y!r} below alpha_tilde")
        if x >= tilde and not b <= a + MONO_TOL:
            bad.append(f"dim rises from {a!r} to {b!r} between {x!r} and {y!r} above alpha_tilde")
    return bad


def check_flat_certificate(out: dict, alpha: float, on_window: bool) -> list:
    if out["witness"] != on_window:
        where = "on the flat window" if on_window else "inside the window"
        return [f"witness {out['witness']} at level {alpha!r} {where}"]
    return []


# ---------------------------------------------------------------------------
# doubling map: Besicovitch-Eggleston


@_with_dps
def be_dimension(alpha: float) -> float:
    """H(alpha)/log 2, the dimension of the digit-1 frequency-alpha set."""
    a = mp.mpf(alpha)
    if a in (0, 1):
        return 0.0
    return float(-(a * mp.log(a) + (1 - a) * mp.log(1 - a)) / mp.log(2))


def be_box_max(lo: float, hi: float) -> float:
    """Maximum of H/log 2 over [lo, hi]; H peaks at 1/2."""
    return be_dimension(min(max(0.5, lo), hi))


def check_doubling_row(out: dict, alpha: float) -> list:
    want = be_dimension(alpha)
    if out["dim"] is None or abs(out["dim"] - want) > BE_TOL:
        return [f"dim {out['dim']!r} against H(alpha)/log 2 = {want!r}"]
    return []


# ---------------------------------------------------------------------------
# measures: statistics recomputed from the returned words and weights


def gauss_log_diameter(word) -> float:
    """log diam of the continued-fraction cylinder [a_1, ..., a_n].

    With continuants q_k = a_k q_{k-1} + q_{k-2} (q_0 = 1, q_{-1} = 0) the
    cylinder has endpoints p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}), so
    its diameter is exactly 1 / (q_n (q_n + q_{n-1})).
    """
    q_prev, q = 0, 1
    for a in word:
        q_prev, q = q, a * q + q_prev
    return -(math.log(q) + math.log(q + q_prev))


def recompute_stats(words, weights, log_diameter, potential) -> dict:
    """h, lambda, ratio and the Birkhoff mean of a level-1 potential."""
    n = len(words[0])
    h = -math.fsum(p * math.log(p) for p in weights) / n
    lam = -math.fsum(p * log_diameter(w) for p, w in zip(weights, words)) / n
    mom = math.fsum(p * math.fsum(potential(a) for a in w) for p, w in zip(weights, words)) / n
    return {"h": h, "lyapunov": lam, "ratio": h / lam, "moment": mom}


def doubling_log_diameter(word) -> float:
    return -len(word) * math.log(2.0)


def check_weights(out: dict) -> list:
    w = out["weights"]
    if not w or min(w) <= 0 or abs(math.fsum(w) - 1.0) > RECOMPUTE_TOL:
        return [f"weights not a probability vector (sum {math.fsum(w)!r})"]
    return []


def check_measure(out: dict, log_diameter, potential, box) -> list:
    """Reported statistics against a recomputation; moment inside ``box``."""
    bad = check_weights(out)
    if bad:
        return bad
    ref = recompute_stats(out["words"], out["weights"], log_diameter, potential)
    for key in ("h", "lyapunov", "ratio"):
        if abs(out[key] - ref[key]) > RECOMPUTE_TOL * max(1.0, abs(ref[key])):
            bad.append(f"{key} {out[key]!r} against recomputed {ref[key]!r}")
    if box is not None:
        lo, hi = box
        if out["moments"] and abs(out["moments"][0] - ref["moment"]) > RECOMPUTE_TOL:
            bad.append(f"moment {out['moments'][0]!r} against recomputed {ref['moment']!r}")
        if not lo - BOX_TOL <= ref["moment"] <= hi + BOX_TOL:
            bad.append(f"moment {ref['moment']!r} outside the box [{lo!r}, {hi!r}]")
    if not ref["ratio"] <= 1.0 + RECOMPUTE_TOL:
        bad.append(f"ratio {ref['ratio']!r} above 1")
    return bad


def check_doubling_ratio(out: dict, alpha: float, eps: float) -> list:
    box = (alpha - eps, alpha + eps)
    bad = check_measure(out, doubling_log_diameter, lambda a: float(a == 1), box)
    want = be_box_max(*box)
    if abs(out["ratio"] - want) > BE_TOL:
        bad.append(f"ratio {out['ratio']!r} against the box maximum {want!r}")
    return bad


def check_golden_ratio(out: dict) -> list:
    """(1/2)^t + (1/4)^t = 1 at t = log2 of the golden ratio."""
    logd = {1: math.log(0.5), 2: math.log(0.25)}
    bad = check_measure(out, lambda w: math.fsum(logd[a] for a in w), lambda a: 0.0, None)
    want = float(mp.log((1 + mp.sqrt(5)) / 2, 2))
    if abs(out["ratio"] - want) > BE_TOL:
        bad.append(f"ratio {out['ratio']!r} against log2 of the golden ratio {want!r}")
    return bad


def check_gauss_measure(out: dict, box) -> list:
    return check_measure(out, gauss_log_diameter, lambda a: 1.0 / a, box)


@functools.lru_cache(maxsize=None)
@_with_dps
def freq_ratio_window(freqs: tuple, eps: float, q: int) -> tuple[float, float]:
    """Bracket for the best level-1 ratio on digits 1..q with pinned frequencies.

    With the pinned frequencies fixed, h/lambda is maximal for the rest of
    the mass in Gibbs form p_m ~ diam(I_m)^t (Dinkelbach), so the optimum is
    a one-dimensional maximisation over t.  The lower end pins the
    frequencies exactly; the upper end takes the best corner of the box
    (the ratio is monotone in each frequency over so small a box).
    """
    logd = [None] + [-mp.log(m * (m + 1)) for m in range(1, q + 1)]
    k = len(freqs)

    def best(pins):
        rest = 1 - sum(pins)

        def ratio(t):
            w = [mp.exp(t * logd[m]) for m in range(k + 1, q + 1)]
            s = sum(w)
            ps = list(pins) + [rest * x / s for x in w]
            h = -sum(p * mp.log(p) for p in ps)
            return h / -sum(p * d for p, d in zip(ps, logd[1:]))

        t = mp.findroot(lambda u: mp.diff(ratio, u), 0.9)
        return ratio(t)

    center = best([mp.mpf(f) for f in freqs])
    corners = [[mp.mpf(f) + s * mp.mpf(eps) for f, s in zip(freqs, signs)]
               for signs in itertools.product((-1, 1), repeat=k)]
    return float(center), float(max(best(c) for c in corners))


def check_freq_dim(out: dict, freqs, eps: float, q: int) -> list:
    lo, hi = freq_ratio_window(tuple(freqs), eps, q)
    r = out["alpha3"]
    bad = []
    if out["regime"] != "variational" or out["dimension"] != max(0.5, r):
        bad.append(f"regime {out['regime']} with dimension {out['dimension']!r}, ratio {r!r}")
    if not lo - RATIO_TOL <= r <= hi + RATIO_TOL:
        bad.append(f"ratio {r!r} outside [{lo!r}, {hi!r}]")
    if not r <= 1.0:
        bad.append(f"ratio {r!r} above 1")
    return bad


def check_feasible(out: dict, target: float, eps: float) -> list:
    if out["verdict"] != "feasible-with-witness":
        return [f"verdict {out['verdict']}"]
    bad = check_weights(out)
    if bad:
        return bad
    ref = recompute_stats(out["words"], out["weights"], gauss_log_diameter, lambda a: 1.0 / a)
    if abs(ref["moment"] - target) > eps + BOX_TOL:
        bad.append(f"witness moment {ref['moment']!r} misses {target} by more than {eps}")
    if abs(out["moments"][0] - ref["moment"]) > RECOMPUTE_TOL:
        bad.append(f"moment {out['moments'][0]!r} against recomputed {ref['moment']!r}")
    return bad
