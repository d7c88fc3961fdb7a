"""Self-test of the independent checks: each accepts a correct output and
rejects one moved by ten times its tolerance.

    python3 bench/selftest.py

Needs mpmath only; exits 1 when any case goes the wrong way.
"""

from __future__ import annotations

import math
import random
import sys

import mpmath as mp

import checks as C

CASES: list[tuple[str, bool]] = []


def case(label: str, failures: list, expect_pass: bool) -> None:
    ok = (not failures) == expect_pass
    CASES.append((label, ok))
    verdict = "accepts" if not failures else "rejects"
    print(f"{'PASS' if ok else 'FAIL'} {label}: {verdict}" + (f" ({failures[0]})" if failures else ""))


def sandwich() -> None:
    # transfer-operator values of ROADMAP item 3 lie inside the enclosures
    for N, value in ((10, 0.7015018267), (20, 0.6758491210), (100, 0.6390782509),
                     (1000, 0.6097613624)):
        lo, hi = C.sandwich_enclosure(N)
        case(f"enclosure N={N} holds the operator value", [] if lo <= value <= hi else ["outside"], True)
    lo, hi = C.sandwich_enclosure(10 ** 6)
    mid = 0.5 * (lo + hi)
    good = {"value": mid, "interval": [lo, hi]}
    case("sandwich: value inside the enclosure", C.check_restricted_root(good, 10 ** 6, 0.6), True)
    for sign, edge in ((-1, lo), (1, hi)):
        moved = {"value": edge + sign * 10 * C.ROOT_TOL, "interval": [lo, hi]}
        case(f"sandwich: value 10 tol {'below' if sign < 0 else 'above'}",
             C.check_restricted_root(moved, 10 ** 6, 0.6), False)
    short = {"value": mid, "interval": [lo - 1e-3, lo - 10 * C.ROOT_TOL]}
    case("sandwich: interval ending 10 tol short", C.check_restricted_root(short, 10 ** 6, 0.6), False)
    case("sandwich: rung not below the previous one", C.check_restricted_root(good, 10 ** 6, mid), False)


def e2() -> None:
    case("E_2: published constant", C.check_e2({"value": C.E2}), True)
    case("E_2: moved by 10 tol", C.check_e2({"value": C.E2 + 10 * C.E2_TOL}), False)


def flat() -> None:
    ref = C.flat_window()
    quoted = {"alpha_lower": 0.2226131530056198, "alpha_upper": 0.7380876854048219}
    case("flat window: mpmath edges match the quoted values",
         [k for k, v in quoted.items() if abs(ref[k] - v) > C.EDGE_TOL], True)
    with mp.workdps(30):
        K, Cc = mp.mpf(C.FLAT_K), mp.mpf(C.FLAT_C)
        roots = [K * mp.exp(mp.mpf(ref["q_minus"])) + Cc - 1,
                 mp.log(K * mp.exp(mp.mpf(ref["q_plus"])) + Cc) - mp.mpf(ref["q_plus"])]
    case("flat window: q-/q+ solve alpha(q) = 0, 1", [r for r in roots if abs(r) > 1e-15], True)
    case("flat bounds: reference values", C.check_flat_bounds(dict(ref)), True)
    for key in ref:
        moved = dict(ref, **{key: ref[key] + 10 * C.EDGE_TOL})
        case(f"flat bounds: {key} moved by 10 tol", C.check_flat_bounds(moved), False)
    inside = {"dim": 0.52, "regime": "legendre", "residuals": [1e-15, 1e-15]}
    case("flat row: inside, small residuals", C.check_flat_row(inside, 0.5), True)
    case("flat row: residual 10 tol", C.check_flat_row(
        dict(inside, residuals=[10 * C.RESIDUAL_TOL, 0.0]), 0.5), False)
    case("flat row: inside at dim 1/2", C.check_flat_row(dict(inside, dim=0.5), 0.5), False)
    window = {"dim": 0.5, "regime": "flat-floor", "residuals": None}
    case("flat row: window row at 1/2", C.check_flat_row(window, 0.1), True)
    case("flat row: window row off 1/2", C.check_flat_row(dict(window, dim=0.5 + 1e-15), 0.1), False)
    tilde = 0.5
    rows = [(0.1, 0.5), (0.3, 0.51), (0.45, 0.52), (0.6, 0.52), (0.7, 0.505), (0.9, 0.5)]
    curve = {"transitions": dict(ref, alpha_tilde=tilde),
             "points": [{"alpha": tilde, "dim": 0.53}]}
    case("flat curve: rises then falls", C.check_flat_curve(curve, rows), True)
    bumped = rows[:4] + [(0.65, 0.52 + 10 * C.MONO_TOL)] + rows[4:]
    case("flat curve: rise of 10 tol after the peak", C.check_flat_curve(curve, bumped), False)
    case("flat certificate: witness where expected",
         C.check_flat_certificate({"witness": True}, 0.1, True), True)
    case("flat certificate: witness inside the window",
         C.check_flat_certificate({"witness": True}, 0.5, False), False)


def besicovitch_eggleston() -> None:
    closed = 2 - 0.75 * math.log2(3)  # H(1/4)/log 2
    case("BE: H(1/4)/log 2 closed form", [] if abs(C.be_dimension(0.25) - closed) < 1e-15 else ["off"], True)
    case("BE: row on the entropy curve", C.check_doubling_row({"dim": closed}, 0.25), True)
    case("BE: row moved by 10 tol", C.check_doubling_row({"dim": closed + 10 * C.BE_TOL}, 0.25), False)
    a, eps = 0.3, 1e-4
    p = a + eps  # the box maximum sits on the edge nearest 1/2
    out = {"words": [[1], [2]], "weights": [p, 1 - p], "moments": [p],
           "h": -(p * math.log(p) + (1 - p) * math.log(1 - p)), "lyapunov": math.log(2)}
    out["ratio"] = out["h"] / out["lyapunov"]
    case("BE: constrained doubling ratio at the box maximum", C.check_doubling_ratio(out, a, eps), True)
    case("BE: ratio moved by 10 tol", C.check_doubling_ratio(
        dict(out, ratio=out["ratio"] - 10 * C.BE_TOL), a, eps), False)
    inner = a + eps - 10 * C.BE_TOL
    off = dict(out, weights=[inner, 1 - inner], moments=[inner])
    case("BE: maximiser 10 tol inside the box edge", C.check_doubling_ratio(off, a, eps), False)
    x = (math.sqrt(5) - 1) / 2  # Moran weights (x, x^2) of the (1/2, 1/4) system
    golden = {"words": [[1], [2]], "weights": [x, 1 - x], "moments": []}
    golden.update(C.recompute_stats(golden["words"], golden["weights"],
                                    lambda w: -math.log(2) * w[0], lambda s: 0.0))
    del golden["moment"]
    case("golden: log2 of the golden ratio", C.check_golden_ratio(golden), True)
    case("golden: ratio moved by 10 tol", C.check_golden_ratio(
        dict(golden, ratio=golden["ratio"] + 10 * C.BE_TOL)), False)


def mobius() -> None:
    rng = random.Random(1)
    worst = 0.0
    with mp.workdps(50):
        for _ in range(200):
            word = [rng.randint(1, 60) for _ in range(rng.randint(1, 6))]
            ends = []
            for y in (mp.mpf(0), mp.mpf(1)):
                for a in reversed(word):
                    y = 1 / (a + y)
                ends.append(y)
            exact = float(mp.log(abs(ends[0] - ends[1])))
            worst = max(worst, abs(C.gauss_log_diameter(word) - exact) / abs(exact))
    case("Moebius: continuant diameters against 50-digit composition",
         [] if worst < 1e-14 else [f"relative error {worst:.3g}"], True)
    words = [[1, 2], [2, 1], [3, 3], [1, 1]]
    weights = [0.4, 0.3, 0.2, 0.1]
    out = {"words": words, "weights": weights}
    ref = C.recompute_stats(words, weights, C.gauss_log_diameter, lambda a: 1.0 / a)
    out.update(h=ref["h"], lyapunov=ref["lyapunov"], ratio=ref["ratio"], moments=[ref["moment"]])
    box = (ref["moment"] - 1e-3, ref["moment"] + 1e-3)
    case("Moebius: Gauss measure statistics", C.check_gauss_measure(out, box), True)
    for key in ("h", "lyapunov", "ratio"):
        moved = dict(out, **{key: out[key] * (1 + 10 * C.RECOMPUTE_TOL)})
        case(f"Moebius: {key} moved by 10 tol", C.check_gauss_measure(moved, box), False)
    tight = (box[0], ref["moment"] - 10 * C.BOX_TOL)
    case("Moebius: moment 10 tol outside its box", C.check_gauss_measure(out, tight), False)


def frequencies() -> None:
    lo, hi = C.freq_ratio_window((0.3, 0.2), 1e-6, 16)
    out = {"alpha3": lo, "dimension": lo, "regime": "variational"}
    case("freq-dim: ratio at the pinned-frequency optimum", C.check_freq_dim(out, (0.3, 0.2), 1e-6, 16), True)
    for r in (lo - 10 * C.RATIO_TOL, hi + 10 * C.RATIO_TOL):
        case(f"freq-dim: ratio {r - lo:+.3g} from the window's low end",
             C.check_freq_dim(dict(out, alpha3=r, dimension=r), (0.3, 0.2), 1e-6, 16), False)
    p = 0.2  # p/1 + (1-p)/2 = 0.6
    wit = {"verdict": "feasible-with-witness", "words": [[1], [2]], "weights": [p, 1 - p],
           "moments": [0.6]}
    case("feasible: witness on target", C.check_feasible(wit, 0.6, 1e-6), True)
    q = p + 2 * 10 * 1e-6  # moment moves by 10 eps
    moved = dict(wit, weights=[q, 1 - q], moments=[q + (1 - q) / 2])
    case("feasible: witness 10 eps off target", C.check_feasible(moved, 0.6, 1e-6), False)


def main() -> int:
    for part in (sandwich, e2, flat, besicovitch_eggleston, mobius, frequencies):
        part()
    bad = [label for label, ok in CASES if not ok]
    print(f"{len(CASES) - len(bad)}/{len(CASES)} self-test cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
