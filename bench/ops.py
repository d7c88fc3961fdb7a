"""The op lists, run inside the fresh worker process.

This module imports nothing beyond the standard library, so the worker's
set-up time is that of thermospec alone.  ``build`` makes the workload's
systems and potentials; ``ops`` lists one pass of calls into the public
API, each with the check kind and argument that ``workloads.check`` uses,
and an encoder that turns the result into JSON.
"""

from __future__ import annotations

import math

RATIO_EPS = 1e-4

# Unit ops that also run in the probe processes, per workload: probe k of a
# round runs every n-th unit op from the k-th on.  Inside the pass the unit
# ops take one stretch of it (0.3 s of 30 s for the ten sandwich roots, 14 s
# for the 51 flat rows), so they sample the host at one moment; on a host
# whose speed drifts by a third from one stretch of seconds to the next,
# their median would follow that drift.  Probes before and after the pass
# spread the samples over the run.
PROBED = {"gauss_dimension": 1, "flat_spectrum": 6}


def build(ts, name: str, inputs: dict) -> dict:
    """The workload's systems and potentials (timed as set-up)."""
    if name == "gauss_dimension":
        g = ts.gauss_system()
        return {"g": g, "g2": ts.truncate(g, 2),
                "restricted": [ts.restricted_system(g, N) for N in inputs["ladder"]]}
    if name == "flat_spectrum":
        return {"flat": ts.flat_example_system(), "d2": ts.doubling_system(),
                "chi1": ts.indicator_potential(1)}
    g = ts.gauss_system()
    return {"d2": ts.doubling_system(), "chi1": ts.indicator_potential(1),
            "golden": ts.linear_system([0.5, 0.25]), "g": g, "g8": ts.truncate(g, 8),
            "harm": ts.harmonic_potential()}


def label(N: int) -> str:
    e = round(math.log10(N))
    return f"10^{e}" if N >= 10 ** 6 and N == 10 ** e else str(N)


def _root(r) -> dict:
    return {"value": r.value, "interval": list(r.interval), "method": r.method,
            "q": r.q, "n_used": r.n_used}


def _point(p) -> dict:
    return {"alpha": p.alpha, "dim": p.dim, "regime": p.regime,
            "residuals": None if p.residuals is None else list(p.residuals)}


def _measure(pair) -> dict:
    m, st = pair
    return {"words": [list(w) for w in m.words], "weights": list(m.weights),
            "h": st.h, "lyapunov": st.lyapunov, "ratio": st.ratio,
            "moments": list(st.moments)}


def _curve(cv) -> dict:
    return {"transitions": dict(cv.transitions), "points": [_point(p) for p in cv.points]}


def _bounds(fb) -> dict:
    return {"alpha_lower": fb.alpha_lower, "alpha_upper": fb.alpha_upper,
            "q_minus": fb.q_minus, "q_plus": fb.q_plus}


def _certificate(fc) -> dict:
    return {"witness": fc.witness, "qhat": fc.qhat, "value_hi": fc.value_hi}


def _freq(r) -> dict:
    return {"dimension": r.dimension, "alpha3": r.alpha3, "regime": r.regime}


def _feasible(r) -> dict:
    w = r.witness
    return {"verdict": r.verdict, "moments": list(r.moments),
            "words": [list(x) for x in w.words] if w else [],
            "weights": list(w.weights) if w else []}


def ops(ts, name: str, inputs: dict, c: dict) -> list:
    """(id, check kind, argument, is unit op, call, encode) per op, in order."""
    out = []
    if name == "gauss_dimension":
        out.append(("root[gauss]", "gauss_full", None, False, lambda: ts.pressure_root(
            c["g"], bracket=(0.8, 1.2), q=200, n_max=4), _root))
        for N, sub in zip(inputs["ladder"], c["restricted"]):
            out.append((f"root[N={label(N)}]", "restricted", N, True,
                        lambda sub=sub: ts.pressure_root(sub), _root))
        out.append(("root[E_2]", "e2", None, False, lambda: ts.pressure_root(c["g2"]), _root))
        return out
    if name == "flat_spectrum":
        flat, chi1 = c["flat"], c["chi1"]
        lo, hi = inputs["window"]
        for a in inputs["rows"]:
            out.append((f"row[{a!r}]", "flat_row", a, lo < a < hi,
                        lambda a=a: ts.legendre_solve(flat, chi1, a), _point))
        out.append(("curve[transitions]", "flat_curve", None, False,
                    lambda: ts.spectrum_curve(flat, chi1, []), _curve))
        out.append(("flat_bounds", "flat_bounds", None, False,
                    lambda: ts.flat_bounds(flat), _bounds))
        for kind in ("outer", "inner"):
            for a in inputs[kind]:
                out.append((f"cert[{a!r}]", f"cert_{kind}", a, False,
                            lambda a=a: ts.flat_certificate(flat, chi1, a), _certificate))
        for a in inputs["doubling"]:
            out.append((f"doubling_row[{a!r}]", "doubling_row", a, False,
                        lambda a=a: ts.legendre_solve(c["d2"], chi1, a), _point))
        return out
    chi1, harm = c["chi1"], c["harm"]
    for a in inputs["levels"]:
        out.append((f"ratio[{a!r}]", "ratio_doubling", a, True, lambda a=a: ts.maximize_ratio(
            c["d2"], ((chi1, a, RATIO_EPS),)), _measure))
    out.append(("ratio[golden]", "ratio_golden", None, False,
                lambda: ts.maximize_ratio(c["golden"]), _measure))
    out.append(("ratio[g8,harmonic]", "ratio_gauss", None, False, lambda: ts.maximize_ratio(
        c["g8"], ((harm, 0.5, 1e-3),), q=8, n=2), _measure))
    out.append(("freq_dim[0.3,0.2]", "freq_dim", None, False, lambda: ts.digit_frequency_dimension(
        c["g"], [0.3, 0.2], mode="partial"), _freq))
    out.append(("feasible[0.6]", "feasible", None, False, lambda: ts.feasible(
        c["g"], (0.6,), eps=1e-6, q=50, potentials=(harm,)), _feasible))
    return out
