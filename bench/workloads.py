"""The three workloads: seeded inputs and the checks of their outputs.

Both run in the benchmark process, which never imports thermospec; the
ops themselves are listed in ``ops.py`` and run in a fresh worker.

Seed 0 reproduces the README and acceptance grids.  Any other seed draws
the same number of levels from the same ranges, each inside its own
stratum, so that the mix of cheap and expensive ops, and of ops that fail,
is the same at every seed.
"""

from __future__ import annotations

import math
import random

import checks
from ops import RATIO_EPS

DEFAULT_SEED = 0
WORKLOADS = ("gauss_dimension", "flat_spectrum", "ratio_max")

# Ops that fail at every seed through a fault of the program (see README).
KNOWN_FAULTS = {
    "root[E_2]": "pressure_root raises ModelError on the finite system truncate(gauss, 2)",
    "root[N=10^6]": "sandwich point value 2.9e-9 below the rigorous lower bound",
    "root[N=10^45]": "certified interval ends 8e-14 short of the enclosure",
}

# Digits >= N ladder.  Seeded rungs are drawn log-uniformly from their
# strata.  The top three rungs are pinned: from about N = 5e4 on, whether
# the point value falls outside the enclosure, and from about N = 1e10 on,
# whether the certified interval misses it, changes with N, so a drawn rung
# there would fail at some seeds and not at others.
LADDER = ((2, 2, 4), (5, 4, 7), (10, 7, 14), (20, 14, 40), (100, 40, 300),
          (1000, 300, 3000), (10 ** 4, 3000, 20000),
          (10 ** 6, None, None), (10 ** 12, None, None), (10 ** 45, None, None))

# Criterion 3's levels; seeds move each by at most RATIO_JITTER.  The cost of
# one maximisation changes by up to 15x within 1e-3 of a level near 1/2, so
# the central level stays pinned and the others move only a little.
RATIO_JITTER = 0.002

# Legendre rows are never drawn closer than this to a window edge, where
# dim - 1/2 shrinks to the size of the solver's error.
EDGE_MARGIN = 1e-4


def _strata(rng, lo: float, hi: float, k: int) -> list:
    """k points, one uniform draw in each of k equal cells of [lo, hi]."""
    w = (hi - lo) / k
    return [rng.uniform(lo + j * w, lo + (j + 1) * w) for j in range(k)]


def _linspace(lo: float, hi: float, k: int) -> list:
    """numpy.linspace(lo, hi, k), bit for bit."""
    step = (hi - lo) / (k - 1)
    return [j * step + lo for j in range(k - 1)] + [hi]


def _jitter_inside(rng, grid: list) -> list:
    """Keep the ends; move inner points within their cells of the grid."""
    out = [grid[0]]
    for a, b, c in zip(grid, grid[1:], grid[2:]):
        out.append(rng.uniform((a + b) / 2, (b + c) / 2))
    return out + [grid[-1]]


def make_inputs(name: str, seed: int) -> dict:
    rng = random.Random(seed)
    default = seed == DEFAULT_SEED
    if name == "gauss_dimension":
        ladder = []
        for N, lo, hi in LADDER:
            if not default and lo is not None:
                N = min(hi - 1, max(lo, round(math.exp(rng.uniform(math.log(lo), math.log(hi))))))
            ladder.append(N)
        return {"ladder": ladder}
    if name == "flat_spectrum":
        win = checks.flat_window()
        aL, aU = win["alpha_lower"], win["alpha_upper"]
        rows = _linspace(0.0, 1.0, 101)
        outer = _linspace(0.0, aL, 6) + _linspace(aU, 1.0, 5)
        inner = _linspace(aL + 1e-3, aU - 1e-3, 11)
        dbl = _linspace(0.05, 0.95, 21)
        if not default:
            # same count of rows on each window and inside, as at seed 0
            n_lo = sum(a <= aL for a in rows)
            n_in = sum(aL < a < aU for a in rows)
            n_hi = len(rows) - n_lo - n_in
            rows = ([0.0] + _strata(rng, 0.0, aL - EDGE_MARGIN, n_lo - 1)
                    + _strata(rng, aL + EDGE_MARGIN, aU - EDGE_MARGIN, n_in)
                    + _strata(rng, aU + EDGE_MARGIN, 1.0, n_hi - 1) + [1.0])
            outer = _jitter_inside(rng, outer[:6]) + _jitter_inside(rng, outer[6:])
            inner = _jitter_inside(rng, inner)
            dbl = _jitter_inside(rng, dbl)
        return {"rows": rows, "outer": outer, "inner": inner, "doubling": dbl,
                "window": [aL, aU]}
    if name == "ratio_max":
        levels = _linspace(0.05, 0.95, 21)
        if not default:
            levels = [a if abs(a - 0.5) < 1e-12 else
                      min(0.95, max(0.05, a + rng.uniform(-RATIO_JITTER, RATIO_JITTER)))
                      for a in levels]
        return {"levels": levels}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# checks, back in the benchmark process


def check(records: list) -> list:
    """Failure messages per record of one worker process; a record that raised fails."""
    rows = [(r["arg"], r["out"]["dim"]) for r in records
            if r["kind"] == "flat_row" and r["out"] is not None]
    previous = None
    results = []
    for r in records:
        out, kind, a = r["out"], r["kind"], r["arg"]
        if out is None:
            results.append([r["error"]])
            continue
        if kind == "restricted":
            bad = checks.check_restricted_root(out, a, previous)
            previous = out["value"]
        else:
            bad = {
                "gauss_full": lambda: checks.check_full_gauss_root(out),
                "e2": lambda: checks.check_e2(out),
                "flat_row": lambda: checks.check_flat_row(out, a),
                "flat_curve": lambda: checks.check_flat_curve(out, rows),
                "flat_bounds": lambda: checks.check_flat_bounds(out),
                "cert_outer": lambda: checks.check_flat_certificate(out, a, True),
                "cert_inner": lambda: checks.check_flat_certificate(out, a, False),
                "doubling_row": lambda: checks.check_doubling_row(out, a),
                "ratio_doubling": lambda: checks.check_doubling_ratio(out, a, RATIO_EPS),
                "ratio_golden": lambda: checks.check_golden_ratio(out),
                "ratio_gauss": lambda: checks.check_gauss_measure(out, (0.5 - 1e-3, 0.5 + 1e-3)),
                "freq_dim": lambda: checks.check_freq_dim(out, (0.3, 0.2), 1e-6, 16),
                "feasible": lambda: checks.check_feasible(out, 0.6, 1e-6),
            }[kind]()
        results.append(bad)
    return results
