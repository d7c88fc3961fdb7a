"""Command-line entry point.

Every command resolves its inputs, runs one library call, and emits a JSON
envelope {command, version, config, result} (or a CSV table for spectrum
curves and a plain-text table for verify).  Floats are rendered with 17
significant digits so identical configurations produce byte-identical
output.

Exit codes: 0 success, 1 failing verification suite, 2 configuration or
parse errors, 3 numeric failures (with partial results where available),
also a spectrum whose every row is an error row.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import math
import os
import sys

import numpy as np

from . import __version__
from ._frozen import asdict
from .errors import BudgetExceededError, ThermospecError
from .measures import digit_frequency_dimension, feasible
from .spectrum import flat_bounds, spectrum_curve
from .systems import load_model, load_potential
from .thermo import default_budget, pressure, pressure_root, s_infinity

_BUILTIN_MODELS = ("gauss", "doubling", "flat_example", "invsq")
_BUILTIN_POTENTIALS = ("chi1", "harmonic")


class _ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def _to_json(value, indent: int = 0) -> str:
    """Deterministic JSON with fixed float rendering.

    The standard encoder picks the shortest float repr, which is stable but
    version-dependent in spirit; this pins the exact format instead.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(f"{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 2)}"
                           for k, v in value.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_to_json(v, indent) for v in value) + "]"
    if hasattr(value, "_fields"):  # a frozen result value
        return _to_json(asdict(value), indent)
    if value is None or isinstance(value, (bool, np.bool_)):
        return json.dumps(bool(value) if value is not None else None)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _envelope(args, compute) -> tuple[str, int]:
    """Run one library call and render its JSON envelope, with the exit code.

    ``config`` is every parsed flag but the command, so handlers normalise
    ``args`` in place first.  ``result`` is what ``compute`` returns, mostly a
    result value whose field order is the envelope's.  Numeric failures
    give exit code 3 and an ``error`` result, with the ``partial`` estimate
    that a budget overrun carries.
    """
    config = {k: v for k, v in vars(args).items() if k != "command"}
    try:
        result, code = compute(), 0
    except ThermospecError as exc:
        result, code = {"error": str(exc)}, 3
        if isinstance(exc, BudgetExceededError) and exc.partial is not None:
            result["partial"] = exc.partial
    doc = {"command": args.command, "version": __version__,
           "config": config, "result": result}
    return _to_json(doc) + "\n", code


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input resolution


def _read_spec_text(arg: str, builtin: tuple) -> str:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    if arg.lstrip().startswith("{"):
        return arg
    stem = os.path.splitext(os.path.basename(arg))[0]
    if stem in builtin:
        res = importlib.resources.files("thermospec.models").joinpath(stem + ".json")
        return res.read_text(encoding="utf-8")
    raise _ConfigError(f"no such file or built-in name: {arg!r}")


def _load_model_arg(arg: str):
    try:
        return load_model(_read_spec_text(arg, _BUILTIN_MODELS))
    except (OSError, json.JSONDecodeError, ThermospecError) as exc:
        raise _ConfigError(f"cannot load model {arg!r}: {exc}") from exc


def _load_potential_arg(arg: str):
    try:
        return load_potential(_read_spec_text(arg, _BUILTIN_POTENTIALS))
    except (OSError, json.JSONDecodeError, ThermospecError) as exc:
        raise _ConfigError(f"cannot load potential {arg!r}: {exc}") from exc


def _parse_floats(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _load_gamma_arg(arg: str):
    """Target moments: a JSON file/text with optional potentials, or a bare
    comma-separated vector (digit-indicator potentials implied)."""
    data = None
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _ConfigError(f"cannot load gamma file {arg!r}: {exc}") from exc
    elif arg.lstrip().startswith(("{", "[")):
        try:
            data = json.loads(arg)
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"cannot parse gamma JSON: {exc}") from exc
    else:
        return _parse_floats(arg, "--gamma"), None
    if isinstance(data, list):
        return [float(x) for x in data], None
    try:
        gamma = [float(x) for x in data["gamma"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise _ConfigError("gamma file must carry a numeric 'gamma' array") from exc
    pots = data.get("potentials")
    if pots is not None:
        try:
            pots = tuple(load_potential(d) for d in pots)
        except ThermospecError as exc:
            raise _ConfigError(f"bad potential in gamma file: {exc}") from exc
    return gamma, pots


def _resolve_budget(args) -> None:
    """Fill in the default enumeration budget; a bad THERMOSPEC_BUDGET is a
    configuration error (exit code 2), like a bad flag."""
    if args.budget is None:
        try:
            args.budget = default_budget()
        except ThermospecError as exc:
            raise _ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# result rendering helpers


def _point_dict(pt) -> dict:
    r1 = pt.residuals[0] if pt.residuals else None
    r2 = pt.residuals[1] if pt.residuals else None
    return {"alpha": pt.alpha, "dim": pt.dim, "t": pt.t, "q": pt.q,
            "regime": pt.regime, "resid1": r1, "resid2": r2,
            "s_inf": pt.s_inf, "note": pt.note}


def _csv_cell(x) -> str:
    if x is None:
        return ""
    return x if isinstance(x, str) else _format_float(float(x))


def _curve_csv(curve) -> str:
    columns = ("alpha", "dim", "t", "q", "regime", "resid1", "resid2")
    rows = [columns] + [[_point_dict(pt)[c] for c in columns] for pt in curve.points]
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# command handlers: each returns (rendered text, exit code)


def _cmd_pressure(args):
    system = _load_model_arg(args.model)
    potential = _load_potential_arg(args.potential) if args.potential else None
    _resolve_budget(args)
    return _envelope(args, lambda: pressure(
        system, potential, t=args.t, q=args.q, n_max=args.n, budget=args.budget,
        workers=args.workers))


def _cmd_sinf(args):
    system = _load_model_arg(args.model)
    return _envelope(args, lambda: s_infinity(system, tol=args.tol))


def _cmd_root(args):
    system = _load_model_arg(args.model)
    _resolve_budget(args)
    return _envelope(args, lambda: pressure_root(
        system, bracket=args.bracket, tol=args.tol, q=args.q, n_max=args.n,
        budget=args.budget, workers=args.workers))


def _cmd_spectrum(args):
    system = _load_model_arg(args.model)
    potential = _load_potential_arg(args.potential)
    for flag, value in (("--alpha-min", args.alpha_min), ("--alpha-max", args.alpha_max)):
        if not math.isfinite(value):
            raise _ConfigError(f"{flag} must be finite, got {value!r}")
    if args.alpha_max < args.alpha_min:
        raise _ConfigError("--alpha-max must be >= --alpha-min")
    if args.points < 1:
        raise _ConfigError("--points must be >= 1")
    grid = np.linspace(args.alpha_min, args.alpha_max, args.points)
    curve = spectrum_curve(system, potential, grid)
    code = 3 if all(pt.regime == "error" for pt in curve.points) else 0
    if args.format == "csv":
        return _curve_csv(curve), code
    # built by hand: each point's residual pair is split into the resid1 and
    # resid2 columns of the CSV form
    return _envelope(args, lambda: {
        "points": [_point_dict(pt) for pt in curve.points],
        "transitions": curve.transitions})[0], code


def _cmd_flat_bounds(args):
    system = _load_model_arg(args.model)
    potential = _load_potential_arg(args.potential) if args.potential else None
    return _envelope(args, lambda: flat_bounds(system, potential))


def _cmd_freq_dim(args):
    system = _load_model_arg(args.model)
    args.freqs = _parse_floats(args.freqs, "--freqs")
    if not args.freqs:
        raise _ConfigError("--freqs must name at least one frequency")
    return _envelope(args, lambda: digit_frequency_dimension(
        system, args.freqs, mode=args.mode, eps=args.eps, q=args.q, n=args.n))


def _cmd_feasible(args):
    system = _load_model_arg(args.model)
    args.gamma, pots = _load_gamma_arg(args.gamma)

    def compute():
        result = asdict(feasible(system, args.gamma, eps=args.eps, q=args.q,
                                n=args.n, potentials=pots))
        result["witness"] = result.pop("witness")  # the envelope lists it last
        return result

    return _envelope(args, compute)


def _cmd_verify(args):
    from .oracle import verification_suite  # the suite loads only when it runs

    reports = verification_suite(args.suite)
    width = max(len(r.quantity) for r in reports)
    lines = [f"{'status':<6} {'quantity':<{width}} {'oracle':>24} "
             f"{'module':>24} {'|diff|':>12} {'tol':>10}"]
    failed = 0
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        lines.append(f"{status:<6} {r.quantity:<{width}} {r.oracle_value:>24.17g} "
                     f"{r.module_value:>24.17g} {r.abs_difference:>12.3g} "
                     f"{r.tolerance:>10.3g}")
    lines.append(f"{len(reports)} reports, {failed} failed")
    return "\n".join(lines) + "\n", (0 if failed == 0 else 1)


def _cmd_sample(args):
    from .oracle import sample_orbit

    system = _load_model_arg(args.model)
    if (args.recipe is None) == (args.word is None):
        raise _ConfigError("provide exactly one of --recipe or --word")
    pots = tuple(_load_potential_arg(p) for p in args.potentials)
    args.recipe = _parse_floats(args.recipe, "--recipe") if args.recipe else None
    if args.word is not None:
        try:
            args.word = [int(x) for x in args.word.split(",") if x.strip() != ""]
        except ValueError as exc:
            raise _ConfigError(f"--word expects comma-separated digits: {exc}") from exc

    def compute():
        # built by hand: the envelope orders the fields unlike OrbitSample and
        # sorts the frequencies by digit
        sample = sample_orbit(system, recipe=args.recipe, word=args.word, n=args.n,
                              potentials=pots, base=args.base)
        return {"word": list(sample.word), "points": list(sample.points),
                "frequencies": {str(k): v for k, v in sorted(sample.frequencies.items())},
                "escape_frequency": sample.escape_frequency,
                "averages": [list(a) for a in sample.averages]}

    return _envelope(args, compute)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermospec",
        description="Pressure, dimension and spectrum computations for "
                    "countable expanding interval systems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, potential=False):
        sp.add_argument("--model", required=True,
                        help="model JSON path or built-in name "
                             f"({', '.join(_BUILTIN_MODELS)})")
        if potential:
            sp.add_argument("--potential", default=None,
                            help="potential JSON path or built-in name "
                                 f"({', '.join(_BUILTIN_POTENTIALS)})")

    sp = sub.add_parser("pressure", help="periodic-word pressure estimate")
    common(sp, potential=True)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--n", type=int, default=3, help="maximum word length")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("sinf", help="critical exponent of the diameter series")
    common(sp)
    sp.add_argument("--tol", type=float, default=1e-3,
                    help="distance of the probe past s_inf on the side the "
                         "series does not decide at s_inf itself")

    sp = sub.add_parser("root", help="root of t -> P(-t log|T'|)")
    common(sp)
    sp.add_argument("--bracket", type=float, nargs=2, default=None)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)

    sp = sub.add_parser("spectrum", help="dimension spectrum over a level grid")
    common(sp, potential=True)
    sp.add_argument("--alpha-min", type=float, default=0.0)
    sp.add_argument("--alpha-max", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=101)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("flat-bounds", help="flat window edges and tilt roots")
    common(sp, potential=True)

    sp = sub.add_parser("freq-dim", help="dimension for prescribed digit frequencies")
    common(sp)
    sp.add_argument("--freqs", required=True)
    sp.add_argument("--mode", choices=("full", "partial"), default="full")
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--n", type=int, default=1)

    sp = sub.add_parser("feasible", help="moment feasibility with witness")
    common(sp)
    sp.add_argument("--gamma", required=True,
                    help="JSON file/text with gamma (and optional potentials), "
                         "or a comma-separated vector")
    sp.add_argument("--eps", type=float, default=0.0)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--n", type=int, default=1)

    sp = sub.add_parser("verify", help="run the oracle validation suite")
    sp.add_argument("--suite", choices=("all", "thermo", "spectrum", "measures"),
                    default="all")

    sp = sub.add_parser("sample", help="deterministic orbit sampler")
    common(sp)
    sp.add_argument("--recipe", default=None,
                    help="comma-separated digit frequencies (sum <= 1)")
    sp.add_argument("--word", default=None, help="comma-separated digits")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--potential", action="append", default=[], dest="potentials",
                    metavar="POTENTIAL",
                    help="potential for running averages (repeatable)")
    sp.add_argument("--base", type=float, default=0.5)

    # last, so that every envelope's config ends with it
    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to this file")
    return parser


_HANDLERS = {
    "pressure": _cmd_pressure,
    "sinf": _cmd_sinf,
    "root": _cmd_root,
    "spectrum": _cmd_spectrum,
    "flat-bounds": _cmd_flat_bounds,
    "freq-dim": _cmd_freq_dim,
    "feasible": _cmd_feasible,
    "verify": _cmd_verify,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _HANDLERS[args.command](args)
    except _ConfigError as exc:
        print(f"thermospec: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
