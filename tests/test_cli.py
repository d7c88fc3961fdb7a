"""Command-line interface: envelopes, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from thermospec import cli, thermo


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_pressure_envelope(capsys):
    rc, out = run_cli(capsys, ["pressure", "--model", "doubling", "--t", "0",
                               "--q", "2", "--n", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "pressure"
    assert doc["version"] == "0.1.0"
    assert doc["config"]["t"] == 0
    assert doc["result"]["values"][0] == pytest.approx(math.log(2.0), abs=1e-15)
    # 17 significant digits are spelled out
    assert "0.69314718055994529" in out


def test_pressure_inline_model(capsys):
    rc, out = run_cli(capsys, ["pressure", "--model",
                               '{"kind": "linear", "head": [0.5, 0.25]}',
                               "--t", "1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["values"][0] == pytest.approx(math.log(0.75), abs=1e-15)


def test_sinf_gauss(capsys):
    rc, out = run_cli(capsys, ["sinf", "--model", "gauss"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == 0.5
    cert = doc["result"]["certificate"]
    assert math.isfinite(cert["series_upper_bound_at_s_hi"])
    assert math.isfinite(cert["log10_terms_to_exceed_probe_at_s_lo"])


def test_root_doubling(capsys):
    rc, out = run_cli(capsys, ["root", "--model", "doubling"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["result"]["method"] == "moran"


def test_root_envelopes_match_golden(capsys, monkeypatch):
    # byte-for-byte envelopes: root_envelopes.json holds the Moran, series,
    # sandwich and enumeration roots and the exit-3 straddle error;
    # cli_envelopes.json holds the other enveloped commands, their exit-3
    # errors and the budget partial
    monkeypatch.delenv("THERMOSPEC_BUDGET", raising=False)
    for name in ("root_envelopes.json", "cli_envelopes.json"):
        golden = Path(__file__).parent / "golden" / name
        for case in json.loads(golden.read_text(encoding="utf-8")):
            rc, out = run_cli(capsys, case["argv"])
            assert (rc, out) == (case["exit"], case["stdout"]), case["argv"]


def test_spectrum_csv_row_count(capsys):
    rc, out = run_cli(capsys, ["spectrum", "--model", "doubling",
                               "--potential", "chi1", "--points", "5"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,dim,t,q,regime,resid1,resid2"
    assert len(lines) == 6  # header plus exactly the five requested rows
    cells = lines[3].split(",")
    assert float(cells[0]) == 0.5
    assert float(cells[1]) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_json_format(capsys):
    rc, out = run_cli(capsys, ["spectrum", "--model", "doubling",
                               "--potential", "chi1", "--points", "3",
                               "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["result"]["points"]) == 3
    assert doc["result"]["transitions"]["alpha_tilde"] == pytest.approx(0.5, abs=1e-12)
    # empty cells round-trip as nulls in the JSON form
    assert doc["result"]["points"][0]["q"] is None


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_of_error_rows_only_exits_3(capsys, fmt):
    # a table potential lists no value on the flat model's tail, so every
    # row is an error row: the rows still print, and the exit code says so
    rc, out = run_cli(capsys, [
        "spectrum", "--model", "flat_example", "--potential",
        '{"kind": "table", "level": 1, "values": {"1": 1.0}}', "--points", "3",
        "--format", fmt])
    assert rc == 3
    if fmt == "csv":
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3 and all(row.split(",")[4] == "error" for row in rows)
    else:
        points = json.loads(out)["result"]["points"]
        assert [p["regime"] for p in points] == ["error"] * 3
    # one row that is not an error keeps exit 0
    assert cli.main(["spectrum", "--model", "flat_example", "--potential", "chi1",
                     "--points", "3", "--format", fmt]) == 0
    capsys.readouterr()


def test_flat_bounds_command(capsys):
    rc, out = run_cli(capsys, ["flat-bounds", "--model", "flat_example"])
    assert rc == 0
    doc = json.loads(out)
    r = doc["result"]
    assert r["q_minus"] == pytest.approx(math.log(0.4 / 0.55), abs=1e-9)
    assert r["q_plus"] == pytest.approx(math.log(0.6 / 0.45), abs=1e-9)
    assert 0.22 < r["alpha_lower"] < 0.23
    assert 0.73 < r["alpha_upper"] < 0.74


def test_freq_dim_floor(capsys):
    rc, out = run_cli(capsys, ["freq-dim", "--model", "invsq",
                               "--freqs", "0.5,0.4"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["dimension"] == 0.5
    assert doc["result"]["regime"] == "s_inf-floor"


@pytest.mark.parametrize("freqs", ["0,1", "1,0"])
def test_freq_dim_point_mass_prints_positive_zero(capsys, freqs):
    rc, out = run_cli(capsys, ["freq-dim", "--model", "doubling", "--freqs", freqs])
    assert rc == 0
    result = json.loads(out, parse_int=float)["result"]  # keeps the sign of "-0"
    assert result["alpha3"] == 0.0 and math.copysign(1.0, result["alpha3"]) == 1.0


def test_feasible_with_gamma_file(capsys, tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"gamma": [0.9],
                                 "potentials": [{"kind": "harmonic"}]}))
    rc, out = run_cli(capsys, ["feasible", "--model", "gauss",
                               "--gamma", str(gpath), "--q", "40"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "feasible-with-witness"
    assert doc["result"]["witness"] is not None


def test_feasible_with_bare_vector(capsys):
    rc, out = run_cli(capsys, ["feasible", "--model", "gauss",
                               "--gamma", "0.6", "--q", "50"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["moments"][0] == pytest.approx(0.6, abs=1e-5)


def test_sample_word_mode(capsys):
    rc, out = run_cli(capsys, ["sample", "--model", "gauss", "--word", "1,1,1",
                               "--n", "3", "--potential", "harmonic"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["word"] == [1, 1, 1]
    assert doc["result"]["averages"][0] == [1.0, 1.0, 1.0]


def test_sample_recipe_mode(capsys):
    rc, out = run_cli(capsys, ["sample", "--model", "gauss",
                               "--recipe", "0.5,0.3", "--n", "10"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["result"]["word"]) == 10
    assert doc["result"]["escape_frequency"] > 0


def test_verify_suite_output(capsys):
    rc, out = run_cli(capsys, ["verify", "--suite", "thermo"])
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("status")
    assert all(l.startswith("PASS") for l in lines[1:-1])
    assert lines[-1].endswith("0 failed")


def test_out_file_matches_stdout(capsys, tmp_path):
    rc, out = run_cli(capsys, ["flat-bounds", "--model", "flat_example"])
    target = tmp_path / "fb.json"
    rc2 = cli.main(["flat-bounds", "--model", "flat_example", "--out", str(target)])
    capsys.readouterr()
    assert rc == rc2 == 0
    written = json.loads(target.read_text())
    assert written["result"] == json.loads(out)["result"]
    assert written["config"]["out"] == str(target)


def test_outputs_are_deterministic(capsys):
    argv = ["pressure", "--model", "gauss", "--t", "1.0", "--q", "20", "--n", "3"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_worker_count_does_not_change_results(capsys):
    # level 4 at q = 30 is two blocks, so the thread pool runs; the worker
    # count is part of the level cache's key, so the 4-worker call builds its
    # own arrays instead of reading those of the 1-worker call
    base = ["pressure", "--model", "gauss", "--t", "1.0", "--q", "30", "--n", "4"]
    thermo._level_sums.cache_clear()
    results = []
    for workers in ("1", "4"):
        misses = thermo._level_sums.cache_info().misses
        _, out = run_cli(capsys, base + ["--workers", workers])
        results.append(json.loads(out)["result"])
    assert thermo._level_sums.cache_info().misses == misses + 4
    assert results[0] == results[1]


def test_worker_counts_below_one_exit_3(capsys):
    # a count below 1 is refused with exit 3 and a message naming it
    for argv, workers in ((["pressure", "--model", "gauss", "--t", "1", "--q", "30",
                            "--n", "3"], "-3"),
                          (["root", "--model", "gauss"], "0")):
        rc, out = run_cli(capsys, argv + ["--workers", workers])
        assert rc == 3
        assert json.loads(out)["result"]["error"] == f"workers must be >= 1, got {workers}"


def test_missing_model_exit_2(capsys):
    rc = cli.main(["pressure", "--model", "no-such-model"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no-such-model" in err


def test_non_finite_potential_exit_2(capsys):
    rc = cli.main(["pressure", "--model", "doubling", "--potential",
                   '{"kind": "constant", "value": NaN}'])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv, error", [
    (["pressure", "--model", "doubling", "--t", "nan"], "t must be finite, got nan"),
    (["pressure", "--model", "doubling", "--t", "inf"], "t must be finite, got inf"),
    (["sample", "--model", "gauss", "--recipe", "nan", "--n", "3"],
     "recipe frequencies must be finite, got [nan]"),
    (["feasible", "--model", "gauss", "--gamma", "nan"], "gamma must be finite, got [nan]"),
    (["feasible", "--model", "gauss", "--gamma", "0.5", "--eps", "nan"], "eps must be >= 0, got nan"),
    (["freq-dim", "--model", "gauss", "--freqs", "0.4", "--mode", "partial", "--eps", "nan"],
     "constraint gamma and eps must be finite, got gamma [0.4], eps [nan]"),
])
def test_non_finite_numeric_inputs_exit_3(capsys, argv, error):
    # each exited 0 with NaN or infinite values, a sample, or ended in
    # "constraint projection diverged"
    rc, out = run_cli(capsys, argv)
    assert rc == 3
    assert json.loads(out)["result"] == {"error": error}


def test_feasible_infinite_eps_exit_3_without_a_warning(capsys):
    # eps = inf printed numpy's "invalid value encountered in add" and
    # returned the uniform witness
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["feasible", "--model", "gauss", "--gamma", "1.5", "--eps", "inf",
                       "--q", "30"])
    captured = capsys.readouterr()
    assert rc == 3
    assert json.loads(captured.out)["result"] == {"error": "eps must be finite, got inf"}
    assert captured.err == "" and caught == []


def test_empty_truncation_level_exit_3(capsys):
    # --n 0 ended in an IndexError traceback
    rc, out = run_cli(capsys, ["freq-dim", "--model", "gauss", "--freqs", "0.3",
                               "--mode", "partial", "--n", "0"])
    assert rc == 3
    assert json.loads(out)["result"] == {
        "error": "truncation q and level n must be >= 1, got q=16, n=0"}


@pytest.mark.parametrize("argv", [
    ["root", "--model", "gauss", "--q", "0"],
    ["root", "--model", "gauss", "--q", "-3", "--n", "2"],
    ["root", "--model", "gauss", "--q", "10", "--n", "0"],
])
def test_root_empty_truncation_exit_3(capsys, argv):
    # each exited 0 with a level-1 sandwich result and "q": null
    rc, out = run_cli(capsys, argv)
    assert rc == 3
    assert json.loads(out)["result"] == {"error": "q and n_max must be >= 1"}


def test_feasible_negative_level_exit_3(capsys):
    # --n -1 ended in numpy's "negative dimensions" traceback
    rc, out = run_cli(capsys, ["feasible", "--model", "gauss", "--gamma", "0.3", "--n", "-1"])
    assert rc == 3
    assert json.loads(out)["result"] == {
        "error": "truncation q and level n must be >= 1, got q=64, n=-1"}


@pytest.mark.parametrize("flag", ["--alpha-min", "--alpha-max"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_alpha_bounds_exit_2(capsys, flag, value):
    # an infinite bound gave NaN and Infinity rows and a NaN bound an all-NaN
    # grid, each with exit 0
    bounds = {"--alpha-min": "0", "--alpha-max": "1", flag: value}
    argv = ["spectrum", "--model", "flat_example", "--potential", "chi1", "--points", "3"]
    rc = cli.main(argv + [f"{name}={text}" for name, text in bounds.items()])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert f"{flag} must be finite" in captured.err


def test_bad_flag_combinations_exit_2(capsys):
    assert cli.main(["sample", "--model", "gauss", "--n", "4"]) == 2
    assert cli.main(["sample", "--model", "gauss", "--recipe", "0.5",
                     "--word", "1,1", "--n", "2"]) == 2
    assert cli.main(["freq-dim", "--model", "gauss", "--freqs", "a,b"]) == 2
    assert cli.main(["spectrum", "--model", "doubling", "--potential", "chi1",
                     "--points", "0"]) == 2
    capsys.readouterr()


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_bad_budget_environment_exit_2(capsys, monkeypatch):
    for raw in ("abc", "0", "inf", "-inf", "1e400"):
        monkeypatch.setenv("THERMOSPEC_BUDGET", raw)
        for argv in (["pressure", "--model", "doubling"], ["root", "--model", "gauss"]):
            rc = cli.main(argv)
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, ""), (raw, argv)
            assert "THERMOSPEC_BUDGET" in captured.err
        # an explicit budget never reads the environment
        rc, out = run_cli(capsys, ["pressure", "--model", "doubling", "--budget", "100"])
        assert rc == 0 and json.loads(out)["config"]["budget"] == 100


def test_budget_exhaustion_exit_3(capsys):
    rc, out = run_cli(capsys, ["pressure", "--model", "gauss", "--q", "2000",
                               "--n", "4", "--budget", "1000"])
    assert rc == 3
    doc = json.loads(out)
    assert "error" in doc["result"]
    assert "partial" in doc["result"]


def test_infinity_literals_round_trip(capsys):
    # a locally constant bracket on a divergent series reports infinities
    rc, out = run_cli(capsys, ["pressure", "--model", "invsq", "--t", "0.4",
                               "--q", "16", "--n", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["diverged"] is True


def test_console_script_entry_point():
    # the child imports the source tree this process imported, however the
    # test runner put it on the path
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "thermospec.cli", "sinf", "--model", "gauss"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["value"] == 0.5


_TINY_TOL = r"""
import contextlib, io, json, time
from thermospec.cli import main
seen = []
for tol in ("1e-16", "1e-20"):
    out, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["sinf", "--model", "gauss", "--tol", tol])
    seen.append([code, time.perf_counter() - start, json.loads(out.getvalue())["result"]])
print(json.dumps(seen))
"""


def test_sinf_tolerance_below_the_float_spacing_exits_at_once():
    # a bisection to a width below the float spacing at 1/2 never ended;
    # the probe now moves one float past s_inf
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _TINY_TOL], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    for code, elapsed, result in json.loads(proc.stdout):
        assert code == 0 and elapsed < 1.0
        assert result["s_lo"] == 0.5 and result["s_hi"] == math.nextafter(0.5, 1.0)
        assert math.isfinite(result["certificate"]["series_upper_bound_at_s_hi"])
