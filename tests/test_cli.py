"""Command-line interface: envelopes, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thermospec import cli


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
    assert doc["result"]["agree"] is True


def test_root_doubling(capsys):
    rc, out = run_cli(capsys, ["root", "--model", "doubling"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["result"]["method"] == "moran"


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
    base = ["pressure", "--model", "gauss", "--t", "1.0", "--q", "20", "--n", "3"]
    _, out1 = run_cli(capsys, base + ["--workers", "1"])
    _, out4 = run_cli(capsys, base + ["--workers", "4"])
    assert json.loads(out1)["result"] == json.loads(out4)["result"]


def test_missing_model_exit_2(capsys):
    rc = cli.main(["pressure", "--model", "no-such-model"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no-such-model" in err


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
