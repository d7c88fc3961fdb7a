"""The benchmark's output checks, exercised by their own self-test."""

import re
import subprocess
import sys
from pathlib import Path


def test_benchmark_check_selftest_passes():
    # bench/selftest.py feeds each check of bench/checks.py outputs it must
    # accept and outputs it must reject; it imports no thermospec and writes
    # nothing
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    match = re.fullmatch(r"(\d+)/(\d+) self-test cases behave as expected", last)
    assert match and match[1] == match[2], last
