"""The two scripts under ``scripts/`` run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str, exit_code: int = 0) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == exit_code, proc.stderr
    return proc


def test_reproduce_headline_numbers():
    out = run_script("reproduce_headline_numbers.py", "--bits", "200").stdout
    assert "network: gaa-1db  (r_alice=1000, r_bob=10000, r_series=2.9, r_shunt=500.0)" in out.splitlines()
    assert "monte carlo  (bits=200, samples/bit=100, seed=1)" in out.splitlines()


def test_sweep_shunt_resistance():
    lines = run_script("sweep_shunt_resistance.py", "--points", "3").stdout.splitlines()
    assert lines[0] == "r_shunt,ratio,p_success,p_error,p_no_answer,expected_measurements"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("100,")


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("reproduce_headline_numbers.py", ["--bits", "0"], "protocol.n_bits must be >= 1"),
        ("sweep_shunt_resistance.py", ["--shunt-min", "-1", "--points", "2"], "r_shunt must be finite and > 0"),
    ],
)
def test_config_errors_exit_1_with_one_line(name, args, message):
    proc = run_script(name, *args, exit_code=1)
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"{name}: config error: {message}")
