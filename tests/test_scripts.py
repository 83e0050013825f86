"""The two scripts under ``scripts/`` run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_headline_numbers():
    out = run_script("reproduce_headline_numbers.py", "--bits", "200")
    assert "network: gaa-1db  (r_alice=1000, r_bob=10000, r_series=2.9, r_shunt=500.0)" in out.splitlines()
    assert "monte carlo  (bits=200, samples/bit=100, seed=1)" in out.splitlines()


def test_sweep_shunt_resistance():
    lines = run_script("sweep_shunt_resistance.py", "--points", "3").splitlines()
    assert lines[0] == "r_shunt,ratio,p_success,p_error,p_no_answer,expected_measurements"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("100,")
