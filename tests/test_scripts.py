"""The two scripts under ``scripts/`` run end to end on small inputs."""

import math
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
    lines = out.splitlines()
    assert "monte carlo  (bits=200, samples/bit=100, seed=1)" in lines
    # the exact model's numbers, read from the report, beside the independent product's
    assert "exact simultaneous-reading model  (rho = 0.2515)" in lines
    assert "  p_success = 0.3059  p_error = 0.0155  p_no_answer = 0.6786" in lines
    header = lines.index("deviation from each model in standard errors   exact  independent")
    rows = [line.split() for line in lines[header + 1 : header + 6]]
    assert [row[0] for row in rows] == [
        "p_success", "p_error", "p_no_answer", "conditional_fidelity", "mean_measurements"
    ]
    # two numbers per rate: no model has a zero SE on gaa-1db
    assert all(len(row) == 3 and not any(math.isnan(float(x)) for x in row[1:]) for row in rows)
    # the comparison from the report: its exact error at 1 reading and at a period's 100, the
    # Monte Carlo error of the same run, and their deviation
    comparison = lines.index("current comparison  (the end with the larger sum of i^2 holds the low resistor)")
    assert lines[comparison + 1] == "  exact        error at 1 reading = 0.264   at 100 readings (one period) = 3.474e-15"
    assert lines[comparison + 2] == "  monte carlo  error = 0   (0 errors in 101 periods that answered, 0 ties)"
    assert lines[comparison + 3] == "  deviation from the exact error in standard errors = -0.00"


def test_reproduce_headline_numbers_where_the_comparison_never_answers():
    lines = run_script("reproduce_headline_numbers.py", "--preset", "lossless", "--bits", "200").stdout.splitlines()
    comparison = lines.index("current comparison  (the end with the larger sum of i^2 holds the low resistor)")
    assert lines[comparison + 1 :] == [
        "  exact        error at 1 reading = never answers   at 100 readings (one period) = never answers",
        "  monte carlo  error = never answers   (0 errors in 0 periods that answered, 101 ties)",
        "  deviation from the exact error in standard errors = null",
    ]


def test_sweep_shunt_resistance():
    lines = run_script("sweep_shunt_resistance.py", "--points", "3").stdout.splitlines()
    assert lines[0] == (
        "r_shunt,ratio,p_success,p_error,p_no_answer,expected_measurements,rho,p_success_exact,p_error_exact"
    )
    assert len(lines) == 1 + 3
    assert lines[1].startswith("100,")
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    # as the shunt stiffens toward an intact loop, the exact model's success rate falls toward 0
    # while the independent product's stays at a coin flip's 0.216625
    exact = [row["p_success_exact"] for row in rows]
    assert exact == sorted(exact, reverse=True) and len(set(exact)) == 3
    assert exact[-1] < 1e-4
    assert rows[-1]["p_success"] == 0.216625


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


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("reproduce_headline_numbers.py", ["--bits", "abc"], "argument --bits: invalid int value: 'abc'"),
        ("sweep_shunt_resistance.py", ["--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ],
)
def test_bad_invocations_exit_1_after_the_usage(name, args, message):
    # as `kljnsim simulate --bits abc` does; argparse alone would exit 2
    proc = run_script(name, *args, exit_code=1)
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[0].startswith(f"usage: {name}")
    assert lines[-1] == f"{name}: config error: {message}"
