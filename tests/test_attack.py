import math
import sys

import numpy as np
import pytest

from kljnsim.circuit import AttenuatorConfig, NetworkConfig, NoiseSpec, transfer
from kljnsim.config import AlarmPolicy, ExperimentConfig
from kljnsim.montecarlo import EmpiricalTotals, block_totals, monte_carlo_pass
from kljnsim.noise import SeededStream
from kljnsim.protocol import PeriodBlock, iter_period_blocks, run_periods
from kljnsim.reporting import attack_section
from kljnsim.stats import EveCalibration, analytic_attack_probabilities, calibrate, wilson_ci

NOISE = NoiseSpec()
GAA = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, 500.0))
LOSSLESS = NetworkConfig(1000.0, 10000.0, None)
GAA_CAL = calibrate(GAA, NOISE)
UNIT_CAL = EveCalibration(norm_constant=1.0, threshold=4.95)

# The two simultaneously read end currents share both sources through the
# shunt, so they are correlated (rho = 0.2515 for the gaa-1db values) and the
# trial outcome rates differ from the independent-readings products of the
# closed-form model.  These targets are frozen from a bivariate-normal
# orthant-probability oracle, cross-checked by a 2e7-sample direct Monte
# Carlo outside this package.
SIM_P_SUCCESS = 0.305916
SIM_P_ERROR = 0.015511
SIM_P_NO_ANSWER = 0.678573
SIM_FIDELITY = 0.951744
SIM_MEAN_MEASUREMENTS = 3.1111
SIM_END_CORRELATION = 0.251511


def one_period(net, n_samples, seed=0, period=0, alice_high=False, bob_high=True):
    """A one-row block with fixed picks, drawn from stream (seed, period)."""
    rng = SeededStream(seed, period).generator()
    return run_periods(np.array([alice_high]), np.array([bob_high]), net, NOISE, n_samples, rng)


def secure_trace(net, n_samples, seed=0, period=0, state="LH"):
    return one_period(net, n_samples, seed, period, alice_high=state == "HL", bob_high=state == "LH")


def built_trace(x_alice, x_bob, state="LH"):
    """A one-row secure block whose squared currents are exactly the given readings."""
    alice_high = state == "HL"
    i_alice = np.sqrt(np.asarray([x_alice], dtype=float))
    i_bob = np.sqrt(np.asarray([x_bob], dtype=float))
    return PeriodBlock(np.array([alice_high]), np.array([not alice_high]), i_alice, i_bob, np.zeros_like(i_alice))


def secure_blocks(n_bits, net, n_samples, seed):
    """The seeded blocks of ``n_bits`` periods, whose secure rows :func:`block_totals` attacks."""
    return iter_period_blocks(n_bits, net, NOISE, n_samples, seed)


def campaign_tally(n_bits, net, samples_per_bit, master_seed):
    """The totals of the report's Monte Carlo pass over ``n_bits`` seeded periods."""
    cfg = ExperimentConfig(
        network=net,
        n_bits=n_bits,
        samples_per_bit=samples_per_bit,
        alarm=AlarmPolicy(window=min(50, samples_per_bit)),
        master_seed=master_seed,
    )
    return monte_carlo_pass(cfg)


def tally_of(blocks, cal, max_measurements=64):
    """The merged :func:`block_totals` of ``blocks``, each alarm window a whole period.

    A one-sample period holds no window of the 2 samples the alarm needs at least.
    """
    tally = EmpiricalTotals(np.zeros(max_measurements + 1, dtype=np.int64))
    for block in blocks:
        tally.merge(block_totals(block, cal, max_measurements, AlarmPolicy(window=max(2, block.n_samples))))
    return tally


def verdicts(att):
    """(successes, errors, no-answers) of a report's ``empirical.attack``."""
    return att["n_success"], att["n_error"], att["n_no_answer"]


class TestCalibrate:
    def test_gaa_constants(self):
        assert GAA_CAL.threshold == pytest.approx(4.956043956044, rel=1e-10)
        assert GAA_CAL.norm_constant == pytest.approx(1.0 / 9.4693028095734e-5, rel=1e-10)

    def test_lossless_threshold_is_one(self):
        cal = calibrate(LOSSLESS, NOISE)
        assert cal.threshold == 1.0

    def test_orientation_independent(self):
        swapped = calibrate(NetworkConfig(10000.0, 1000.0, AttenuatorConfig(2.9, 500.0)), NOISE)
        assert swapped == GAA_CAL


class TestSingleSampleDecision:
    """The threshold comparison, checked on one-sample periods with chosen readings."""

    def test_alice_low(self):
        att = attack_section(tally_of([built_trace([6.0], [0.5])], UNIT_CAL))
        assert verdicts(att) == (1, 0, 0)
        assert att["repeat_until_answer"]["n_answered"] == att["repeat_until_answer"]["n_correct"] == 1

    def test_bob_low(self):
        # on an LH period a bob-is-low verdict is a wrong guess
        att = attack_section(tally_of([built_trace([0.5], [6.0])], UNIT_CAL))
        assert verdicts(att) == (0, 1, 0)
        assert att["repeat_until_answer"]["n_answered"] == 1
        assert att["repeat_until_answer"]["n_correct"] == 0

    def test_both_below(self):
        att = attack_section(tally_of([built_trace([0.5], [0.6])], UNIT_CAL))
        assert verdicts(att) == (0, 0, 1)
        assert att["repeat_until_answer"]["n_gave_up"] == 1

    def test_both_above(self):
        att = attack_section(tally_of([built_trace([5.0], [6.0])], UNIT_CAL))
        assert verdicts(att) == (0, 0, 1)
        assert att["repeat_until_answer"]["n_gave_up"] == 1

    def test_equal_values_never_answer(self):
        for x in (0.5, 4.95, 6.0):
            att = attack_section(tally_of([built_trace([x], [x])], UNIT_CAL))
            assert att["n_no_answer"] == 1
            assert att["repeat_until_answer"]["n_answered"] == 0

    def test_guess_convention_consistent_with_key_bits(self):
        # the larger reading marks the low resistor: Alice's end on LH, Bob's on HL
        att = attack_section(
            tally_of([built_trace([6.0], [0.5], "LH"), built_trace([0.5], [6.0], "HL")], UNIT_CAL)
        )
        assert att["repeat_until_answer"]["n_correct"] == att["repeat_until_answer"]["n_answered"] == 2
        orientation = att["by_orientation"]
        assert (orientation["lh"]["successes"], orientation["hl"]["successes"]) == (1, 1)


class TestAttackBit:
    """The repeat-until-answer rule, one secure period at a time."""

    def test_lossless_always_gives_up(self):
        cal = calibrate(LOSSLESS, NOISE)
        tally = tally_of((secure_trace(LOSSLESS, 64, seed=seed) for seed in range(50)), cal)
        repeat = attack_section(tally)["repeat_until_answer"]
        assert repeat["n_gave_up"] == repeat["n_attacked"] == 50
        assert repeat["n_answered"] == 0
        assert not tally.measurements_hist.any()
        assert tally.n_trials == 50 * 64

    def test_budget_respected(self):
        traces = (secure_trace(GAA, 256, seed=seed) for seed in range(40))
        tally = tally_of(traces, GAA_CAL, max_measurements=5)
        assert attack_section(tally)["repeat_until_answer"]["n_answered"] > 0
        # one entry per reading within the budget, and entry 0
        assert tally.measurements_hist.size == 6

    def test_budget_capped_by_trace_length(self):
        # only the last of ten readings answers: a budget of 64 reaches it
        x_alice = [0.5] * 9 + [6.0]
        tally = tally_of([built_trace(x_alice, [0.5] * 10)], UNIT_CAL)
        assert tally.measurements_hist.tolist() == [0] * 10 + [1] + [0] * 54
        assert tally.n_trials == 10

    def test_guess_convention_both_orientations(self):
        # with an overwhelming number of measurements the answered guess is
        # nearly always right, for either secure state
        for state in ("LH", "HL"):
            traces = (secure_trace(GAA, 256, seed=seed, state=state) for seed in range(30))
            repeat = attack_section(tally_of(traces, GAA_CAL, max_measurements=256))["repeat_until_answer"]
            assert repeat["n_gave_up"] == 0
            assert repeat["n_correct"] >= 27  # fidelity ~0.95 per answered bit

    def test_single_measurement_answer_rate(self):
        repeat = attack_section(tally_of(secure_blocks(20_000, GAA, 1, 11), GAA_CAL, max_measurements=1))[
            "repeat_until_answer"
        ]
        expected = SIM_P_SUCCESS + SIM_P_ERROR
        assert repeat["n_answered"] / repeat["n_attacked"] == pytest.approx(expected, abs=0.012)


@pytest.fixture(scope="module")
def campaign():
    """The ``empirical.attack`` section of a 4000-period gaa-1db pass."""
    return attack_section(campaign_tally(4000, GAA, samples_per_bit=100, master_seed=13))


class TestAttackCampaign:
    def test_counts_are_exhaustive(self, campaign):
        repeat, orientation = campaign["repeat_until_answer"], campaign["by_orientation"]
        assert sum(verdicts(campaign)) == campaign["n_trials"]
        assert repeat["n_answered"] + repeat["n_gave_up"] == repeat["n_attacked"]
        assert campaign["n_trials"] == orientation["lh"]["trials"] + orientation["hl"]["trials"]

    def test_rates_match_bivariate_oracle(self, campaign):
        lo, hi = campaign["p_success_ci99"]
        assert lo <= SIM_P_SUCCESS <= hi
        lo, hi = campaign["p_error_ci99"]
        assert lo <= SIM_P_ERROR <= hi
        lo, hi = campaign["p_no_answer_ci99"]
        assert lo <= SIM_P_NO_ANSWER <= hi

    def test_rates_near_independent_reading_model(self, campaign):
        # the closed-form model (independent readings) is a few parts per
        # thousand away from the correlated simultaneous readings; it stays
        # a good first-order description of the leak
        probs = analytic_attack_probabilities(GAA_CAL.threshold)
        assert campaign["p_success"] == pytest.approx(probs.p_success, abs=0.01)
        assert campaign["p_error"] == pytest.approx(probs.p_error, abs=0.005)
        assert campaign["p_no_answer"] == pytest.approx(probs.p_no_answer, abs=0.01)

    def test_fidelity_matches_oracle(self, campaign):
        repeat = campaign["repeat_until_answer"]
        lo, hi = repeat["fidelity_ci99"]
        assert lo <= SIM_FIDELITY <= hi
        assert repeat["conditional_fidelity"] == pytest.approx(SIM_FIDELITY, abs=0.02)

    def test_mean_measurements_near_three(self, campaign):
        repeat = campaign["repeat_until_answer"]
        assert repeat["mean_measurements"] == pytest.approx(SIM_MEAN_MEASUREMENTS, abs=0.15)
        assert sum(int(k) * v for k, v in repeat["measurements_hist"].items()) == pytest.approx(
            repeat["mean_measurements"] * repeat["n_answered"]
        )

    def test_end_currents_correlated_through_shunt(self):
        # transfer-coefficient oracle for the cross-end correlation, checked
        # against one long simulated period
        # the unit responses: the transfer record at unit source RMS
        g_aa, g_ab, g_ba, g_bb, _, _ = transfer(GAA.r_alice, GAA.r_bob, GAA.pad)
        var_a, var_b = GAA.r_alice, GAA.r_bob
        cov = var_a * g_aa * g_ba + var_b * g_ab * g_bb
        ms_a = var_a * g_aa**2 + var_b * g_ab**2
        ms_b = var_a * g_ba**2 + var_b * g_bb**2
        rho = cov / math.sqrt(ms_a * ms_b)
        assert rho == pytest.approx(SIM_END_CORRELATION, abs=1e-6)

        block = secure_trace(GAA, 400_000, seed=23)
        empirical = float(np.corrcoef(block.i_alice[0], block.i_bob[0])[0, 1])
        assert empirical == pytest.approx(rho, abs=0.01)

    def test_orientation_fairness(self, campaign):
        lh, hl = campaign["by_orientation"]["lh"], campaign["by_orientation"]["hl"]
        lo_lh, hi_lh = wilson_ci(lh["successes"], lh["trials"], 2.576)
        lo_hl, hi_hl = wilson_ci(hl["successes"], hl["trials"], 2.576)
        assert max(lo_lh, lo_hl) <= min(hi_lh, hi_hl)  # intervals overlap

    def test_lossless_campaign_never_answers(self):
        stats = attack_section(campaign_tally(400, LOSSLESS, samples_per_bit=50, master_seed=7))
        repeat = stats["repeat_until_answer"]
        assert stats["p_no_answer"] == 1.0
        assert repeat["n_answered"] == 0
        assert repeat["n_gave_up"] == repeat["n_attacked"] > 0
        assert math.isnan(repeat["conditional_fidelity"])

    def test_infinite_threshold_never_answers(self):
        # the largest threshold a calibration accepts: no reading exceeds it
        cal = EveCalibration(norm_constant=GAA_CAL.norm_constant, threshold=sys.float_info.max)
        att = attack_section(tally_of(secure_blocks(200, GAA, 20, 3), cal, max_measurements=16))
        assert att["p_no_answer"] == 1.0
        assert att["repeat_until_answer"]["n_answered"] == 0

    def test_empty_tally_has_no_rates(self):
        att = attack_section(EmpiricalTotals(np.zeros(65, dtype=np.int64)))
        repeat = att["repeat_until_answer"]
        assert math.isnan(att["p_success"]) and math.isnan(repeat["mean_measurements"])
        assert att["p_success_ci99"] is None and repeat["fidelity_ci99"] is None

    def test_deterministic(self):
        a = campaign_tally(200, GAA, samples_per_bit=30, master_seed=5)
        b = campaign_tally(200, GAA, samples_per_bit=30, master_seed=5)
        assert a == b
