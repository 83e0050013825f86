import math
import sys

import numpy as np
import pytest

from kljnsim.attack import EveCalibration, calibrate
from kljnsim.circuit import AttenuatorConfig, NetworkConfig, solve_network
from kljnsim.config import ExperimentConfig
from kljnsim.noise import NoiseSpec, SeededStream
from kljnsim.protocol import AlarmPolicy, PeriodBlock, iter_period_blocks, run_periods
from kljnsim.reporting import EmpiricalTotals, block_totals, monte_carlo_pass
from kljnsim.stats import analytic_attack_probabilities, wilson_ci

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
    return iter_period_blocks(n_bits, net, NOISE, n_samples, seed, PeriodBlock.secure_rows)


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
    """The merged :func:`block_totals` of ``blocks``, without an alarm sweep."""
    tally = EmpiricalTotals(np.zeros(max_measurements + 1, dtype=np.int64))
    for block in blocks:
        tally.merge(block_totals(block, cal, max_measurements))
    return tally


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

    def test_validation(self):
        with pytest.raises(ValueError):
            EveCalibration(norm_constant=0.0, threshold=2.0)
        with pytest.raises(ValueError):
            EveCalibration(norm_constant=1.0, threshold=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="calibration constants must be finite and > 0"):
                EveCalibration(norm_constant=bad, threshold=2.0)
            with pytest.raises(ValueError, match="calibration constants must be finite and > 0"):
                EveCalibration(norm_constant=1.0, threshold=bad)


class TestSingleSampleDecision:
    """The threshold comparison, checked on one-sample periods with chosen readings."""

    def test_alice_low(self):
        tally = tally_of([built_trace([6.0], [0.5])], UNIT_CAL)
        assert (tally.n_success, tally.n_error, tally.n_no_answer) == (1, 0, 0)
        assert tally.n_answered == tally.n_correct == 1

    def test_bob_low(self):
        # on an LH period a bob-is-low verdict is a wrong guess
        tally = tally_of([built_trace([0.5], [6.0])], UNIT_CAL)
        assert (tally.n_success, tally.n_error, tally.n_no_answer) == (0, 1, 0)
        assert tally.n_answered == 1
        assert tally.n_correct == 0

    def test_both_below(self):
        tally = tally_of([built_trace([0.5], [0.6])], UNIT_CAL)
        assert (tally.n_success, tally.n_error, tally.n_no_answer) == (0, 0, 1)
        assert tally.n_gave_up == 1

    def test_both_above(self):
        tally = tally_of([built_trace([5.0], [6.0])], UNIT_CAL)
        assert (tally.n_success, tally.n_error, tally.n_no_answer) == (0, 0, 1)
        assert tally.n_gave_up == 1

    def test_equal_values_never_answer(self):
        for x in (0.5, 4.95, 6.0):
            tally = tally_of([built_trace([x], [x])], UNIT_CAL)
            assert tally.n_no_answer == 1
            assert tally.n_answered == 0

    def test_guess_convention_consistent_with_key_bits(self):
        # the larger reading marks the low resistor: Alice's end on LH, Bob's on HL
        tally = tally_of(
            [built_trace([6.0], [0.5], "LH"), built_trace([0.5], [6.0], "HL")],
            UNIT_CAL,
        )
        assert tally.n_correct == tally.n_answered == 2
        assert (tally.lh_successes, tally.hl_successes) == (1, 1)


class TestAttackBit:
    """The repeat-until-answer rule, one secure period at a time."""

    def test_lossless_always_gives_up(self):
        cal = calibrate(LOSSLESS, NOISE)
        tally = tally_of((secure_trace(LOSSLESS, 64, seed=seed) for seed in range(50)), cal)
        assert tally.n_gave_up == tally.n_attacked == 50
        assert tally.n_answered == 0
        assert not tally.measurements_hist.any()
        assert tally.n_trials == 50 * 64

    def test_budget_respected(self):
        traces = (secure_trace(GAA, 256, seed=seed) for seed in range(40))
        tally = tally_of(traces, GAA_CAL, max_measurements=5)
        assert tally.n_answered > 0
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
            tally = tally_of(traces, GAA_CAL, max_measurements=256)
            assert tally.n_gave_up == 0
            assert tally.n_correct >= 27  # fidelity ~0.95 per answered bit

    def test_single_measurement_answer_rate(self):
        tally = tally_of(secure_blocks(20_000, GAA, 1, 11), GAA_CAL, max_measurements=1)
        expected = SIM_P_SUCCESS + SIM_P_ERROR
        assert tally.n_answered / tally.n_attacked == pytest.approx(expected, abs=0.012)


@pytest.fixture(scope="module")
def campaign():
    return campaign_tally(4000, GAA, samples_per_bit=100, master_seed=13)


class TestAttackCampaign:
    def test_counts_are_exhaustive(self, campaign):
        assert campaign.n_success + campaign.n_error + campaign.n_no_answer == campaign.n_trials
        assert campaign.n_answered + campaign.n_gave_up == campaign.n_attacked
        assert campaign.n_trials == campaign.lh_trials + campaign.hl_trials

    def test_rates_match_bivariate_oracle(self, campaign):
        lo, hi = campaign.success_ci
        assert lo <= SIM_P_SUCCESS <= hi
        lo, hi = campaign.error_ci
        assert lo <= SIM_P_ERROR <= hi
        lo, hi = campaign.no_answer_ci
        assert lo <= SIM_P_NO_ANSWER <= hi

    def test_rates_near_independent_reading_model(self, campaign):
        # the closed-form model (independent readings) is a few parts per
        # thousand away from the correlated simultaneous readings; it stays
        # a good first-order description of the leak
        probs = analytic_attack_probabilities(GAA_CAL.threshold)
        assert campaign.p_success == pytest.approx(probs.p_success, abs=0.01)
        assert campaign.p_error == pytest.approx(probs.p_error, abs=0.005)
        assert campaign.p_no_answer == pytest.approx(probs.p_no_answer, abs=0.01)

    def test_fidelity_matches_oracle(self, campaign):
        lo, hi = campaign.fidelity_ci
        assert lo <= SIM_FIDELITY <= hi
        assert campaign.conditional_fidelity == pytest.approx(SIM_FIDELITY, abs=0.02)

    def test_mean_measurements_near_three(self, campaign):
        assert campaign.mean_measurements == pytest.approx(SIM_MEAN_MEASUREMENTS, abs=0.15)
        assert sum(k * v for k, v in enumerate(campaign.measurements_hist)) == pytest.approx(
            campaign.mean_measurements * campaign.n_answered
        )

    def test_end_currents_correlated_through_shunt(self):
        # transfer-coefficient oracle for the cross-end correlation, checked
        # against one long simulated period
        g_aa = solve_network(1.0, 0.0, GAA.r_alice, GAA.r_bob, GAA.pad)[0]
        g_ab = solve_network(0.0, 1.0, GAA.r_alice, GAA.r_bob, GAA.pad)[0]
        g_ba = solve_network(1.0, 0.0, GAA.r_alice, GAA.r_bob, GAA.pad)[1]
        g_bb = solve_network(0.0, 1.0, GAA.r_alice, GAA.r_bob, GAA.pad)[1]
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
        lo_lh, hi_lh = wilson_ci(campaign.lh_successes, campaign.lh_trials, 2.576)
        lo_hl, hi_hl = wilson_ci(campaign.hl_successes, campaign.hl_trials, 2.576)
        assert max(lo_lh, lo_hl) <= min(hi_lh, hi_hl)  # intervals overlap

    def test_lossless_campaign_never_answers(self):
        stats = campaign_tally(400, LOSSLESS, samples_per_bit=50, master_seed=7)
        assert stats.p_no_answer == 1.0
        assert stats.n_answered == 0
        assert stats.n_gave_up == stats.n_attacked > 0
        assert math.isnan(stats.conditional_fidelity)

    def test_infinite_threshold_never_answers(self):
        # the largest threshold a calibration accepts: no reading exceeds it
        cal = EveCalibration(norm_constant=GAA_CAL.norm_constant, threshold=sys.float_info.max)
        tally = tally_of(secure_blocks(200, GAA, 20, 3), cal, max_measurements=16)
        assert tally.p_no_answer == 1.0
        assert tally.n_answered == 0

    def test_empty_tally_has_no_rates(self):
        tally = EmpiricalTotals(np.zeros(65, dtype=np.int64))
        assert math.isnan(tally.p_success) and math.isnan(tally.mean_measurements)
        assert tally.success_ci is None and tally.fidelity_ci is None

    def test_deterministic(self):
        a = campaign_tally(200, GAA, samples_per_bit=30, master_seed=5)
        b = campaign_tally(200, GAA, samples_per_bit=30, master_seed=5)
        assert a == b
