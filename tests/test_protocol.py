import numpy as np
import pytest

from kljnsim.circuit import AttenuatorConfig, NetworkConfig
from kljnsim.noise import NoiseSpec
from kljnsim.protocol import (
    KEY_BIT_BY_STATE,
    AlarmPolicy,
    Choice,
    LoopState,
    ResistorPair,
    classify_state,
    current_alarm,
    draw_choices,
    iter_bit_periods,
    run_bit_period,
)
from kljnsim.stats import wilson_ci

NOISE = NoiseSpec()
PAIR = ResistorPair(1000.0, 10000.0)
GAA = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, 500.0))
LOSSLESS = NetworkConfig(1000.0, 10000.0, None)
SERIES_ONLY = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, None))


def lh_period(net, n_samples, seed=0, period=0, noise=NOISE):
    return run_bit_period(Choice.LOW, Choice.HIGH, PAIR, net, noise, n_samples, seed, period)


class TestClassifyState:
    @pytest.mark.parametrize(
        "alice, bob, expected, secure",
        [
            (Choice.LOW, Choice.HIGH, LoopState.LH, True),
            (Choice.HIGH, Choice.LOW, LoopState.HL, True),
            (Choice.HIGH, Choice.HIGH, LoopState.HH, False),
            (Choice.LOW, Choice.LOW, LoopState.LL, False),
        ],
    )
    def test_mapping(self, alice, bob, expected, secure):
        state = classify_state(alice, bob)
        assert state is expected
        assert state.secure is secure

    def test_key_bit_convention(self):
        assert KEY_BIT_BY_STATE[LoopState.LH] == 0
        assert KEY_BIT_BY_STATE[LoopState.HL] == 1


class TestResistorPair:
    def test_lookup(self):
        assert PAIR.resistance(Choice.LOW) == 1000.0
        assert PAIR.resistance(Choice.HIGH) == 10000.0

    @pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (10.0, 10.0), (100.0, 10.0)])
    def test_validation(self, lo, hi):
        with pytest.raises(ValueError):
            ResistorPair(lo, hi)


class TestRunBitPeriod:
    def test_single_loop_currents_identical(self):
        trace = lh_period(LOSSLESS, 500)
        assert np.array_equal(trace.i_alice, trace.i_bob)

    def test_one_sample_boundary(self):
        trace = lh_period(GAA, 1)
        assert trace.n_samples == 1
        assert trace.i_alice.shape == trace.i_bob.shape == trace.v_node.shape == (1,)
        assert trace.i_alice[0] != trace.i_bob[0]

    def test_gaa_moment_ratio(self):
        trace = lh_period(GAA, 1_000_000, seed=3)
        ratio = float(np.mean(trace.i_alice**2) / np.mean(trace.i_bob**2))
        assert ratio == pytest.approx(4.95, rel=0.02)

    def test_deterministic(self):
        a = lh_period(GAA, 256, seed=9, period=4)
        b = lh_period(GAA, 256, seed=9, period=4)
        assert np.array_equal(a.i_alice, b.i_alice)
        assert np.array_equal(a.v_node, b.v_node)

    def test_periods_use_disjoint_streams(self):
        a = lh_period(GAA, 256, seed=9, period=0)
        b = lh_period(GAA, 256, seed=9, period=1)
        assert not np.array_equal(a.i_alice, b.i_alice)

    def test_state_recorded(self):
        trace = run_bit_period(Choice.HIGH, Choice.LOW, PAIR, GAA, NOISE, 8, 0)
        assert trace.state is LoopState.HL
        assert trace.alice_choice is Choice.HIGH

    def test_rejects_empty_period(self):
        with pytest.raises(ValueError):
            lh_period(GAA, 0)

    def test_waveform_mode_stride(self):
        wave = NoiseSpec(mode="waveform", oversample=4)
        trace = lh_period(GAA, 64, noise=wave)
        assert trace.measurement_stride == 4

    def test_lossless_state_mean_squares_agree(self):
        # wire current carries no resistor-arrangement information: LH and
        # HL mean squares match within statistics
        n = 100_000
        lh = lh_period(LOSSLESS, n, seed=21, period=0)
        hl = run_bit_period(Choice.HIGH, Choice.LOW, PAIR, LOSSLESS, NOISE, n, 21, 1)
        ms_lh = float(np.mean(lh.i_alice**2))
        ms_hl = float(np.mean(hl.i_alice**2))
        expected = 1.0 / 11000.0
        se = expected * np.sqrt(2.0 / n)
        assert abs(ms_lh - ms_hl) < 3.0 * np.sqrt(2.0) * se
        assert ms_lh == pytest.approx(expected, rel=0.02)


class TestCurrentAlarm:
    def test_lossless_never_triggers(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        for seed in range(20):
            trace = lh_period(LOSSLESS, 200, seed=seed)
            report = current_alarm(trace, policy)
            assert not report.triggered
            assert report.first_trigger_sample is None
            assert report.rel_difference == 0.0

    def test_lossless_robust_to_tiny_tolerance(self):
        trace = lh_period(LOSSLESS, 100, seed=5)
        report = current_alarm(trace, AlarmPolicy(rel_tolerance=1e-12, window=10))
        assert not report.triggered

    def test_gaa_triggers_promptly(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        triggered = []
        diffs = []
        for seed in range(200):
            trace = lh_period(GAA, 50, seed=seed)
            report = current_alarm(trace, policy)
            triggered.append(report.triggered)
            diffs.append(report.rel_difference)
        assert all(triggered)
        assert np.mean(diffs) == pytest.approx(0.80, abs=0.05)

    def test_trigger_sample_within_first_window(self):
        trace = lh_period(GAA, 200, seed=1)
        report = current_alarm(trace, AlarmPolicy(rel_tolerance=0.1, window=50))
        assert report.triggered
        assert report.first_trigger_sample == 49

    def test_series_loss_alone_stays_silent(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        for seed in range(20):
            report = current_alarm(lh_period(SERIES_ONLY, 100, seed=seed), policy)
            assert not report.triggered

    def test_short_trace_rejected(self):
        trace = lh_period(GAA, 10)
        with pytest.raises(ValueError):
            current_alarm(trace, AlarmPolicy(rel_tolerance=0.1, window=50))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AlarmPolicy(rel_tolerance=0.0)
        with pytest.raises(ValueError):
            AlarmPolicy(window=1)


class TestDrawChoices:
    def test_deterministic(self):
        assert draw_choices(64, 5) == draw_choices(64, 5)

    def test_roughly_fair(self):
        choices = draw_choices(4000, 123)
        highs = sum(1 for a, _ in choices if a is Choice.HIGH)
        lo, hi = wilson_ci(highs, 4000, 3.29)
        assert lo <= 0.5 <= hi


class TestRunKeyExchange:
    """Whole exchanges: seeded periods from iter_bit_periods, each swept by the alarm."""

    @staticmethod
    def exchange(n_bits, net, n_samples, policy, seed):
        traces = list(iter_bit_periods(n_bits, PAIR, net, NOISE, n_samples, seed))
        return traces, [current_alarm(t, policy) for t in traces]

    def test_lossless_thousand_bits(self):
        traces, alarms = self.exchange(1000, LOSSLESS, 100, AlarmPolicy(), 17)
        assert len(traces) == 1000
        assert not any(a.triggered for a in alarms)
        n_secure = sum(t.state.secure for t in traces)
        lo, hi = wilson_ci(n_secure, 1000, 2.576)
        assert lo <= 0.5 <= hi

    def test_gaa_alarms_on_secure_periods(self):
        traces, alarms = self.exchange(300, GAA, 100, AlarmPolicy(), 2)
        secure = [a for t, a in zip(traces, alarms) if t.state.secure]
        assert secure
        assert all(a.triggered for a in secure)

    def test_single_bit(self):
        traces, alarms = self.exchange(1, LOSSLESS, 100, AlarmPolicy(), 0)
        assert len(traces) == len(alarms) == 1

    def test_deterministic(self):
        traces_a, alarms_a = self.exchange(50, GAA, 64, AlarmPolicy(window=32), 99)
        traces_b, alarms_b = self.exchange(50, GAA, 64, AlarmPolicy(window=32), 99)
        assert alarms_a == alarms_b
        for ta, tb in zip(traces_a, traces_b):
            assert ta.state is tb.state
            assert np.array_equal(ta.i_alice, tb.i_alice)

    def test_key_bits_follow_states(self):
        for trace in iter_bit_periods(80, PAIR, LOSSLESS, NOISE, 60, 31):
            assert trace.state is classify_state(trace.alice_choice, trace.bob_choice)
            assert (trace.state in KEY_BIT_BY_STATE) is trace.state.secure

    def test_iter_matches_record(self):
        # period p is run_bit_period on the p-th drawn choice pair
        traces = list(iter_bit_periods(20, PAIR, GAA, NOISE, 16, 7))
        for p, (a, b) in enumerate(draw_choices(20, 7)):
            direct = run_bit_period(a, b, PAIR, GAA, NOISE, 16, 7, period_index=p)
            assert traces[p].state is direct.state
            assert traces[p].period_index == p
            assert np.array_equal(traces[p].i_bob, direct.i_bob)
