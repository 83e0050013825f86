import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kljnsim.circuit import (
    AttenuatorConfig,
    NetworkConfig,
    NoiseSpec,
    analytic_mean_square_currents,
    connection_records,
    current_exponent,
    johnson_rms,
    transfer,
)
from kljnsim.config import PRESETS, AlarmPolicy, resolve_config
from kljnsim.montecarlo import block_totals
from kljnsim.noise import SeededStream, band_limited_stream, gaussian_stream
from kljnsim.protocol import (
    CHUNK_SAMPLES,
    PeriodBlock,
    alarm_sweep,
    iter_period_blocks,
    run_periods,
)
from kljnsim.stats import EveCalibration, wilson_ci

NOISE = NoiseSpec()
GAA = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, 500.0))
LOSSLESS = NetworkConfig(1000.0, 10000.0, None)
SERIES_ONLY = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, None))
# r_bob sits about 1e287 below the shunt, where a nodal solve that takes
# i_a = (u_a - v)/r_a cancels catastrophically
FAR_BELOW_SHUNT = NetworkConfig(1e53, 1e-287, AttenuatorConfig(0.0, 1.0))
PICKS = {"LL": (False, False), "LH": (False, True), "HL": (True, False), "HH": (True, True)}


def one_period(net, n_samples, seed=0, period=0, noise=NOISE, state="LH", node=False):
    """A one-row block with fixed picks, drawn from stream (seed, period)."""
    a, b = PICKS[state]
    rng = SeededStream(seed, period).generator()
    return run_periods(np.array([a]), np.array([b]), net, noise, n_samples, rng, node)


class TestClassifyState:
    """Picks as boolean arrays: the secure mask and the key bit."""

    @pytest.mark.parametrize(
        "state, secure", [("LL", False), ("LH", True), ("HL", True), ("HH", False)]
    )
    def test_mapping(self, state, secure):
        block = one_period(GAA, 4, state=state)
        assert (block.alice_high[0], block.bob_high[0]) == PICKS[state]
        assert bool(block.secure[0]) is secure

    def test_key_bit_convention(self):
        # the key bit is alice_high: Eve's guess names the end she reads as
        # low, and on LH that is Alice's end (bit 0), on HL Bob's (bit 1);
        # the low resistor's end reads above the threshold, the other below
        at_low_end, at_high_end = np.full((2, 2), np.sqrt(6.0)), np.full((2, 2), np.sqrt(0.5))
        alice_high = np.array([False, True])
        i_alice = np.where(alice_high[:, None], at_high_end, at_low_end)
        i_bob = np.where(alice_high[:, None], at_low_end, at_high_end)
        block = PeriodBlock(alice_high, ~alice_high, i_alice, i_bob, np.zeros_like(i_alice))
        totals = block_totals(block, EveCalibration(norm_constant=1.0, threshold=4.95), 1, AlarmPolicy(window=2))
        # both rows answer at their first reading, and both guesses are the key bit
        assert totals.measurements_hist.tolist() == [0, 2]
        assert totals.n_correct == 2


class TestRunBitPeriod:
    """One period is a one-row block of ``run_periods``."""

    def test_single_loop_currents_identical(self):
        block = one_period(LOSSLESS, 500)
        assert np.array_equal(block.i_alice, block.i_bob)

    def test_one_sample_boundary(self):
        block = one_period(GAA, 1, node=True)
        assert block.n_samples == 1
        assert block.i_alice.shape == block.i_bob.shape == block.v_node.shape == (1, 1)
        assert block.i_alice[0, 0] != block.i_bob[0, 0]

    def test_gaa_moment_ratio(self):
        block = one_period(GAA, 1_000_000, seed=3)
        ratio = float(np.mean(block.i_alice**2) / np.mean(block.i_bob**2))
        assert ratio == pytest.approx(4.95, rel=0.02)

    def test_deterministic(self):
        a = one_period(GAA, 256, seed=9, period=4, node=True)
        b = one_period(GAA, 256, seed=9, period=4, node=True)
        assert np.array_equal(a.i_alice, b.i_alice)
        assert np.array_equal(a.v_node, b.v_node)

    def test_periods_use_disjoint_streams(self):
        a = one_period(GAA, 256, seed=9, period=0)
        b = one_period(GAA, 256, seed=9, period=1)
        assert not np.array_equal(a.i_alice, b.i_alice)

    def test_state_recorded(self):
        block = one_period(GAA, 8, state="HL")
        assert block.alice_high[0] and not block.bob_high[0]
        assert block.secure[0]

    def test_waveform_mode_stride(self):
        wave = NoiseSpec(mode="waveform", oversample=4)
        block = one_period(GAA, 64, noise=wave)
        assert block.measurement_stride == 4

    def test_lossless_state_mean_squares_agree(self):
        # wire current carries no resistor-arrangement information: LH and
        # HL mean squares match within statistics
        n = 100_000
        lh = one_period(LOSSLESS, n, seed=21, period=0)
        hl = one_period(LOSSLESS, n, seed=21, period=1, state="HL")
        # the blocks' currents are in their unit of 2**-exponent amperes
        ms_lh = float(np.mean(np.ldexp(lh.i_alice, -lh.exponent) ** 2))
        ms_hl = float(np.mean(np.ldexp(hl.i_alice, -hl.exponent) ** 2))
        expected = 1.0 / 11000.0
        se = expected * np.sqrt(2.0 / n)
        assert abs(ms_lh - ms_hl) < 3.0 * np.sqrt(2.0) * se
        assert ms_lh == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize(
        "net", [GAA, LOSSLESS, FAR_BELOW_SHUNT], ids=["gaa", "lossless", "far-below-shunt"]
    )
    @pytest.mark.parametrize(
        "alice_high, bob_high",
        [
            ([False, True, True, False, True, False], [True, False, True, False, False, True]),
            ([True, True, True], [False, False, False]),
        ],
        ids=["four-states", "one-state"],
    )
    def test_block_matches_row_by_row_solve(self, net, alice_high, bob_high):
        # the block solves with per-row resistors; every row must equal the
        # record of its own connection evaluated on its own noise
        alice_high, bob_high = np.array(alice_high), np.array(bob_high)
        k = alice_high.size
        block = run_periods(alice_high, bob_high, net, NOISE, 32, SeededStream(5, 0).generator(), node=True)
        rng = SeededStream(5, 0).generator()
        u_a, u_b = rng.standard_normal((k, 32)), rng.standard_normal((k, 32))
        r_low, r_high = sorted((net.r_alice, net.r_bob))
        # the block's currents, in its unit of 2**-exponent amperes, in amperes: exact, as every value is normal
        i_alice, i_bob = (np.ldexp(i, -block.exponent) for i in (block.i_alice, block.i_bob))
        for r in range(k):
            r_a = r_high if alice_high[r] else r_low
            r_b = r_high if bob_high[r] else r_low
            aa, ab, ba, bb, na, nb = transfer(r_a, r_b, net.pad, johnson_rms(r_a, NOISE), johnson_rms(r_b, NOISE))
            assert np.array_equal(i_alice[r], u_a[r] * aa + u_b[r] * ab)
            assert np.array_equal(i_bob[r], u_a[r] * ba + u_b[r] * bb)
            assert np.array_equal(block.v_node[r], u_a[r] * na + u_b[r] * nb)


def log_uniform(low_exponent, high_exponent):
    return st.floats(low_exponent, high_exponent).map(lambda e: 10.0**e)


def normal(x):
    """Where ``x`` is a normal double: finite, and zero or subnormal nowhere."""
    return np.isfinite(x) & (np.abs(x) >= np.finfo(float).tiny)


class TestCurrentUnit:
    """The Monte Carlo pass's unit 2**-m: exact against the true currents, with headroom for every sum."""

    @given(
        r_alice=log_uniform(-300, 300),
        r_bob=log_uniform(-300, 300),
        r_shunt=st.none() | log_uniform(-300, 300),
        r_series=st.just(0.0) | log_uniform(-300, 300),
        # None for normalized noise, else t_eff and bandwidth
        scales=st.none() | st.tuples(log_uniform(-300, 300), log_uniform(-300, 300)),
        mode=st.sampled_from(["independent", "waveform"]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_engine_currents_are_the_true_currents_times_two_to_the_m(
        self, r_alice, r_bob, r_shunt, r_series, scales, mode, seed
    ):
        pad = None if r_shunt is None and r_series == 0.0 else AttenuatorConfig(r_series, r_shunt)
        net = NetworkConfig(r_alice, r_bob, pad)
        assume(r_alice != r_bob)
        try:
            noise = NoiseSpec(mode=mode) if scales is None else NoiseSpec(*scales, mode=mode)
            analytic_mean_square_currents(net, noise)  # every network rule, the current unit's included
        except ValueError:
            assume(False)  # the config rejects the network
        m = current_exponent(net, noise)
        alice_high, bob_high = np.array([False, False, True, True]), np.array([False, True, False, True])
        block = run_periods(alice_high, bob_high, net, noise, 40, SeededStream(seed).generator())
        assert block.exponent == m

        rng = SeededStream(seed).generator()
        if mode == "independent":
            u_a, u_b = gaussian_stream(rng, 4, 40), gaussian_stream(rng, 4, 40)
        else:
            u_a, u_b = band_limited_stream(rng, noise, 4, 40), band_limited_stream(rng, noise, 4, 40)
        # the true currents: each row's record from the table, at exponent 0
        records = np.array(connection_records(net, noise))[alice_high.astype(np.intp), bob_high.astype(np.intp)]
        aa, ab, ba, bb = (records[:, j, None] for j in range(4))
        true_alice, true_bob = u_a * aa + u_b * ab, u_a * ba + u_b * bb
        r_low, r_high = sorted((net.r_alice, net.r_bob))
        compared = 0
        for engine, true, terms in ((block.i_alice, true_alice, (aa, ab)), (block.i_bob, true_bob, (ba, bb))):
            # A subnormal coefficient, product or current rounds to fewer bits in
            # one unit than in the other, so a current is compared where both its
            # values are normal and each term is either normal and exactly scaled
            # in both units, or below a quarter of the other term's spacing in
            # both, where round to nearest leaves the sum at the other term.
            scaled = [np.ldexp(c, m) for c in terms]  # the engine's coefficients
            amperes = (u_a * terms[0], u_b * terms[1])
            unit = (u_a * scaled[0], u_b * scaled[1])
            exact = normal(engine) & normal(true)
            for k in (0, 1):
                alike = normal(amperes[k]) & normal(unit[k]) & (np.ldexp(scaled[k], -m) == terms[k])
                negligible = [np.abs(p[k]) <= np.spacing(np.abs(p[1 - k])) / 4 for p in (amperes, unit)]
                exact &= alike | (negligible[0] & negligible[1])
            assert np.array_equal(engine[exact], np.ldexp(true[exact], m))
            compared += np.count_nonzero(exact)
            # 2**40 samples of an 8-sigma square stay finite
            assert math.isfinite(float(np.max(engine * engine)) * 2.0**46)
        assert compared > 0

        # the same headroom for each end's variance in each connection, whose smallest is normal
        variances = []
        for ra in (r_low, r_high):
            for rb in (r_low, r_high):
                record = transfer(ra, rb, pad, math.sqrt(noise.unit_scale * ra), math.sqrt(noise.unit_scale * rb))
                i_a, i_b = [math.ldexp(c, m) for c in record[:2]], [math.ldexp(c, m) for c in record[2:4]]
                variances += [sum(c * c for c in i_a), sum(c * c for c in i_b)]
        assert max(variances) * 2.0**46 < math.inf
        assert min(variances) >= sys.float_info.min


class TestCurrentAlarm:
    """The alarm sweep, checked row by row."""

    def test_lossless_never_triggers(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        for seed in range(20):
            report = alarm_sweep(one_period(LOSSLESS, 200, seed=seed), policy)
            assert not report.triggered[0]
            assert report.first_trigger_sample[0] == -1
            assert report.rel_difference[0] == 0.0

    def test_lossless_robust_to_tiny_tolerance(self):
        block = one_period(LOSSLESS, 100, seed=5)
        report = alarm_sweep(block, AlarmPolicy(rel_tolerance=1e-12, window=10))
        assert not report.triggered[0]

    def test_gaa_triggers_promptly(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        triggered = []
        diffs = []
        for seed in range(200):
            report = alarm_sweep(one_period(GAA, 50, seed=seed), policy)
            triggered.append(report.triggered[0])
            diffs.append(report.rel_difference[0])
        assert all(triggered)
        assert np.mean(diffs) == pytest.approx(0.80, abs=0.05)

    def test_trigger_sample_within_first_window(self):
        block = one_period(GAA, 200, seed=1)
        report = alarm_sweep(block, AlarmPolicy(rel_tolerance=0.1, window=50))
        assert report.triggered[0]
        assert report.first_trigger_sample[0] == 49

    def test_series_loss_alone_stays_silent(self):
        policy = AlarmPolicy(rel_tolerance=0.1, window=50)
        for seed in range(20):
            report = alarm_sweep(one_period(SERIES_ONLY, 100, seed=seed), policy)
            assert not report.triggered[0]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AlarmPolicy(rel_tolerance=0.0)
        with pytest.raises(ValueError):
            AlarmPolicy(window=1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="rel_tolerance must be finite"):
                AlarmPolicy(rel_tolerance=bad)


def picks(n_bits, seed, n_samples=10):
    blocks = list(iter_period_blocks(n_bits, LOSSLESS, NOISE, n_samples, seed))
    return np.concatenate([b.alice_high for b in blocks]), np.concatenate([b.bob_high for b in blocks])


class TestDrawChoices:
    """Resistor picks, drawn per chunk from the chunk's stream."""

    def test_deterministic(self):
        a_1, b_1 = picks(64, 5)
        a_2, b_2 = picks(64, 5)
        assert np.array_equal(a_1, a_2) and np.array_equal(b_1, b_2)

    def test_roughly_fair(self):
        alice_high, bob_high = picks(4000, 123)
        for high in (alice_high, bob_high):
            lo, hi = wilson_ci(int(high.sum()), 4000, 3.29)
            assert lo <= 0.5 <= hi


class TestRunKeyExchange:
    """Whole exchanges: seeded blocks from iter_period_blocks, each swept by the alarm."""

    @staticmethod
    def exchange(n_bits, net, n_samples, policy, seed):
        blocks = list(iter_period_blocks(n_bits, net, NOISE, n_samples, seed))
        return blocks, [alarm_sweep(b, policy) for b in blocks]

    def test_lossless_thousand_bits(self):
        blocks, alarms = self.exchange(1000, LOSSLESS, 100, AlarmPolicy(), 17)
        assert sum(b.n_periods for b in blocks) == 1000
        assert not any(a.triggered.any() for a in alarms)
        n_secure = sum(int(b.secure.sum()) for b in blocks)
        lo, hi = wilson_ci(n_secure, 1000, 2.576)
        assert lo <= 0.5 <= hi

    def test_gaa_alarms_on_secure_periods(self):
        blocks, alarms = self.exchange(300, GAA, 100, AlarmPolicy(), 2)
        assert any(b.secure.any() for b in blocks)
        assert all(a.triggered[b.secure].all() for b, a in zip(blocks, alarms))

    def test_single_bit(self):
        blocks, alarms = self.exchange(1, LOSSLESS, 100, AlarmPolicy(), 0)
        assert len(blocks) == len(alarms) == 1
        assert blocks[0].n_periods == alarms[0].triggered.size == 1

    def test_deterministic(self):
        blocks_a, alarms_a = self.exchange(50, GAA, 64, AlarmPolicy(window=32), 99)
        blocks_b, alarms_b = self.exchange(50, GAA, 64, AlarmPolicy(window=32), 99)
        for a, b in zip(alarms_a, alarms_b):
            assert np.array_equal(a.first_trigger_sample, b.first_trigger_sample)
            assert np.array_equal(a.rel_difference, b.rel_difference)
        for ba, bb in zip(blocks_a, blocks_b):
            assert np.array_equal(ba.alice_high, bb.alice_high)
            assert np.array_equal(ba.i_alice, bb.i_alice)

    def test_key_bits_follow_states(self):
        # secure rows are exactly those with opposite picks
        for block in iter_period_blocks(80, LOSSLESS, NOISE, 60, 31):
            assert np.array_equal(block.secure, block.alice_high ^ block.bob_high)

    def test_iter_matches_record(self):
        # chunk c is run_periods on the picks drawn first from stream (seed, c);
        # 3000 samples per period give chunks of 2 periods, the last one short
        n_samples = 3000
        k = CHUNK_SAMPLES // n_samples
        blocks = list(iter_period_blocks(5, GAA, NOISE, n_samples, 7))
        assert [b.n_periods for b in blocks] == [k, k, 1]
        for c, block in enumerate(blocks):
            rng = SeededStream(7, c).generator()
            drawn = rng.integers(0, 2, size=(block.n_periods, 2)).astype(bool)
            direct = run_periods(drawn[:, 0], drawn[:, 1], GAA, NOISE, n_samples, rng)
            assert np.array_equal(block.alice_high, direct.alice_high)
            assert np.array_equal(block.bob_high, direct.bob_high)
            assert np.array_equal(block.i_bob, direct.i_bob)

    def test_long_periods_get_one_stream_each(self):
        blocks = list(iter_period_blocks(3, GAA, NOISE, CHUNK_SAMPLES + 1, 4))
        assert [b.n_periods for b in blocks] == [1, 1, 1]

    @given(
        preset=st.sampled_from(sorted(PRESETS)),
        mode=st.sampled_from(["independent", "waveform"]),
        n_bits=st.integers(1, 40),
        window=st.integers(2, 200),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_chunks_of_accepted_configs(self, preset, mode, n_bits, window, data):
        # what the engine relies on once the config is accepted: no chunk is
        # empty, each row is one whole period, and the chunks cover n_bits
        samples_per_bit = data.draw(st.integers(window, 3 * CHUNK_SAMPLES), label="samples_per_bit")
        document = {
            "network": {"preset": preset},
            "noise": {"mode": mode},
            "protocol": {"n_bits": n_bits, "samples_per_bit": samples_per_bit, "alarm": {"window": window}},
        }
        cfg = resolve_config(document, {})
        blocks = iter_period_blocks(cfg.n_bits, cfg.network, cfg.noise, cfg.samples_per_bit, cfg.master_seed)
        shapes = [b.i_alice.shape for b in blocks]
        assert all(rows >= 1 and n == samples_per_bit for rows, n in shapes)
        assert sum(rows for rows, _ in shapes) == n_bits
