"""The block alarm and attack reductions against plain per-row references.

The references are the per-period rules written out one row (and, for the
attack, one reading) at a time.  They use the same floating-point operations
in the same order, so results must match exactly, apart from the sums of
squared currents and of the alarm's relative differences, which add the same
terms in another order.
"""

import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljnsim import protocol
from kljnsim.circuit import NoiseSpec, current_exponent
from kljnsim.config import PRESETS, AlarmPolicy
from kljnsim.montecarlo import EmpiricalTotals, _trace_rows, block_totals
from kljnsim.noise import SeededStream
from kljnsim.protocol import PeriodBlock, alarm_sweep, period_block
from kljnsim.stats import EveCalibration, calibrate

# readings drawn partly from a small grid, so squares land exactly on the
# thresholds below and exact ties between the two ends occur
READING = st.one_of(
    st.sampled_from([0.0, 0.5, -1.0, 1.0, 2.0, -2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)


def reference_alarm(i_a, i_b, policy):
    """(triggered, first trigger sample or -1, rel difference) of one period."""
    w = policy.window
    sq_a = np.concatenate(([0.0], np.cumsum(i_a * i_a)))
    sq_b = np.concatenate(([0.0], np.cumsum(i_b * i_b)))
    win_a = (sq_a[w:] - sq_a[:-w]) / w
    win_b = (sq_b[w:] - sq_b[:-w]) / w
    peak = np.maximum(win_a, win_b)
    with np.errstate(invalid="ignore"):
        rel = np.where(peak > 0, np.abs(win_a - win_b) / peak, 0.0)
    for k, value in enumerate(rel):
        if value > policy.rel_tolerance:
            return True, k + w - 1, float(value)
    return False, -1, float(rel.max())


def reference_verdicts(i_a, i_b, cal, stride, budget):
    """(alice-low count, bob-low count, first answer or -1, guess or -1, comparison's guess or -1) of one period.

    The comparison names Alice's end as low (guess 0) when its sum of scaled
    squares over every reading is the larger, Bob's (1) when his is, and
    nothing (-1) on a tie.
    """
    n_a = n_b = 0
    first = guess = -1
    xas, xbs = [], []
    for j, k in enumerate(range(0, i_a.size, stride)):
        xa = i_a[k] * i_a[k] * cal.norm_constant
        xb = i_b[k] * i_b[k] * cal.norm_constant
        xas.append(xa)
        xbs.append(xb)
        alice_low = xa > cal.threshold and xb < cal.threshold
        bob_low = xb > cal.threshold and xa < cal.threshold
        n_a += alice_low
        n_b += bob_low
        if first < 0 and j < budget and (alice_low or bob_low):
            first, guess = j, (0 if alice_low else 1)
    # summed as numpy sums a row of readings, so that exact ties stay ties
    sum_a, sum_b = np.sum(xas), np.sum(xbs)
    comparison = 0 if sum_a > sum_b else 1 if sum_b > sum_a else -1
    return n_a, n_b, first, guess, comparison


@st.composite
def blocks(draw, stride):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    i_alice = draw(arrays(np.float64, (k, n), elements=READING))
    i_bob = draw(arrays(np.float64, (k, n), elements=READING))
    # some rows carry one current at both ends, like an intact single loop
    for r in range(k):
        if draw(st.booleans()):
            i_bob[r] = i_alice[r]
    alice_high = draw(arrays(np.bool_, k))
    bob_high = draw(arrays(np.bool_, k))
    return PeriodBlock(alice_high, bob_high, i_alice, i_bob, np.zeros_like(i_alice), stride)


def policies(n):
    """Alarm policies whose window fits a period of ``n`` samples, the whole period among them."""
    window = st.one_of(st.just(n), st.integers(2, n))
    return st.builds(AlarmPolicy, rel_tolerance=st.sampled_from([1e-12, 0.1, 0.5, 2.0]), window=window)


@pytest.mark.parametrize("stride", [1, 3, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_alarm_matches_per_row_reference(stride, data):
    block = data.draw(blocks(stride))
    policy = data.draw(policies(block.n_samples))
    # windows compared per step: all of these short rows at once, or a few
    # at a time, as in periods longer than CHUNK_SAMPLES
    step = data.draw(st.sampled_from([protocol.CHUNK_SAMPLES, 1, 3, 7]))
    with mock.patch.object(protocol, "CHUNK_SAMPLES", step):
        report = alarm_sweep(block, policy)
    for r in range(block.n_periods):
        triggered, first, rel = reference_alarm(block.i_alice[r], block.i_bob[r], policy)
        assert report.triggered[r] == triggered
        assert report.first_trigger_sample[r] == first
        assert report.rel_difference[r] == rel


def test_alarm_over_long_periods_matches_per_row_reference():
    # rows whose end currents drift apart at different rates fire in the
    # first, in a later or in no step of CHUNK_SAMPLES windows
    n = 3 * protocol.CHUNK_SAMPLES + 17
    rng = np.random.default_rng(5)
    i_alice = rng.standard_normal((4, n))
    drift = np.array([[0.3], [0.08], [0.01], [0.0]]) * np.arange(n) / n
    i_bob = i_alice * (1.0 + drift)
    block = PeriodBlock(np.array([False, True, False, True]), np.array([True] * 4), i_alice, i_bob, i_alice)
    policy = AlarmPolicy(rel_tolerance=0.1, window=50)
    report = alarm_sweep(block, policy)
    expected = [reference_alarm(i_alice[r], i_bob[r], policy) for r in range(4)]
    assert report.triggered.tolist() == [e[0] for e in expected] == [True, True, False, False]
    assert report.first_trigger_sample.tolist() == [e[1] for e in expected]
    assert report.rel_difference.tolist() == [e[2] for e in expected]
    assert protocol.CHUNK_SAMPLES < expected[1][1] < n - 50



LONG = 3 * protocol.CHUNK_SAMPLES + 17  # three steps of CHUNK_SAMPLES windows at window 50


def drifting_block(drifts):
    """``LONG``-sample rows whose end currents drift apart at the given rates; a rate of 0 is a single loop."""
    i_alice = np.random.default_rng(5).standard_normal((len(drifts), LONG))
    i_bob = i_alice * (1.0 + np.array(drifts)[:, None] * np.arange(LONG) / LONG)
    k = len(drifts)
    return PeriodBlock(np.zeros(k, dtype=bool), np.ones(k, dtype=bool), i_alice, i_bob, i_alice)


@pytest.mark.parametrize(
    ("drifts", "steps"),
    [([0.3], 1), ([0.0], 3), ([0.3, 0.1], 2)],
    ids=["fires-in-the-first-step", "never-fires", "early-and-late-row"],
)
def test_alarm_sweep_stops_once_every_row_has_fired(drifts, steps):
    block = drifting_block(drifts)
    policy = AlarmPolicy(rel_tolerance=0.1, window=50)
    with mock.patch.object(protocol, "_window_means", wraps=protocol._window_means) as window_means:
        report = alarm_sweep(block, policy)
    assert window_means.call_count == 2 * steps  # one call per end and step
    expected = [reference_alarm(block.i_alice[r], block.i_bob[r], policy) for r in range(block.n_periods)]
    assert report.triggered.tolist() == [e[0] for e in expected]
    assert report.first_trigger_sample.tolist() == [e[1] for e in expected]
    assert report.rel_difference.tolist() == [e[2] for e in expected]
    if report.triggered.all():  # the last row to fire fired in the last step swept
        last_window = report.first_trigger_sample.max() - (policy.window - 1)
        assert last_window // protocol.CHUNK_SAMPLES == steps - 1


def row_slice(block, rows):
    return PeriodBlock(
        block.alice_high[rows], block.bob_high[rows], block.i_alice[rows], block.i_bob[rows], block.v_node[rows],
        block.measurement_stride, block.exponent,
    )


@pytest.mark.parametrize("stride", [1, 3, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_attack_matches_per_row_reference(stride, data):
    block = data.draw(blocks(stride))
    n_readings = len(range(0, block.n_samples, stride))
    # budgets from 1 to past the readings a period holds
    budget = data.draw(st.integers(1, n_readings + 3))
    cal = EveCalibration(
        norm_constant=data.draw(st.sampled_from([1.0, 0.25])),
        threshold=data.draw(st.sampled_from([0.25, 1.0, 4.0])),
    )
    policy = data.draw(policies(block.n_samples))
    totals = block_totals(block, cal, budget, policy)

    expected = EmpiricalTotals(np.zeros(budget + 1, dtype=np.int64), n_bits=block.n_periods)
    for r in range(block.n_periods):
        i_a, i_b = block.i_alice[r], block.i_bob[r]
        # the alarm watches every period; its differences are summed over the secure ones
        triggered, _, rel = reference_alarm(i_a, i_b, policy)
        expected.n_alarms += triggered
        if block.alice_high[r] == block.bob_high[r]:
            continue  # Eve attacks the secure periods only
        expected.n_alarms_secure += triggered
        expected.rel_difference_sum += rel
        n_a, n_b, first, guess, comparison = reference_verdicts(i_a, i_b, cal, stride, budget)
        key_bit = int(block.alice_high[r])  # 1 when Alice holds the high resistor
        success, error = (n_b, n_a) if key_bit else (n_a, n_b)
        # the row's verdicts, read from the totals of the row alone
        row = block_totals(row_slice(block, slice(r, r + 1)), cal, budget, policy)
        assert row.n_trials == n_readings
        assert (row.n_success, row.n_error) == (success, error)
        # a row first answered at reading k (1-based) adds 1 to entry k; an unanswered row adds nothing
        assert row.measurements_hist.tolist() == [int(first >= 0 and k == first + 1) for k in range(budget + 1)]
        assert row.n_correct == (first >= 0 and guess == key_bit)
        # the comparison errs when it names the high resistor's end, and ties answer nothing
        assert (row.n_comparison_error, row.n_comparison_no_answer) == (comparison == 1 - key_bit, comparison < 0)
        sq_a, sq_b = float(i_a @ i_a), float(i_b @ i_b)
        expected.n_secure += 1
        expected.n_hl += key_bit
        # the low resistor sits at Alice's end on LH rows, at Bob's on HL rows
        expected.low_end_sq_sum += sq_b if key_bit else sq_a
        expected.high_end_sq_sum += sq_a if key_bit else sq_b
        expected.n_trials += n_readings
        expected.n_success += success
        expected.n_error += error
        expected.hl_successes += success if key_bit else 0
        if first >= 0:
            expected.n_correct += guess == key_bit
            expected.measurements_hist[first + 1] += 1
        expected.n_comparison_error += comparison == 1 - key_bit
        expected.n_comparison_no_answer += comparison < 0
    # the float sums add the same terms in another order
    sums = ("low_end_sq_sum", "high_end_sq_sum", "rel_difference_sum")
    for name in sums:
        assert getattr(totals, name) == pytest.approx(getattr(expected, name)), name
    assert totals == replace(expected, **{name: getattr(totals, name) for name in sums})


@pytest.mark.parametrize("stride", [1, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_totals_of_two_row_slices_merge_to_the_whole_block(stride, data):
    block = data.draw(blocks(stride))
    split = data.draw(st.integers(0, block.n_periods))
    budget = data.draw(st.integers(1, 6))
    cal = EveCalibration(norm_constant=1.0, threshold=data.draw(st.sampled_from([0.25, 1.0, 4.0])))
    policy = data.draw(policies(block.n_samples))
    whole = block_totals(block, cal, budget, policy)
    merged = block_totals(row_slice(block, slice(None, split)), cal, budget, policy)
    merged.merge(block_totals(row_slice(block, slice(split, None)), cal, budget, policy))
    for f in fields(whole):
        if isinstance(getattr(whole, f.name), float):  # sums whose order the split changes
            assert getattr(merged, f.name) == pytest.approx(getattr(whole, f.name))
        else:
            assert np.array_equal(getattr(merged, f.name), getattr(whole, f.name)), f.name


def preset_block(name):
    """Chunk 0 of 20 ``name`` periods of 100 samples at seed 1, with the node voltage."""
    return period_block(20, PRESETS[name], NoiseSpec(), 100, 0, SeededStream(1, 0).generator(), node=True)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_period_block_records_the_current_exponent(name):
    assert preset_block(name).exponent == current_exponent(PRESETS[name], NoiseSpec()) == 6


@pytest.mark.parametrize("k", [-40, 0, 100])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_block_in_another_unit_reads_the_same(name, k):
    # the same currents in a unit 2**k times smaller: the readers take the unit off the block
    block = preset_block(name)
    i_alice = np.ldexp(block.i_alice, k)
    i_bob = i_alice if block.i_bob is block.i_alice else np.ldexp(block.i_bob, k)  # lossless: one array for both
    copy = replace(block, i_alice=i_alice, i_bob=i_bob, exponent=block.exponent + k)
    assert b"".join(_trace_rows(copy, 3)) == b"".join(_trace_rows(block, 3))
    cal, policy = calibrate(PRESETS[name], NoiseSpec()), AlarmPolicy()
    totals = block_totals(block, cal, 64, policy)
    assert totals.n_secure > 0
    # the sums of squares stay in the block's unit, exactly 4**k times larger in the copy's
    scaled = {f: math.ldexp(getattr(totals, f), 2 * k) for f in ("low_end_sq_sum", "high_end_sq_sum")}
    assert block_totals(copy, cal, 64, policy) == replace(totals, **scaled)
