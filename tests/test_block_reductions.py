"""The block alarm and attack reductions against plain per-row references.

The references are the per-period rules written out one row (and, for the
attack, one reading) at a time.  They use the same floating-point operations
in the same order, so results must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljnsim.attack import CampaignTally, EveCalibration, row_verdicts
from kljnsim.protocol import AlarmPolicy, PeriodBlock, alarm_sweep

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
    """(alice-low count, bob-low count, first answer or -1, guess or -1) of one period."""
    n_a = n_b = 0
    first = guess = -1
    for j, k in enumerate(range(0, i_a.size, stride)):
        xa = i_a[k] * i_a[k] * cal.norm_constant
        xb = i_b[k] * i_b[k] * cal.norm_constant
        alice_low = xa > cal.threshold and xb < cal.threshold
        bob_low = xb > cal.threshold and xa < cal.threshold
        n_a += alice_low
        n_b += bob_low
        if first < 0 and j < budget and (alice_low or bob_low):
            first, guess = j, (0 if alice_low else 1)
    return n_a, n_b, first, guess


@st.composite
def blocks(draw, stride, secure=False):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    i_alice = draw(arrays(np.float64, (k, n), elements=READING))
    i_bob = draw(arrays(np.float64, (k, n), elements=READING))
    # some rows carry one current at both ends, like an intact single loop
    for r in range(k):
        if draw(st.booleans()):
            i_bob[r] = i_alice[r]
    alice_high = draw(arrays(np.bool_, k))
    bob_high = ~alice_high if secure else draw(arrays(np.bool_, k))
    return PeriodBlock(alice_high, bob_high, i_alice, i_bob, np.zeros_like(i_alice), stride)


@pytest.mark.parametrize("stride", [1, 3, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_alarm_matches_per_row_reference(stride, data):
    block = data.draw(blocks(stride))
    n = block.n_samples
    window = data.draw(st.one_of(st.just(n), st.integers(2, n)))
    policy = AlarmPolicy(rel_tolerance=data.draw(st.sampled_from([1e-12, 0.1, 0.5, 2.0])), window=window)
    report = alarm_sweep(block, policy)
    for r in range(block.n_periods):
        triggered, first, rel = reference_alarm(block.i_alice[r], block.i_bob[r], policy)
        assert report.triggered[r] == triggered
        assert report.first_trigger_sample[r] == first
        assert report.rel_difference[r] == rel


@pytest.mark.parametrize("stride", [1, 3, 8])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_attack_matches_per_row_reference(stride, data):
    block = data.draw(blocks(stride, secure=True))
    n_readings = len(range(0, block.n_samples, stride))
    # budgets from 1 to past the readings a period holds
    budget = data.draw(st.integers(1, n_readings + 3))
    cal = EveCalibration(
        norm_constant=data.draw(st.sampled_from([1.0, 0.25])),
        threshold=data.draw(st.sampled_from([0.25, 1.0, 4.0])),
    )
    verdicts = row_verdicts(block, cal, budget)
    tally = CampaignTally(max_measurements=budget)
    tally.add_block(block, cal)

    expected = CampaignTally(max_measurements=budget)
    assert verdicts.n_measurements == n_readings
    for r in range(block.n_periods):
        n_a, n_b, first, guess = reference_verdicts(block.i_alice[r], block.i_bob[r], cal, stride, budget)
        assert verdicts.n_alice_low[r] == n_a
        assert verdicts.n_bob_low[r] == n_b
        assert verdicts.first_answer[r] == first
        assert verdicts.guess[r] == guess
        key_bit = int(block.alice_high[r])  # 1 when Alice holds the high resistor
        success, error = (n_b, n_a) if key_bit else (n_a, n_b)
        expected.n_trials += n_readings
        expected.n_success += success
        expected.n_error += error
        expected.n_no_answer += n_readings - success - error
        if key_bit:
            expected.hl_trials += n_readings
            expected.hl_successes += success
        else:
            expected.lh_trials += n_readings
            expected.lh_successes += success
        expected.n_attacked += 1
        if first < 0:
            expected.n_gave_up += 1
        else:
            expected.n_answered += 1
            expected.n_correct += guess == key_bit
            expected.measurements_sum += first + 1
            expected.measurements_hist[first + 1] = expected.measurements_hist.get(first + 1, 0) + 1
    assert tally == expected
