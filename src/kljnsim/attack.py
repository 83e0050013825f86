"""Passive current-comparison eavesdropper.

Eve reads both end currents, scales their squares by the public theoretical
mean square of the high-resistance end, and compares every sample pair
against a threshold placed at the moment ratio: when exactly one side
exceeds it, that side must hold the low resistor.  On an intact single loop
the two readings are identical, so the comparison can never answer and the
attack extracts nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .circuit import NetworkConfig, analytic_mean_square_currents
from .noise import NoiseSpec
from .protocol import (
    KEY_BIT_BY_STATE,
    BitPeriodTrace,
    LoopState,
    ResistorPair,
    iter_bit_periods,
)
from .stats import Z99, wilson_ci


@dataclass(frozen=True)
class EveCalibration:
    """Eve's public-knowledge constants.

    ``norm_constant`` is the reciprocal of the theoretical mean-square
    current at the high-resistance end; after scaling, that end has unit
    mean square and the low-resistance end sits at ``threshold``.
    """

    norm_constant: float
    threshold: float

    def __post_init__(self) -> None:
        if self.norm_constant <= 0 or self.threshold <= 0:
            raise ValueError("calibration constants must be > 0")


def calibrate(net: NetworkConfig, noise: NoiseSpec) -> EveCalibration:
    """Derive Eve's constants from the published circuit values.

    All resistances and the effective temperature are public, so both
    numbers are theoretical.  Pad symmetry makes the calibration identical
    for the two secure orientations.
    """
    m = analytic_mean_square_currents(net, noise)
    return EveCalibration(
        norm_constant=1.0 / min(m.ms_alice, m.ms_bob),
        threshold=m.ratio,
    )


def _decision_vectors(trace: BitPeriodTrace, cal: EveCalibration) -> tuple[np.ndarray, np.ndarray]:
    """Per-measurement verdict masks at the trace's measurement cadence."""
    stride = trace.measurement_stride
    ia = trace.i_alice[::stride]
    ib = trace.i_bob[::stride]
    xa = ia * ia * cal.norm_constant
    xb = ib * ib * cal.norm_constant
    t = cal.threshold
    alice_low = (xa > t) & (xb < t)
    bob_low = (xb > t) & (xa < t)
    return alice_low, bob_low


def _ratio(count: int, total: int) -> float:
    return count / total if total else math.nan


def _interval(count: int, total: int) -> Optional[tuple[float, float]]:
    return wilson_ci(count, total, Z99) if total else None


@dataclass
class CampaignTally:
    """Streaming campaign totals, so big campaigns never hold traces in memory.

    Trial rates are per single comparison; the repeat-until-answer rule
    contributes ``mean_measurements`` (over answered bits),
    ``conditional_fidelity`` (correct guesses over emitted guesses) and the
    measurements histogram.  Rates are NaN and intervals (99% Wilson) are
    None while their denominator is zero.
    """

    max_measurements: int = 64
    n_trials: int = 0
    n_success: int = 0
    n_error: int = 0
    n_no_answer: int = 0
    n_attacked: int = 0
    n_answered: int = 0
    n_gave_up: int = 0
    n_correct: int = 0
    measurements_sum: int = 0
    measurements_hist: dict[int, int] = field(default_factory=dict)
    lh_trials: int = 0
    lh_successes: int = 0
    hl_trials: int = 0
    hl_successes: int = 0

    def add_period(self, trace: BitPeriodTrace, cal: EveCalibration) -> None:
        """Attack one secure period: every sample as a standalone trial, then repeat-until-answer.

        Measurements advance one correlation time at a time.  Bits that
        never answer within the budget count as given up, never silently
        guessed.
        """
        if not trace.state.secure:
            raise ValueError("add_period needs a secure (LH/HL) period trace")
        alice_low, bob_low = _decision_vectors(trace, cal)
        alice_truly_low = trace.state is LoopState.LH
        n = int(alice_low.size)
        n_a = int(np.count_nonzero(alice_low))
        n_b = int(np.count_nonzero(bob_low))
        success = n_a if alice_truly_low else n_b
        error = n_b if alice_truly_low else n_a
        self.n_trials += n
        self.n_success += success
        self.n_error += error
        self.n_no_answer += n - success - error
        if alice_truly_low:
            self.lh_trials += n
            self.lh_successes += success
        else:
            self.hl_trials += n
            self.hl_successes += success

        budget = min(self.max_measurements, n)
        answered = alice_low[:budget] | bob_low[:budget]
        self.n_attacked += 1
        if answered.any():
            k = int(np.argmax(answered))
            guess = 0 if alice_low[k] else 1
            self.n_answered += 1
            self.measurements_sum += k + 1
            self.measurements_hist[k + 1] = self.measurements_hist.get(k + 1, 0) + 1
            if guess == KEY_BIT_BY_STATE[trace.state]:
                self.n_correct += 1
        else:
            self.n_gave_up += 1

    @property
    def p_success(self) -> float:
        return _ratio(self.n_success, self.n_trials)

    @property
    def p_error(self) -> float:
        return _ratio(self.n_error, self.n_trials)

    @property
    def p_no_answer(self) -> float:
        return _ratio(self.n_no_answer, self.n_trials)

    @property
    def mean_measurements(self) -> float:
        return _ratio(self.measurements_sum, self.n_answered)

    @property
    def conditional_fidelity(self) -> float:
        return _ratio(self.n_correct, self.n_answered)

    @property
    def success_ci(self) -> Optional[tuple[float, float]]:
        return _interval(self.n_success, self.n_trials)

    @property
    def error_ci(self) -> Optional[tuple[float, float]]:
        return _interval(self.n_error, self.n_trials)

    @property
    def no_answer_ci(self) -> Optional[tuple[float, float]]:
        return _interval(self.n_no_answer, self.n_trials)

    @property
    def fidelity_ci(self) -> Optional[tuple[float, float]]:
        return _interval(self.n_correct, self.n_answered)


def attack_campaign(
    n_bits: int,
    pair: ResistorPair,
    net_template: NetworkConfig,
    noise: NoiseSpec,
    samples_per_bit: int,
    master_seed: int,
    max_measurements: int = 64,
) -> CampaignTally:
    """Protocol plus attack end to end over ``n_bits`` seeded periods.

    Every secure period is attacked twice over: each measurement sample as
    a standalone single-measurement trial, and once with the
    repeat-until-answer rule under the measurement budget.
    """
    cal = calibrate(net_template.with_resistors(pair.r_low, pair.r_high), noise)
    tally = CampaignTally(max_measurements=max_measurements)
    for trace in iter_bit_periods(n_bits, pair, net_template, noise, samples_per_bit, master_seed):
        if trace.state.secure:
            tally.add_period(trace, cal)
    return tally
