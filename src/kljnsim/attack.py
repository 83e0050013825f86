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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .circuit import NetworkConfig, analytic_mean_square_currents
from .noise import NoiseSpec
from .protocol import PeriodBlock
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
        if not (0 < self.norm_constant < math.inf and 0 < self.threshold < math.inf):
            raise ValueError("calibration constants must be finite and > 0")


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


@dataclass(frozen=True, eq=False)
class RowVerdicts:
    """Per-row outcome of Eve's comparisons over a block of periods.

    Each row is read ``n_measurements`` times, one correlation time apart.
    ``n_alice_low``/``n_bob_low`` count the readings whose verdict names
    that end as the low resistor.  ``first_answer`` is the 0-based index of
    the first answering reading within the budget and ``guess`` the key bit
    it implies (0 when Alice's end is low); both are -1 where no reading
    within the budget answered.
    """

    n_measurements: int
    n_alice_low: np.ndarray
    n_bob_low: np.ndarray
    first_answer: np.ndarray
    guess: np.ndarray


def row_verdicts(block: PeriodBlock, cal: EveCalibration, budget: int) -> RowVerdicts:
    """Threshold verdicts for every reading of every row, reduced per row.

    A reading answers when exactly one end's scaled square exceeds the
    threshold: that end holds the low resistor.  Readings equal to the
    threshold answer nothing.
    """
    stride = block.measurement_stride
    ia = block.i_alice[:, ::stride]
    ib = block.i_bob[:, ::stride]
    xa = ia * ia * cal.norm_constant
    xb = ib * ib * cal.norm_constant
    t = cal.threshold
    alice_low = (xa > t) & (xb < t)
    bob_low = (xb > t) & (xa < t)
    answered = alice_low[:, :budget] | bob_low[:, :budget]
    has = answered.any(axis=1)
    first = np.where(has, answered.argmax(axis=1), -1)
    rows = np.arange(first.size)
    return RowVerdicts(
        n_measurements=int(alice_low.shape[1]),
        n_alice_low=np.count_nonzero(alice_low, axis=1),
        n_bob_low=np.count_nonzero(bob_low, axis=1),
        first_answer=first,
        guess=np.where(has, np.where(alice_low[rows, first], 0, 1), -1),
    )


def _ratio(count: float, total: float) -> float:
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

    def add_block(self, block: PeriodBlock, cal: EveCalibration) -> None:
        """Attack a block of secure periods: every reading as a standalone trial, then repeat-until-answer.

        Measurements advance one correlation time at a time.  Bits that
        never answer within the budget count as given up, never silently
        guessed.
        """
        if not block.secure.all():
            raise ValueError("add_block needs a block of secure (LH/HL) periods")
        v = row_verdicts(block, cal, self.max_measurements)
        key_bit = block.alice_high  # 1 when Alice holds the high resistor (HL)
        success = np.where(key_bit, v.n_bob_low, v.n_alice_low)
        error = np.where(key_bit, v.n_alice_low, v.n_bob_low)
        n_rows = block.n_periods
        n_hl = int(np.count_nonzero(key_bit))
        n_success = int(success.sum())
        n_error = int(error.sum())
        hl_successes = int(success[key_bit].sum())
        self.n_trials += n_rows * v.n_measurements
        self.n_success += n_success
        self.n_error += n_error
        self.n_no_answer += n_rows * v.n_measurements - n_success - n_error
        self.hl_trials += n_hl * v.n_measurements
        self.hl_successes += hl_successes
        self.lh_trials += (n_rows - n_hl) * v.n_measurements
        self.lh_successes += n_success - hl_successes

        answered = v.first_answer >= 0
        n_answered = int(np.count_nonzero(answered))
        self.n_attacked += n_rows
        self.n_answered += n_answered
        self.n_gave_up += n_rows - n_answered
        self.n_correct += int(np.count_nonzero(v.guess == key_bit))
        for k, count in enumerate(np.bincount(v.first_answer[answered] + 1).tolist()):
            if count:
                self.measurements_hist[k] = self.measurements_hist.get(k, 0) + count
                self.measurements_sum += k * count

    def merge(self, other: "CampaignTally") -> None:
        """Add the counts of ``other``, a tally under the same budget."""
        for f in fields(self)[1:]:  # every field after the budget
            if f.name == "measurements_hist":
                for k, count in other.measurements_hist.items():
                    self.measurements_hist[k] = self.measurements_hist.get(k, 0) + count
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

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

