"""Passive current-comparison eavesdropper: threshold calibration and Eve's decision rule.

Eve reads both end currents, scales their squares by the public theoretical
mean square of the high-resistance end, and compares every sample pair
against a threshold placed at the moment ratio: when exactly one side
exceeds it, that side must hold the low resistor.  On an intact single loop
the two readings are identical, so the comparison can never answer and the
attack extracts nothing.  The campaign's counts, rates and intervals are
kept by :mod:`kljnsim.reporting`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import NetworkConfig, analytic_mean_square_currents
from .noise import NoiseSpec
from .protocol import PeriodBlock, unit_scaled_rows


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


def _scaled_squares(ia: np.ndarray, ib: np.ndarray, norm_constant: float) -> np.ndarray:
    """The stacked ``(2, rows, m)`` readings ``ia**2 * norm_constant`` and ``ib**2 * norm_constant``.

    A square can overflow although its scaled reading is finite (currents
    near 1e154 with a norm constant near 1e-308).  Such readings are
    computed again on their row's currents scaled by one power of two, with
    ``norm_constant`` scaled by that factor's inverse square; every reading
    that came out finite is kept as it is.
    """
    x = np.empty((2, *ia.shape))
    with np.errstate(over="ignore"):
        np.multiply(ia, ia, out=x[0])
        np.multiply(ib, ib, out=x[1])
        x *= norm_constant
        if math.isinf(x.max(initial=0.0)):  # readings are >= 0, so only an overflow makes it inf
            overflowed = np.isinf(x)
            redo = np.flatnonzero(overflowed.any(axis=(0, 2)))
            sa, sb, exponent = unit_scaled_rows(ia[redo], ib[redo])
            norm = np.ldexp(norm_constant, 2 * exponent)[:, None]
            again = np.stack((sa * sa * norm, sb * sb * norm))
            x[:, redo] = np.where(overflowed[:, redo], again, x[:, redo])
    return x


def row_verdicts(block: PeriodBlock, cal: EveCalibration, budget: int) -> RowVerdicts:
    """Threshold verdicts for every reading of every row, reduced per row.

    A reading answers when exactly one end's scaled square exceeds the
    threshold: that end holds the low resistor.  Readings equal to the
    threshold answer nothing.
    """
    stride = block.measurement_stride
    xa, xb = _scaled_squares(block.i_alice[:, ::stride], block.i_bob[:, ::stride], cal.norm_constant)
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
