"""Closed-form attack statistics: Eve's calibration, the attack probabilities and confidence intervals.

Its records are named tuples, exported with ``_asdict``; the module imports
neither numpy nor ``dataclasses``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .circuit import NetworkConfig, NoiseSpec, analytic_mean_square_currents

Z99 = 2.576  # two-sided 99% normal quantile, used for every interval in the reports


def ratio_or_nan(num: float, den: float) -> float:
    """``num / den``, or NaN (written as null in a report) without a denominator."""
    return num / den if den else math.nan


class EveCalibration(NamedTuple):
    """Eve's public-knowledge constants.

    ``norm_constant`` is the reciprocal of the theoretical mean-square
    current at the high-resistance end; after scaling, that end has unit
    mean square and the low-resistance end sits at ``threshold``.
    """

    norm_constant: float
    threshold: float


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


def chi2_cdf_1(x: float) -> float:
    """CDF of the square of a standard normal (chi-squared, one degree of freedom).

    Equals erf(sqrt(x/2)); monotone nondecreasing on x >= 0.
    """
    return math.erf(math.sqrt(0.5 * x))


class AttackProbabilities(NamedTuple):
    """Outcome probabilities of the single-measurement threshold comparison."""

    p_success: float
    p_error: float
    p_no_answer: float
    expected_measurements: float
    conditional_fidelity: float


def analytic_attack_probabilities(ratio: float) -> AttackProbabilities:
    """Per-trial probabilities when the two mean squares differ by ``ratio`` (larger over smaller, so >= 1).

    The threshold sits at the larger normalized mean square.  One trial
    succeeds when the strong end alone exceeds it, errs when the weak end
    alone does, and gives no answer when both land on the same side.
    ``expected_measurements`` is the mean number of trials until some
    answer arrives; ``conditional_fidelity`` is the chance that answer is
    right.
    """
    p_weak_below = chi2_cdf_1(ratio)  # weak end has unit mean square
    p_strong_below = chi2_cdf_1(1.0)  # threshold sits at the strong end's mean square
    p_success = p_weak_below * (1.0 - p_strong_below)
    p_error = (1.0 - p_weak_below) * p_strong_below
    p_no_answer = p_weak_below * p_strong_below + (1.0 - p_weak_below) * (1.0 - p_strong_below)
    p_answer = p_success + p_error
    return AttackProbabilities(
        p_success=p_success,
        p_error=p_error,
        p_no_answer=p_no_answer,
        expected_measurements=1.0 / p_answer if p_answer > 0 else math.inf,
        conditional_fidelity=ratio_or_nan(p_success, p_answer),
    )


def wilson_ci(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson score interval for ``0 <= successes <= trials``, ``trials >= 1``; always contained in [0, 1]."""
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = p + z2 / (2.0 * trials)
    radius = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    # the score interval pins its endpoints exactly at the boundaries
    lo = 0.0 if successes == 0 else max(0.0, (center - radius) / denom)
    hi = 1.0 if successes == trials else min(1.0, (center + radius) / denom)
    return lo, hi
