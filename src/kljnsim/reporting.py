"""Machine-readable run reports: assembly and serialization.

Reports are JSON with a versioned schema.  The analytic section holds the
closed-form records of the network and two models of Eve's readings: the
independent-reading product of the closed-form moments
(``probabilities``) and the exact simultaneous-reading model (``exact``).
A ``simulate`` report adds the empirical section, the counts and sums of
the Monte Carlo pass (:mod:`kljnsim.montecarlo`) with every rate, 99%
interval and mean derived here, and an agreement section: coverage
booleans that judge each empirical rate against the exact model, and each
rate's signed deviation in standard errors from both models, so downstream
tooling never has to recompute the comparison.  Numbers are serialized at
full precision (shortest round-trip form).  This module needs no numpy:
only a report with an empirical section imports the engine.  Nor does it
import ``datetime``: the timestamp is written from ``time``
(:func:`utc_isoformat`).
"""

from __future__ import annotations

import json
import math
import time
from typing import TYPE_CHECKING, Any, BinaryIO, Optional, TextIO

from . import __version__
from .circuit import analytic_mean_square_currents, connection_records, current_exponent
from .config import ExperimentConfig
from .stats import (
    Z99,
    analytic_attack_probabilities,
    calibrate,
    comparison_error,
    end_correlation,
    exact_attack_probabilities,
    mean_square_ratio,
    ratio_or_nan,
    wilson_ci,
)

if TYPE_CHECKING:
    from .montecarlo import EmpiricalTotals

# 2: analytic.exact, the agreement booleans judged against it, and agreement.deviation_se
# 3: Eve's current comparison (analytic.exact.comparison, empirical.attack.comparison, its boolean and
#    deviation), and analytic.exact.ratio, which the ratio check now judges against
SCHEMA_VERSION = 3
# Version of the mapping from (master_seed, config) to Monte Carlo samples.
# 1: one stream for all resistor picks plus two streams per period.
# 2: one stream per chunk of protocol.CHUNK_SAMPLES samples (picks, then
#    Alice's and Bob's noise for the whole chunk).
RNG_LAYOUT = 2


def utc_isoformat(t: float) -> str:
    """The instant ``t`` (seconds since the epoch) as ``datetime.fromtimestamp(t, timezone.utc).isoformat()`` writes it.

    The fraction is rounded half to even to whole microseconds and left out
    when it is zero, as there; ``time`` writes it without the ``datetime``
    import.
    """
    fraction, seconds = math.modf(t)
    carry, microseconds = divmod(round(fraction * 1e6), 1_000_000)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(int(seconds) + carry))
    return f"{text}.{microseconds:06d}+00:00" if microseconds else f"{text}+00:00"


def analytic_section(cfg: ExperimentConfig) -> dict[str, Any]:
    """Closed-form numbers for the resolved network: moments, calibration and both models' probabilities.

    ``probabilities`` is the independent-reading product of the closed-form
    moments.  ``exact`` reads both ends at one instant, series elements
    kept (:func:`~kljnsim.stats.exact_attack_probabilities`), on the LH
    connection (Alice low, Bob high); HL gives the same values.  It holds
    ``rho``, the correlation of Eve's two readings, the same five fields as
    ``probabilities``, the mean-square ``ratio`` of the low-resistor end to
    the high-resistor end, and the error of Eve's current ``comparison``
    (:func:`~kljnsim.stats.comparison_error`) at one reading and at a
    period's readings, NaN where it never answers.
    """
    moments = analytic_mean_square_currents(cfg.network, cfg.noise)
    cal = calibrate(cfg.network, cfg.noise)
    record = connection_records(cfg.network, cfg.noise)[0][1]
    return {
        "moments": moments._asdict(),
        "calibration": cal._asdict(),
        "probabilities": analytic_attack_probabilities(moments.ratio)._asdict(),
        "exact": {
            "rho": end_correlation(record),
            **exact_attack_probabilities(record, cal)._asdict(),
            "ratio": mean_square_ratio(record),
            "comparison": {
                "readings": cfg.readings,
                "p_error_one_reading": comparison_error(record, 1),
                "p_error": comparison_error(record, cfg.readings),
            },
        },
    }


def _ci(count: int, total: int) -> Optional[list[float]]:
    """The 99% Wilson interval of ``count`` in ``total``, or None while ``total`` is 0."""
    return list(wilson_ci(count, total, Z99)) if total else None


def attack_section(t: EmpiricalTotals) -> dict[str, Any]:
    """The report's ``empirical.attack``: Eve's counts in the pass's totals, with their rates, intervals and mean."""
    hist = t.measurements_hist.tolist()
    n_answered = sum(hist)
    n_no_answer = t.n_trials - t.n_success - t.n_error
    hl_trials = t.n_trials // t.n_secure * t.n_hl if t.n_secure else 0  # every secure period holds as many readings
    n_compared = t.n_secure - t.n_comparison_no_answer  # periods whose comparison answered
    return {
        "n_trials": t.n_trials,
        "n_success": t.n_success,
        "n_error": t.n_error,
        "n_no_answer": n_no_answer,
        "p_success": ratio_or_nan(t.n_success, t.n_trials),
        "p_error": ratio_or_nan(t.n_error, t.n_trials),
        "p_no_answer": ratio_or_nan(n_no_answer, t.n_trials),
        "p_success_ci99": _ci(t.n_success, t.n_trials),
        "p_error_ci99": _ci(t.n_error, t.n_trials),
        "p_no_answer_ci99": _ci(n_no_answer, t.n_trials),
        "repeat_until_answer": {
            "n_attacked": t.n_secure,
            "n_answered": n_answered,
            "n_gave_up": t.n_secure - n_answered,
            "n_correct": t.n_correct,
            "conditional_fidelity": ratio_or_nan(t.n_correct, n_answered),
            "fidelity_ci99": _ci(t.n_correct, n_answered),
            "mean_measurements": ratio_or_nan(sum(k * n for k, n in enumerate(hist)), n_answered),
            "measurements_hist": {str(k): n for k, n in enumerate(hist) if n},
        },
        "by_orientation": {
            "lh": {"trials": t.n_trials - hl_trials, "successes": t.n_success - t.hl_successes},
            "hl": {"trials": hl_trials, "successes": t.hl_successes},
        },
        "comparison": {
            "n_periods": t.n_secure,
            "n_error": t.n_comparison_error,
            "n_no_answer": t.n_comparison_no_answer,
            "p_error": ratio_or_nan(t.n_comparison_error, n_compared),
            "p_error_ci99": _ci(t.n_comparison_error, n_compared),
        },
    }


def empirical_section(cfg: ExperimentConfig, trace: Optional[BinaryIO] = None) -> dict[str, Any]:
    """The report's empirical section: the totals of the Monte Carlo pass, with every rate, interval and mean."""
    # the numpy engine; `simulate` has imported it before the report is built
    from .montecarlo import monte_carlo_pass

    t = monte_carlo_pass(cfg, trace)
    n_secure_samples = t.n_secure * cfg.samples_per_bit
    # sums of squares are in the pass's unit 2**-m: a mean square is divided by 4**m in two exact
    # steps, after the sample count, so only one past the double range becomes inf (null)
    unit = 2.0 ** current_exponent(cfg.network, cfg.noise)
    return {
        "n_bits": t.n_bits,
        "n_secure": t.n_secure,
        "secure_fraction": t.n_secure / t.n_bits,
        "secure_fraction_ci99": _ci(t.n_secure, t.n_bits),
        "n_secure_samples": n_secure_samples,
        "ratio": ratio_or_nan(t.low_end_sq_sum, t.high_end_sq_sum),
        "mean_square_low_end": ratio_or_nan(t.low_end_sq_sum, n_secure_samples) / unit / unit,
        "mean_square_high_end": ratio_or_nan(t.high_end_sq_sum, n_secure_samples) / unit / unit,
        "alarm": {
            "n_triggered": t.n_alarms,
            "n_triggered_secure": t.n_alarms_secure,
            "n_triggered_nonsecure": t.n_alarms - t.n_alarms_secure,
            "trigger_rate_secure": ratio_or_nan(t.n_alarms_secure, t.n_secure),
            "mean_rel_difference_secure": ratio_or_nan(t.rel_difference_sum, t.n_secure),
        },
        "attack": attack_section(t),
    }


def _covers(ci: Optional[list[float]], value: float) -> bool:
    return ci is not None and ci[0] <= value <= ci[1]


def _close(value: Any, target: float, tol: float) -> bool:
    return isinstance(value, float) and value == value and abs(value - target) <= tol


def _deviation(value: float, target: float, sd: float, n: int) -> Optional[float]:
    """``value - target`` in standard errors ``sd / sqrt(n)``; None where the count or the spread is 0."""
    return (value - target) / (sd / math.sqrt(n)) if n and sd > 0.0 else None


def _binomial_sd(p: float) -> float:
    """The SD of one Bernoulli trial at rate ``p``; 0 outside (0, 1), NaN included."""
    return math.sqrt(p * (1.0 - p)) if 0.0 < p < 1.0 else 0.0


def _deviations(probs: dict[str, Any], att: dict[str, Any]) -> dict[str, Optional[float]]:
    """Each empirical rate's signed deviation from one model's value, in standard errors at the model's rates.

    Trial rates take the binomial SE over the trials and the fidelity over
    the answered periods.  The readings to a first answer are geometric with
    success q = p_success + p_error, so the mean measurements take its SD
    sqrt(1 - q)/q over the root of the answered periods.
    """
    repeat = att["repeat_until_answer"]
    n_trials, n_answered = att["n_trials"], repeat["n_answered"]
    deviations = {
        name: _deviation(att[name], probs[name], _binomial_sd(probs[name]), n_trials)
        for name in ("p_success", "p_error", "p_no_answer")
    }
    fidelity = probs["conditional_fidelity"]
    deviations["conditional_fidelity"] = _deviation(
        repeat["conditional_fidelity"], fidelity, _binomial_sd(fidelity), n_answered
    )
    q = probs["p_success"] + probs["p_error"]
    geometric_sd = math.sqrt(1.0 - q) / q if 0.0 < q < 1.0 else 0.0
    deviations["mean_measurements"] = _deviation(
        repeat["mean_measurements"], probs["expected_measurements"], geometric_sd, n_answered
    )
    return deviations


def agreement_section(analytic: dict[str, Any], empirical: dict[str, Any]) -> dict[str, Any]:
    """Booleans judging each empirical rate against the exact model, and its deviations in SE from both models.

    A model that never answers (p_success + p_error = 0, as on a loop
    without a shunt) agrees with a run that answered no period, so the
    fidelity and mean-measurement checks hold there; so does the comparison
    check where the comparison's exact error is NaN and no period's
    comparison answered.  Only the exact model has a law for the
    comparison; its deviation takes the binomial SE over the periods whose
    comparison answered.
    """
    exact = analytic["exact"]
    att = empirical["attack"]
    repeat = att["repeat_until_answer"]
    comparison, p_comparison = att["comparison"], exact["comparison"]["p_error"]
    ratio_rel = empirical["ratio"] / exact["ratio"]
    never_answers = exact["p_success"] + exact["p_error"] == 0.0 and repeat["n_answered"] == 0
    n_compared = comparison["n_periods"] - comparison["n_no_answer"]
    never_compares = math.isnan(p_comparison) and n_compared == 0
    comparison_deviation = _deviation(comparison["p_error"], p_comparison, _binomial_sd(p_comparison), n_compared)
    return {
        "ratio_within_2pct": _close(ratio_rel, 1.0, 0.02),
        "p_success_ci_covers_analytic": _covers(att["p_success_ci99"], exact["p_success"]),
        "p_error_ci_covers_analytic": _covers(att["p_error_ci99"], exact["p_error"]),
        "p_no_answer_ci_covers_analytic": _covers(att["p_no_answer_ci99"], exact["p_no_answer"]),
        "fidelity_ci_covers_analytic": never_answers
        or _covers(repeat["fidelity_ci99"], exact["conditional_fidelity"]),
        "mean_measurements_within_0p05": never_answers
        or _close(repeat["mean_measurements"], exact["expected_measurements"], 0.05),
        "comparison_p_error_ci_covers_analytic": never_compares or _covers(comparison["p_error_ci99"], p_comparison),
        "deviation_se": {
            "exact": {**_deviations(exact, att), "comparison_p_error": comparison_deviation},
            "independent": _deviations(analytic["probabilities"], att),
        },
    }


def build_report(cfg: ExperimentConfig, *, empirical: bool, trace: Optional[BinaryIO] = None) -> dict[str, Any]:
    """Assemble the full run report; runs the Monte Carlo pass when asked to.

    With ``trace``, an open binary stream, the pass also dumps every sample
    there as CSV bytes, currents in amperes.
    """
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "tool_version": __version__,
            "rng_layout": RNG_LAYOUT,
            "master_seed": cfg.master_seed,
            "timestamp_utc": utc_isoformat(time.time()),
        },
        "config": cfg.to_dict(),
        "analytic": analytic_section(cfg),
    }
    if empirical:
        report["empirical"] = empirical_section(cfg, trace)
        report["agreement"] = agreement_section(report["analytic"], report["empirical"])
    return report


def _sanitize(value: Any) -> Any:
    """Replace non-finite numbers by nulls so the emitted document stays strict JSON.

    NaN is a rate without a denominator (no secure period, or no answer
    to average over).
    """
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_json(report: dict[str, Any]) -> str:
    return json.dumps(_sanitize(report), indent=2, allow_nan=False)


def write_report(report: dict[str, Any], out: TextIO) -> None:
    out.write(report_json(report) + "\n")
