"""Machine-readable run reports: assembly and serialization.

Reports are JSON with a versioned schema.  The analytic section holds the
closed-form records of the network; a ``simulate`` report adds the
empirical section of the Monte Carlo pass (:mod:`kljnsim.montecarlo`) and
an agreement section that pairs each empirical rate with its analytic
counterpart as a coverage boolean, so downstream tooling never has to
recompute the comparison.  Numbers are serialized at full precision
(shortest round-trip form).  This module needs no numpy: only a report
with an empirical section imports the engine.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from datetime import datetime, timezone
from typing import Any, Optional, TextIO

from . import __version__
from .circuit import analytic_mean_square_currents, current_exponent
from .config import ExperimentConfig
from .stats import Z99, analytic_attack_probabilities, calibrate, ratio_or_nan, wilson_ci

SCHEMA_VERSION = 1
# Version of the mapping from (master_seed, config) to Monte Carlo samples.
# 1: one stream for all resistor picks plus two streams per period.
# 2: one stream per chunk of protocol.CHUNK_SAMPLES samples (picks, then
#    Alice's and Bob's noise for the whole chunk).
RNG_LAYOUT = 2


def analytic_section(cfg: ExperimentConfig) -> dict[str, Any]:
    """Closed-form numbers for the resolved network: its moments, calibration and probabilities records."""
    moments = analytic_mean_square_currents(cfg.network, cfg.noise)
    return {
        "moments": asdict(moments),
        "calibration": asdict(calibrate(cfg.network, cfg.noise)),
        "probabilities": asdict(analytic_attack_probabilities(moments.ratio)),
    }


def empirical_section(cfg: ExperimentConfig, trace: Optional[TextIO] = None) -> dict[str, Any]:
    """The report's empirical section: the totals of the Monte Carlo pass, with the numbers they give."""
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
        "secure_fraction_ci99": list(wilson_ci(t.n_secure, t.n_bits, Z99)),
        "n_secure_samples": n_secure_samples,
        "ratio": ratio_or_nan(t.low_end_sq_sum, t.high_end_sq_sum),
        "mean_square_low_end": ratio_or_nan(t.low_end_sq_sum, n_secure_samples) / unit / unit,
        "mean_square_high_end": ratio_or_nan(t.high_end_sq_sum, n_secure_samples) / unit / unit,
        "alarm": {
            "n_triggered": t.n_alarms,
            "n_triggered_secure": t.n_alarms_secure,
            "trigger_rate_secure": ratio_or_nan(t.n_alarms_secure, t.n_secure),
            "mean_rel_difference_secure": ratio_or_nan(t.rel_difference_sum, t.n_secure),
        },
        "attack": {
            "n_trials": t.n_trials,
            "n_success": t.n_success,
            "n_error": t.n_error,
            "n_no_answer": t.n_no_answer,
            "p_success": t.p_success,
            "p_error": t.p_error,
            "p_no_answer": t.p_no_answer,
            "p_success_ci99": t.success_ci,
            "p_error_ci99": t.error_ci,
            "p_no_answer_ci99": t.no_answer_ci,
            "repeat_until_answer": {
                "n_attacked": t.n_attacked,
                "n_answered": t.n_answered,
                "n_gave_up": t.n_gave_up,
                "n_correct": t.n_correct,
                "conditional_fidelity": t.conditional_fidelity,
                "fidelity_ci99": t.fidelity_ci,
                "mean_measurements": t.mean_measurements,
                "measurements_hist": {str(k): n for k, n in enumerate(t.measurements_hist.tolist()) if n},
            },
            "by_orientation": {
                "lh": {"trials": t.lh_trials, "successes": t.lh_successes},
                "hl": {"trials": t.hl_trials, "successes": t.hl_successes},
            },
        },
    }


def _covers(ci: Optional[list[float]], value: float) -> bool:
    return ci is not None and ci[0] <= value <= ci[1]


def _close(value: Any, target: float, tol: float) -> bool:
    return isinstance(value, float) and value == value and abs(value - target) <= tol


def agreement_section(analytic: dict[str, Any], empirical: dict[str, Any]) -> dict[str, Any]:
    """CI-coverage booleans pairing each empirical rate with its analytic value."""
    probs = analytic["probabilities"]
    att = empirical["attack"]
    repeat = att["repeat_until_answer"]
    ratio_rel = empirical["ratio"] / analytic["moments"]["ratio"]
    return {
        "ratio_within_2pct": _close(ratio_rel, 1.0, 0.02),
        "p_success_ci_covers_analytic": _covers(att["p_success_ci99"], probs["p_success"]),
        "p_error_ci_covers_analytic": _covers(att["p_error_ci99"], probs["p_error"]),
        "p_no_answer_ci_covers_analytic": _covers(att["p_no_answer_ci99"], probs["p_no_answer"]),
        "fidelity_ci_covers_analytic": _covers(repeat["fidelity_ci99"], probs["conditional_fidelity"]),
        "mean_measurements_within_0p05": _close(
            repeat["mean_measurements"], probs["expected_measurements"], 0.05
        ),
    }


def build_report(cfg: ExperimentConfig, *, empirical: bool, trace: Optional[TextIO] = None) -> dict[str, Any]:
    """Assemble the full run report; runs the Monte Carlo pass when asked to.

    With ``trace``, an open text stream, the pass also dumps every sample
    there as CSV.
    """
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "tool_version": __version__,
            "rng_layout": RNG_LAYOUT,
            "master_seed": cfg.master_seed,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
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
