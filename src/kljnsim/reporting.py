"""Machine-readable run reports and CSV trace dumps.

Reports are JSON with a versioned schema.  Every empirical rate carries its
99% Wilson interval, and an agreement section pairs each rate with its
analytic counterpart as a coverage boolean, so downstream tooling never has
to recompute the comparison.  Numbers are serialized at full precision
(shortest round-trip form).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import Any, Optional, TextIO

import numpy as np

from . import __version__
from .attack import CampaignTally, EveCalibration, _ratio, calibrate
from .circuit import analytic_mean_square_currents
from .config import ExperimentConfig
from .protocol import CHUNK_SAMPLES, RNG_LAYOUT, PeriodBlock, alarm_sweep, iter_period_blocks
from .stats import Z99, analytic_attack_probabilities, wilson_ci

SCHEMA_VERSION = 1


def analytic_section(cfg: ExperimentConfig) -> dict[str, Any]:
    """Closed-form numbers for the resolved network: moments, calibration, probabilities."""
    moments = analytic_mean_square_currents(cfg.network, cfg.noise)
    cal = calibrate(cfg.network, cfg.noise)
    probs = analytic_attack_probabilities(moments.ratio)
    return {
        "moments": {
            "ms_alice": moments.ms_alice,
            "ms_bob": moments.ms_bob,
            "ratio": moments.ratio,
        },
        "calibration": {
            "norm_constant": cal.norm_constant,
            "threshold": cal.threshold,
        },
        "probabilities": {
            "p_success": probs.p_success,
            "p_error": probs.p_error,
            "p_no_answer": probs.p_no_answer,
            "expected_measurements": probs.expected_measurements,
            "conditional_fidelity": probs.conditional_fidelity,
        },
    }


def _write_trace_rows(writer, block: PeriodBlock, first_period: int) -> None:
    """One CSV row per sample, in period order.

    Rows go out in ``writerows`` calls of at most ``CHUNK_SAMPLES`` rows, so
    the Python lists built for one call stay small however long a period is.
    """
    k, n = block.i_alice.shape
    columns = (
        np.repeat(np.arange(first_period, first_period + k), n),
        np.tile(np.arange(n), k),
        block.i_alice.ravel(),
        block.i_bob.ravel(),
        block.v_node.ravel(),
    )
    for start in range(0, k * n, CHUNK_SAMPLES):
        writer.writerows(zip(*(c[start : start + CHUNK_SAMPLES].tolist() for c in columns)))


@dataclass
class EmpiricalTotals:
    """Totals of one Monte Carlo pass: periods, secure-period moments, alarms, attack tally.

    Squared currents are pooled at the low-resistor end and the
    high-resistor end across both secure orientations, so LH and HL periods
    reinforce rather than cancel.
    """

    tally: CampaignTally
    n_bits: int = 0
    n_secure: int = 0
    n_secure_samples: int = 0
    low_end_sq_sum: float = 0.0
    high_end_sq_sum: float = 0.0
    n_alarms: int = 0
    n_alarms_secure: int = 0
    rel_difference_sum: float = 0.0  # over secure periods

    def merge(self, part: "EmpiricalTotals") -> None:
        """Add one chunk's totals; merging in chunk order fixes the order of every float sum."""
        self.tally.merge(part.tally)
        for f in fields(self)[1:]:  # the counts and sums after the tally
            setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))


def _chunk_totals(block: PeriodBlock, cfg: ExperimentConfig, cal: EveCalibration) -> EmpiricalTotals:
    """Alarm sweep, secure-row moments and attack verdicts of one chunk."""
    alarm = alarm_sweep(block, cfg.alarm)
    secure = block.secure
    sec = block.secure_rows()
    sq_a = np.einsum("ij,ij->i", sec.i_alice, sec.i_alice)
    sq_b = np.einsum("ij,ij->i", sec.i_bob, sec.i_bob)
    tally = CampaignTally(max_measurements=cfg.max_measurements)
    tally.add_block(sec, cal)
    return EmpiricalTotals(
        tally,
        n_bits=block.n_periods,
        n_secure=sec.n_periods,
        n_secure_samples=sec.n_periods * sec.n_samples,
        # the low resistor sits at Alice's end on LH rows, at Bob's on HL rows
        low_end_sq_sum=float(np.where(sec.alice_high, sq_b, sq_a).sum()),
        high_end_sq_sum=float(np.where(sec.alice_high, sq_a, sq_b).sum()),
        n_alarms=int(np.count_nonzero(alarm.triggered)),
        n_alarms_secure=int(np.count_nonzero(alarm.triggered & secure)),
        rel_difference_sum=float(alarm.rel_difference[secure].sum()),
    )


def monte_carlo_pass(cfg: ExperimentConfig, csv_writer=None) -> EmpiricalTotals:
    """One streaming pass over every seeded block: protocol, alarm, attack, optional CSV dump.

    Each chunk is reduced to its totals on the thread that computed it (see
    :func:`iter_period_blocks` for when that is a pool thread); this thread
    merges them and writes the CSV rows in chunk order, so the thread
    layout cannot change a bit of the result.
    """
    cal = calibrate(cfg.network, cfg.noise)
    keep_block = csv_writer is not None

    def per_chunk(block: PeriodBlock) -> tuple[EmpiricalTotals, Optional[PeriodBlock]]:
        return _chunk_totals(block, cfg, cal), block if keep_block else None

    totals = EmpiricalTotals(CampaignTally(max_measurements=cfg.max_measurements))
    chunks = iter_period_blocks(
        cfg.n_bits, cfg.network, cfg.noise, cfg.samples_per_bit, cfg.master_seed, per_chunk
    )
    for part, block in chunks:
        if block is not None:
            _write_trace_rows(csv_writer, block, totals.n_bits)
        totals.merge(part)
    return totals


def empirical_section(cfg: ExperimentConfig, csv_writer=None) -> dict[str, Any]:
    """The report's empirical section: the totals of :func:`monte_carlo_pass`, as rates."""
    t = monte_carlo_pass(cfg, csv_writer)
    return {
        "n_bits": t.n_bits,
        "n_secure": t.n_secure,
        "secure_fraction": t.n_secure / t.n_bits,
        "secure_fraction_ci99": list(wilson_ci(t.n_secure, t.n_bits, Z99)),
        "n_secure_samples": t.n_secure_samples,
        "ratio": _ratio(t.low_end_sq_sum, t.high_end_sq_sum),
        "mean_square_low_end": _ratio(t.low_end_sq_sum, t.n_secure_samples),
        "mean_square_high_end": _ratio(t.high_end_sq_sum, t.n_secure_samples),
        "alarm": {
            "n_triggered": t.n_alarms,
            "n_triggered_secure": t.n_alarms_secure,
            "trigger_rate_secure": _ratio(t.n_alarms_secure, t.n_secure),
            "mean_rel_difference_secure": _ratio(t.rel_difference_sum, t.n_secure),
        },
        "attack": _attack_dict(t.tally),
    }


def _as_list(ci: Optional[tuple[float, float]]) -> Optional[list[float]]:
    return None if ci is None else list(ci)


def _attack_dict(tally: CampaignTally) -> dict[str, Any]:
    return {
        "n_trials": tally.n_trials,
        "n_success": tally.n_success,
        "n_error": tally.n_error,
        "n_no_answer": tally.n_no_answer,
        "p_success": tally.p_success,
        "p_error": tally.p_error,
        "p_no_answer": tally.p_no_answer,
        "p_success_ci99": _as_list(tally.success_ci),
        "p_error_ci99": _as_list(tally.error_ci),
        "p_no_answer_ci99": _as_list(tally.no_answer_ci),
        "repeat_until_answer": {
            "n_attacked": tally.n_attacked,
            "n_answered": tally.n_answered,
            "n_gave_up": tally.n_gave_up,
            "n_correct": tally.n_correct,
            "conditional_fidelity": tally.conditional_fidelity,
            "fidelity_ci99": _as_list(tally.fidelity_ci),
            "mean_measurements": tally.mean_measurements,
            "measurements_hist": {str(k): v for k, v in sorted(tally.measurements_hist.items())},
        },
        "by_orientation": {
            "lh": {"trials": tally.lh_trials, "successes": tally.lh_successes},
            "hl": {"trials": tally.hl_trials, "successes": tally.hl_successes},
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
        writer = None
        if trace is not None:
            writer = csv.writer(trace)
            writer.writerow(("period", "sample", "i_alice", "i_bob", "v_node"))
        report["empirical"] = empirical_section(cfg, writer)
        report["agreement"] = agreement_section(report["analytic"], report["empirical"])
    return report


def _sanitize(value: Any) -> Any:
    """Replace non-finite numbers by nulls so the emitted document stays strict JSON.

    NaN is a rate without a denominator; an infinity is a sum of squared
    currents that overflowed double precision.
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
