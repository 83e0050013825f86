"""Machine-readable run reports and CSV trace dumps.

Reports are JSON with a versioned schema.  The Monte Carlo pass reduces
every chunk to one flat record of independent counts and sums
(:class:`EmpiricalTotals`), which also derives every other count, rate and
interval of the empirical section.  Every empirical rate carries its 99%
Wilson interval, and an agreement section pairs each rate with its analytic
counterpart as a coverage boolean, so downstream tooling never has to
recompute the comparison.  Numbers are serialized at full precision
(shortest round-trip form).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from typing import Any, Optional, TextIO

import numpy as np

from . import __version__
from .attack import EveCalibration, calibrate, row_verdicts
from .circuit import analytic_mean_square_currents
from .config import ExperimentConfig
from .protocol import CHUNK_SAMPLES, RNG_LAYOUT, PeriodBlock, alarm_sweep, iter_period_blocks
from .stats import Z99, analytic_attack_probabilities, wilson_ci

SCHEMA_VERSION = 1


def analytic_section(cfg: ExperimentConfig) -> dict[str, Any]:
    """Closed-form numbers for the resolved network: its moments, calibration and probabilities records."""
    moments = analytic_mean_square_currents(cfg.network, cfg.noise)
    return {
        "moments": asdict(moments),
        "calibration": asdict(calibrate(cfg.network, cfg.noise)),
        "probabilities": asdict(analytic_attack_probabilities(moments.ratio)),
    }


_TRACE_HEADER = "period,sample,i_alice,i_bob,v_node\r\n"
_trace_row = "{},{},{!r},{!r},{!r}\r\n".format


def _write_trace_rows(trace: TextIO, block: PeriodBlock, first_period: int) -> None:
    """One CSV row per sample, in period order, written as preformatted text.

    No field ever needs quoting (ints and ``repr`` of floats), so the text
    is byte for byte what ``csv.writer``'s excel dialect writes.  Rows go
    out in ``writelines`` calls of at most ``CHUNK_SAMPLES`` rows, so the
    Python lists built for one call stay small however long a period is.
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
        trace.writelines(map(_trace_row, *(c[start : start + CHUNK_SAMPLES].tolist() for c in columns)))


def _ratio(num: float, den: float) -> float:
    """``num / den``, or NaN (written as null) without a denominator."""
    return num / den if den else math.nan


def _rate(count: str, total: str) -> tuple[property, property]:
    """The rate of two counts of :class:`EmpiricalTotals` and its 99% Wilson interval, as properties.

    The rate is NaN and the interval None while ``total`` is zero.
    """

    def interval(t: "EmpiricalTotals") -> Optional[list[float]]:
        n = getattr(t, total)
        return list(wilson_ci(getattr(t, count), n, Z99)) if n else None

    return property(lambda t: _ratio(getattr(t, count), getattr(t, total))), property(interval)


@dataclass
class EmpiricalTotals:
    """The independent counts and sums of one Monte Carlo pass; every other number derives from them.

    Squared currents are pooled at the low-resistor end and the
    high-resistor end across both secure orientations, so LH and HL periods
    reinforce rather than cancel.  Eve attacks the secure periods: every
    reading is a trial, ``n_correct`` counts the periods whose first answer
    within the budget names the key bit, and ``measurements_hist[k]`` counts
    the periods first answered at reading ``k`` (1-based), so it has one
    entry more than the budget of readings.
    """

    measurements_hist: np.ndarray
    n_bits: int = 0
    n_secure: int = 0
    n_hl: int = 0  # secure periods in which Alice holds the high resistor
    low_end_sq_sum: float = 0.0
    high_end_sq_sum: float = 0.0
    n_alarms: int = 0
    n_alarms_secure: int = 0
    rel_difference_sum: float = 0.0  # over secure periods
    n_trials: int = 0
    n_success: int = 0
    n_error: int = 0
    hl_successes: int = 0
    n_correct: int = 0

    def merge(self, part: "EmpiricalTotals") -> None:
        """Add one chunk's totals; merging in chunk order fixes the order of every float sum."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))

    def __eq__(self, other: object) -> bool:
        """Equal counts and sums, the histogram compared entry by entry."""
        return isinstance(other, EmpiricalTotals) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    # every other count, rate and interval follows from the stored ones
    n_attacked = property(lambda t: t.n_secure)
    n_answered = property(lambda t: int(t.measurements_hist.sum()))
    n_gave_up = property(lambda t: t.n_secure - t.n_answered)
    n_no_answer = property(lambda t: t.n_trials - t.n_success - t.n_error)
    # every secure period holds n_trials / n_secure readings
    hl_trials = property(lambda t: t.n_trials // t.n_secure * t.n_hl if t.n_secure else 0)
    lh_trials = property(lambda t: t.n_trials - t.hl_trials)
    lh_successes = property(lambda t: t.n_success - t.hl_successes)
    p_success, success_ci = _rate("n_success", "n_trials")
    p_error, error_ci = _rate("n_error", "n_trials")
    p_no_answer, no_answer_ci = _rate("n_no_answer", "n_trials")
    conditional_fidelity, fidelity_ci = _rate("n_correct", "n_answered")

    @property
    def mean_measurements(self) -> float:
        """Readings per answered period, the answering one included."""
        readings = np.arange(self.measurements_hist.size)
        return _ratio(int(readings @ self.measurements_hist), self.n_answered)


def block_totals(block: PeriodBlock, cal: EveCalibration, max_measurements: int) -> EmpiricalTotals:
    """Period counts, secure-period moments and Eve's counts of one block; the alarm fields stay 0.

    Eve attacks the secure rows, which this picks from the block.  Every
    reading is a standalone trial; then she repeats readings, one
    correlation time apart, until one answers.  A period with no answer
    within ``max_measurements`` readings counts as given up, never silently
    guessed.
    """
    sec = block.secure_rows()
    v = row_verdicts(sec, cal, max_measurements)
    key_bit = sec.alice_high  # 1 when Alice holds the high resistor (HL)
    success = np.where(key_bit, v.n_bob_low, v.n_alice_low)
    error = np.where(key_bit, v.n_alice_low, v.n_bob_low)
    with np.errstate(over="ignore"):  # a sum that overflows is inf, which the report writes as null
        sq_a = np.einsum("ij,ij->i", sec.i_alice, sec.i_alice)
        sq_b = np.einsum("ij,ij->i", sec.i_bob, sec.i_bob)
        # the low resistor sits at Alice's end on LH rows, at Bob's on HL rows
        low_end_sq_sum = float(np.where(key_bit, sq_b, sq_a).sum())
        high_end_sq_sum = float(np.where(key_bit, sq_a, sq_b).sum())
    return EmpiricalTotals(
        np.bincount(v.first_answer[v.first_answer >= 0] + 1, minlength=max_measurements + 1),
        n_bits=block.n_periods,
        n_secure=sec.n_periods,
        n_hl=int(np.count_nonzero(key_bit)),
        low_end_sq_sum=low_end_sq_sum,
        high_end_sq_sum=high_end_sq_sum,
        n_trials=sec.n_periods * v.n_measurements,
        n_success=int(success.sum()),
        n_error=int(error.sum()),
        hl_successes=int(success[key_bit].sum()),
        n_correct=int(np.count_nonzero(v.guess == key_bit)),
    )


def monte_carlo_pass(cfg: ExperimentConfig, trace: Optional[TextIO] = None) -> EmpiricalTotals:
    """One streaming pass over every seeded block: protocol, alarm, attack, optional CSV rows to ``trace``.

    Each chunk is reduced to its totals on the thread that computed it (see
    :func:`iter_period_blocks` for when that is a pool thread); this thread
    merges them and writes the CSV rows in chunk order, so the thread
    layout cannot change a bit of the result.
    """
    cal = calibrate(cfg.network, cfg.noise)
    keep_block = trace is not None
    # no first answer lands past the readings a period holds, so a larger budget acts as that many
    budget = min(cfg.max_measurements, -(-cfg.samples_per_bit // cfg.noise.measurement_stride))

    def per_chunk(block: PeriodBlock) -> tuple[EmpiricalTotals, Optional[PeriodBlock]]:
        totals = block_totals(block, cal, budget)
        alarm = alarm_sweep(block, cfg.alarm)
        secure = block.secure
        totals.n_alarms = int(np.count_nonzero(alarm.triggered))
        totals.n_alarms_secure = int(np.count_nonzero(alarm.triggered & secure))
        totals.rel_difference_sum = float(alarm.rel_difference[secure].sum())
        return totals, block if keep_block else None

    totals = EmpiricalTotals(np.zeros(budget + 1, dtype=np.int64))
    chunks = iter_period_blocks(
        cfg.n_bits, cfg.network, cfg.noise, cfg.samples_per_bit, cfg.master_seed, per_chunk
    )
    for part, block in chunks:
        if block is not None:
            _write_trace_rows(trace, block, totals.n_bits)
        totals.merge(part)
    return totals


def empirical_section(cfg: ExperimentConfig, trace: Optional[TextIO] = None) -> dict[str, Any]:
    """The report's empirical section: the totals of :func:`monte_carlo_pass`, with the numbers they give."""
    t = monte_carlo_pass(cfg, trace)
    n_secure_samples = t.n_secure * cfg.samples_per_bit
    return {
        "n_bits": t.n_bits,
        "n_secure": t.n_secure,
        "secure_fraction": t.n_secure / t.n_bits,
        "secure_fraction_ci99": list(wilson_ci(t.n_secure, t.n_bits, Z99)),
        "n_secure_samples": n_secure_samples,
        "ratio": _ratio(t.low_end_sq_sum, t.high_end_sq_sum),
        "mean_square_low_end": _ratio(t.low_end_sq_sum, n_secure_samples),
        "mean_square_high_end": _ratio(t.high_end_sq_sum, n_secure_samples),
        "alarm": {
            "n_triggered": t.n_alarms,
            "n_triggered_secure": t.n_alarms_secure,
            "trigger_rate_secure": _ratio(t.n_alarms_secure, t.n_secure),
            "mean_rel_difference_secure": _ratio(t.rel_difference_sum, t.n_secure),
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
        if trace is not None:
            trace.write(_TRACE_HEADER)
        report["empirical"] = empirical_section(cfg, trace)
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
