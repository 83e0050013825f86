"""The Monte Carlo pass of ``simulate``: its totals and the trace CSV.

The pass reduces every chunk to one flat record of independent counts and
sums (:class:`EmpiricalTotals`), which also derives every other count, rate
and interval of the report's empirical section.  Every empirical rate
carries its 99% Wilson interval.  With a trace stream, the pass also dumps
every sample as CSV, whose numbers :mod:`kljnsim.reprtext` turns into
text.  This module and the engine it drives (:mod:`kljnsim.protocol`,
:mod:`kljnsim.noise`, :mod:`kljnsim.attack`, :mod:`kljnsim.reprtext`) are
the only ones that import numpy; :mod:`kljnsim.reporting` turns the totals
into the report.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, TextIO

import numpy as np

from .attack import row_verdicts
from .circuit import current_exponent
from .config import ExperimentConfig
from .protocol import CHUNK_SAMPLES, PeriodBlock, alarm_sweep, iter_period_blocks
from .stats import Z99, EveCalibration, calibrate, ratio_or_nan, wilson_ci

_TRACE_HEADER = "period,sample,i_alice,i_bob,v_node\r\n"


def _write_trace_rows(trace: TextIO, block: PeriodBlock, first_period: int) -> None:
    """One CSV row per sample, in period order, converted to text in numpy.

    No field ever needs quoting (integers and the ``repr`` text of floats),
    so the text is byte for byte what ``csv.writer``'s excel dialect writes.
    Rows are converted and written a slice of at most ``CHUNK_SAMPLES // 4``
    at a time, so the buffers stay small however long a period is.  A loop
    without a shunt carries one current, and
    :func:`~kljnsim.protocol.solve_network` then returns one array for both
    ends, whose text fills both columns.
    """
    from .reprtext import SLOT_WORDS, WORD, write_floats, write_ints  # only a trace CSV needs the formatter

    n = block.n_samples
    shared = block.i_bob is block.i_alice
    currents = (block.i_alice,) if shared else (block.i_alice, block.i_bob)
    columns = [c.reshape(-1) for c in (*currents, block.v_node)]
    # after the exponent, a slot's last word has NUL bytes for the separators
    separators = np.frombuffer(b"\0" * 7 + b"," + b"\0" * 7 + b"," + b"\0" * 6 + b"\r\n", dtype=WORD)

    def numbers(first: int, last: int, width: int, at: int, head: int) -> np.ndarray:
        """Words of ``head`` with the text of each of first..last right-aligned in bytes at..at+width-1, then ","."""
        words = np.zeros((last - first + 1, head), dtype=WORD)
        chars = words.view(np.uint8)
        write_ints(chars[:, at : at + width], np.arange(first, last + 1, dtype=np.uint64))
        chars[:, at + width] = ord(",")
        return words

    def text(start: int, stop: int) -> str:
        period, sample = np.divmod(np.arange(start, stop), n)
        first_row, last_row = start // n, (stop - 1) // n
        # one period's samples, or from 0 to n - 1 when the slice holds the end of a period
        first_sample, last_sample = (start % n, (stop - 1) % n) if first_row == last_row else (0, n - 1)
        period_width = len(str(first_period + last_row))
        sample_width = len(str(last_sample))
        head = -(-(period_width + sample_width + 2) // 8)  # words of "period,sample,"
        words = np.empty((stop - start, head + 3 * SLOT_WORDS), dtype=WORD)
        periods = numbers(first_period + first_row, first_period + last_row, period_width, 0, head)
        samples = numbers(first_sample, last_sample, sample_width, period_width + 1, head)
        words[:, :head] = periods.take(period - first_row, axis=0) | samples.take(sample - first_sample, axis=0)
        fields = words[:, head:].reshape(-1, 3, SLOT_WORDS)
        values = np.stack([c[start:stop] for c in columns], axis=-1)
        if shared:
            write_floats(fields[:, ::2], values)
            # Bob's text is Alice's, copied as one item per slot rather than word by word
            slots = words[:, head:].view(np.dtype((np.void, 8 * SLOT_WORDS)))
            slots[:, 1] = slots[:, 0]
        else:
            write_floats(fields, values)
        for j, separator in enumerate(separators):
            fields[:, j, -1] |= separator
        return words.tobytes().translate(None, b"\0").decode("ascii")

    slice_rows = CHUNK_SAMPLES // 4
    for start in range(0, block.n_periods * n, slice_rows):
        trace.write(text(start, min(start + slice_rows, block.n_periods * n)))


def _rate(count: str, total: str) -> tuple[property, property]:
    """The rate of two counts of :class:`EmpiricalTotals` and its 99% Wilson interval, as properties.

    The rate is NaN and the interval None while ``total`` is zero.
    """

    def interval(t: "EmpiricalTotals") -> Optional[list[float]]:
        n = getattr(t, total)
        return list(wilson_ci(getattr(t, count), n, Z99)) if n else None

    return property(lambda t: ratio_or_nan(getattr(t, count), getattr(t, total))), property(interval)


@dataclass
class EmpiricalTotals:
    """The independent counts and sums of one Monte Carlo pass; every other number derives from them.

    Squared currents are pooled at the low-resistor end and the
    high-resistor end across both secure orientations, so LH and HL periods
    reinforce rather than cancel.  Eve attacks the secure periods: every
    reading is a trial, ``n_correct`` counts the periods whose first answer
    within the budget names the key bit, and ``measurements_hist[k]`` counts
    the periods first answered at reading ``k`` (1-based), so it has one
    entry more than the budget of readings.  Sums of squares are in the
    pass's current unit.
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
        return ratio_or_nan(int(readings @ self.measurements_hist), self.n_answered)


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
    """One streaming pass over every seeded block: protocol, alarm, attack, optional trace CSV to ``trace``.

    Each chunk is reduced to its totals on the thread that computed it (see
    :func:`iter_period_blocks` for when that is a pool thread); this thread
    merges them and writes the CSV header, then the rows in chunk order, so
    the thread layout cannot change a bit of the result.  Currents are in
    one unit of 2**-m amperes (:func:`~kljnsim.circuit.current_exponent`):
    Eve's norm constant is scaled by 4**-m, the trace CSV's currents by 2**-m.
    """
    m = current_exponent(cfg.network, cfg.noise)
    cal = calibrate(cfg.network, cfg.noise)
    # times 4**-m in two steps, exact where normal, so no OverflowError
    cal = replace(cal, norm_constant=cal.norm_constant / 2.0**m / 2.0**m)
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
        if not keep_block:
            return totals, None
        np.ldexp(block.i_alice, -m, out=block.i_alice)  # the trace CSV writes true units
        if block.i_bob is not block.i_alice:  # without a shunt one array holds both ends
            np.ldexp(block.i_bob, -m, out=block.i_bob)
        return totals, block

    totals = EmpiricalTotals(np.zeros(budget + 1, dtype=np.int64))
    if keep_block:
        trace.write(_TRACE_HEADER)
    chunks = iter_period_blocks(
        cfg.n_bits, cfg.network, cfg.noise, cfg.samples_per_bit, cfg.master_seed, per_chunk, keep_block, m
    )
    for part, block in chunks:
        if block is not None:
            _write_trace_rows(trace, block, totals.n_bits)
        totals.merge(part)
    return totals
