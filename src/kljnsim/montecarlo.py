"""The Monte Carlo pass of ``simulate``: its totals and the trace CSV.

The pass reduces every chunk to one flat record of independent counts and
sums (:class:`EmpiricalTotals`); Eve's threshold rule is applied in that
reduction (:func:`block_totals`).  With a binary trace stream, the pass
also dumps every sample as CSV, whose numbers :mod:`kljnsim.reprtext`
turns into ASCII.  Every chunk is one stream of messages, its CSV byte
slices on a traced pass and then its totals, made the same way in either
process and written and merged by one loop.  On Linux with two or more
CPUs, a traced pass or a pass of at least ``FORK_MIN_SAMPLES`` samples forks
one worker (:mod:`kljnsim.worker`), and the two processes claim chunks from
one shared counter as they go (see :func:`_splits`).  A pass on Linux also
raises glibc's heap thresholds (:func:`_keep_heap`), a setting that lasts
for the rest of the process.
This module and the engine it drives (:mod:`kljnsim.protocol`,
:mod:`kljnsim.noise`, :mod:`kljnsim.reprtext`, :mod:`kljnsim.worker`) are
the only ones that import numpy; :mod:`kljnsim.reporting` derives every
rate, interval and mean of the report from the totals.
"""

from __future__ import annotations

import ctypes
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from typing import BinaryIO, Iterator, Optional, Union

import numpy as np

from .circuit import current_exponent
from .config import ExperimentConfig
from .noise import SeededStream
from .protocol import CHUNK_SAMPLES, PeriodBlock, alarm_sweep, chunk_periods, period_block
from .stats import EveCalibration, calibrate

_TRACE_HEADER = b"period,sample,i_alice,i_bob,v_node\r\n"
# Smallest pass, in samples (bits times samples per bit), for which an untraced
# pass forks a worker.  The fork costs about 7 ms per pass (the worker's import, the
# fork call, reaping it, and copy-on-write faults in both processes), which smaller
# passes do not win back; see the crossover table in BENCH_30.json.  A traced pass
# forks from 2 chunks.
FORK_MIN_SAMPLES = 1 << 18
# glibc's mallopt parameters and the largest values its dynamic thresholds reach on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _keep_heap() -> None:
    """Keep each chunk's freed arrays on the heap for the next chunk, for the rest of this process.

    glibc sets its mmap threshold to the size of the first large block freed,
    and its trim threshold to twice that.  A long waveform chunk first frees a
    402 KB white-noise array, so glibc would hand the top of its 1.2 MB heap
    back to the kernel after every chunk and fault it in again in the next.
    This sets both thresholds to the highest values the dynamic rule reaches
    (32 MiB and 64 MiB) before the first free.  The setting is the process's
    own and lasts until it exits; a forked worker inherits it.  Off Linux, or
    where the C library has no ``mallopt``, it does nothing.
    """
    if sys.platform != "linux":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # the loaded C library; find_library would spawn processes
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _trace_rows(block: PeriodBlock, first_period: int, exponent: int) -> Iterator[bytes]:
    """The CSV rows of ``block``, one per sample in period order and numbered from ``first_period``, as ASCII bytes.

    No field ever needs quoting (integers and the ``repr`` text of floats),
    so the bytes are those that ``csv.writer``'s excel dialect writes.  The
    block's currents, in the pass's unit of 2**-exponent amperes, are written
    in amperes; the block itself is never written to.  Rows are converted in
    numpy and yielded a slice of at most ``CHUNK_SAMPLES // 4`` at a time, so
    the buffers stay small however long a period is.  A loop without a shunt
    carries one current, and :func:`~kljnsim.protocol.run_periods` then gives
    the block one array for both ends, whose text fills both columns.
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

    def text(start: int, stop: int) -> bytes:
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
        values = np.stack([c[start:stop] for c in columns], axis=-1)  # a copy: the block stays as computed
        np.ldexp(values[:, :-1], -exponent, out=values[:, :-1])
        if shared:
            write_floats(fields[:, ::2], values)
            # Bob's text is Alice's, copied as one item per slot rather than word by word.  The
            # dtype is named by a string: numpy makes a void dtype from a tuple through a Python
            # ctypes check whose exceptions it clears, so an interrupt landing there was lost
            slots = words[:, head:].view(f"V{8 * SLOT_WORDS}")
            slots[:, 1] = slots[:, 0]
        else:
            write_floats(fields, values)
        for j, separator in enumerate(separators):
            fields[:, j, -1] |= separator
        return words.tobytes().translate(None, b"\0")

    slice_rows = CHUNK_SAMPLES // 4
    for start in range(0, block.n_periods * n, slice_rows):
        yield text(start, min(start + slice_rows, block.n_periods * n))


@dataclass
class EmpiricalTotals:
    """The independent counts and sums of one Monte Carlo pass; :mod:`kljnsim.reporting` derives the rest.

    Squared currents are pooled at the low-resistor end and the
    high-resistor end across both secure orientations, so LH and HL periods
    reinforce rather than cancel.  Eve attacks the secure periods: every
    reading is a trial, ``n_correct`` counts the periods whose first answer
    within the budget names the key bit, and ``measurements_hist[k]`` counts
    the periods first answered at reading ``k`` (1-based), so it has one
    entry more than the budget of readings.  Her current comparison, over
    every reading of a period, errs in ``n_comparison_error`` secure periods
    and ties in ``n_comparison_no_answer``.  Sums of squares are in the
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
    n_comparison_error: int = 0
    n_comparison_no_answer: int = 0

    def merge(self, part: "EmpiricalTotals") -> None:
        """Add one chunk's totals; merging in chunk order fixes the order of every float sum."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(part, f.name))

    def __eq__(self, other: object) -> bool:
        """Equal counts and sums, the histogram compared entry by entry."""
        return isinstance(other, EmpiricalTotals) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


def block_totals(block: PeriodBlock, cal: EveCalibration, max_measurements: int) -> EmpiricalTotals:
    """Period counts, secure-period moments and Eve's counts of one block; the alarm fields stay 0.

    Eve attacks the secure rows, reading both end currents at one instant,
    one correlation time (``measurement_stride`` samples) apart.  She
    scales each reading's square by her norm constant, the reciprocal of
    the public mean square at the high-resistance end, and compares it with
    her threshold at the moment ratio (:func:`~kljnsim.stats.calibrate`;
    currents in a unit of 2**-m need the norm constant times 4**-m).  A
    reading answers when exactly one end exceeds the threshold: that end
    holds the low resistor.  Readings equal to the threshold answer nothing,
    and on an intact single loop, whose two readings are one current, no
    reading ever answers.  Every reading is a standalone trial; then she
    repeats readings until one answers.  A period with no answer within
    ``max_measurements`` readings counts as given up, never silently guessed.
    Her current comparison sums each end's scaled squares over every reading
    of the period and names the end with the larger sum as the low
    resistor's; equal sums answer nothing.
    """
    secure = np.flatnonzero(block.secure)
    i_a, i_b, key_bit = block.i_alice, block.i_bob, block.alice_high  # key bit 1 when Alice holds the high resistor
    if secure.size < block.n_periods:
        i_a, i_b, key_bit = i_a[secure], i_b[secure], key_bit[secure]
    stride = block.measurement_stride
    x = np.stack((i_a[:, ::stride], i_b[:, ::stride]))
    x *= x
    x *= cal.norm_constant
    xa, xb = x
    t = cal.threshold
    alice_low = (xa > t) & (xb < t)
    bob_low = (xb > t) & (xa < t)
    answered = alice_low[:, :max_measurements] | bob_low[:, :max_measurements]
    has = answered.any(axis=1)
    first = answered.argmax(axis=1)[has]
    # the first answer names Alice's end as low, bit 0, or Bob's, bit 1
    correct = alice_low[has, first] != key_bit[has]
    sum_a, sum_b = x.sum(axis=2)
    # the high resistor sits at Bob's end on LH rows, at Alice's on HL rows
    comparison_errs = np.where(key_bit, sum_a > sum_b, sum_b > sum_a)
    n_alice_low = np.count_nonzero(alice_low, axis=1)
    n_bob_low = np.count_nonzero(bob_low, axis=1)
    success = np.where(key_bit, n_bob_low, n_alice_low)
    error = np.where(key_bit, n_alice_low, n_bob_low)
    sq_a = np.einsum("ij,ij->i", i_a, i_a)
    sq_b = np.einsum("ij,ij->i", i_b, i_b)
    # the low resistor sits at Alice's end on LH rows, at Bob's on HL rows
    low_end_sq_sum = float(np.where(key_bit, sq_b, sq_a).sum())
    high_end_sq_sum = float(np.where(key_bit, sq_a, sq_b).sum())
    return EmpiricalTotals(
        np.bincount(first + 1, minlength=max_measurements + 1),
        n_bits=block.n_periods,
        n_secure=secure.size,
        n_hl=int(np.count_nonzero(key_bit)),
        low_end_sq_sum=low_end_sq_sum,
        high_end_sq_sum=high_end_sq_sum,
        n_trials=secure.size * alice_low.shape[1],
        n_success=int(success.sum()),
        n_error=int(error.sum()),
        hl_successes=int(success[key_bit].sum()),
        n_correct=int(np.count_nonzero(correct)),
        n_comparison_error=int(np.count_nonzero(comparison_errs)),
        n_comparison_no_answer=int(np.count_nonzero(sum_a == sum_b)),
    )


def available_workers() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset`` sets (Linux only)."""
    return len(os.sched_getaffinity(0))


def _splits(pass_samples: int, n_chunks: int, traced: bool) -> bool:
    """Whether a pass of ``n_chunks`` chunks and ``pass_samples`` samples in all forks a worker that claims chunks.

    It does on Linux, with at least 2 CPUs in the process's affinity mask and
    at least 2 chunks, when it writes a trace CSV (text conversion is most of
    a trace's cost) or it holds at least ``FORK_MIN_SAMPLES`` samples.
    """
    return (
        sys.platform == "linux"
        and n_chunks >= 2
        and (traced or pass_samples >= FORK_MIN_SAMPLES)
        and available_workers() >= 2
    )


def monte_carlo_pass(cfg: ExperimentConfig, trace: Optional[BinaryIO] = None) -> EmpiricalTotals:
    """One streaming pass over every seeded block: protocol, alarm, attack, optional trace CSV to ``trace``.

    Each chunk is a stream of messages: on a traced pass its CSV byte
    slices, then its totals, which end it; ``messages(c)`` makes chunk
    ``c``'s stream from its own seeded block.  A pass that splits
    (:func:`_splits`) forks one worker (:mod:`kljnsim.worker`), and each
    process claims the next unclaimed chunk whenever it needs one; every
    chunk's random stream is built in this process before the fork.  One loop
    in this process writes the CSV header, then every chunk's bytes, and
    merges every chunk's totals, all in chunk order, so the split cannot
    change a bit of the result.  Currents are in one unit of 2**-m amperes
    (:func:`~kljnsim.circuit.current_exponent`): Eve's norm constant is
    scaled by 4**-m, the trace CSV's currents by 2**-m.
    """
    m = current_exponent(cfg.network, cfg.noise)
    cal = calibrate(cfg.network, cfg.noise)
    # times 4**-m in two steps, exact where normal, so no OverflowError
    cal = cal._replace(norm_constant=cal.norm_constant / 2.0**m / 2.0**m)
    traced = trace is not None
    # no first answer lands past the readings a period holds, so a larger budget acts as that many
    budget = min(cfg.max_measurements, cfg.readings)
    k = chunk_periods(cfg.samples_per_bit)
    n_chunks = len(range(0, cfg.n_bits, k))

    streams: list = []  # every chunk's random stream, on a pass that splits

    def messages(c: int) -> Iterator[Union[bytes, EmpiricalTotals]]:
        """Chunk ``c``'s messages: its CSV byte slices on a traced pass (periods from ``c * k``), then its totals."""
        rng = streams[c] if streams else SeededStream(cfg.master_seed, c).generator()
        block = period_block(cfg.n_bits, cfg.network, cfg.noise, cfg.samples_per_bit, c, rng, traced, m)
        totals = block_totals(block, cal, budget)
        alarm = alarm_sweep(block, cfg.alarm)
        secure = block.secure
        totals.n_alarms = int(np.count_nonzero(alarm.triggered))
        totals.n_alarms_secure = int(np.count_nonzero(alarm.triggered & secure))
        totals.rel_difference_sum = float(alarm.rel_difference[secure].sum())
        if traced:
            yield from _trace_rows(block, c * k, m)
        yield totals

    _keep_heap()  # before the first chunk frees anything, and before the fork
    totals = EmpiricalTotals(np.zeros(budget + 1, dtype=np.int64))
    if traced:
        trace.write(_TRACE_HEADER)
    split = None
    if _splits(cfg.n_bits * cfg.samples_per_bit, n_chunks, traced):
        from .worker import in_chunk_order  # only a split pass needs the worker

        # Either process may claim any chunk, so this one builds every chunk's stream
        # before the fork (about 16 us each, 2-CPU x86 VM): it then builds the same
        # streams however the chunks fall, and a count of them (bench/layers.py) is
        # the same from run to run.  The first build loads numpy.random, which the
        # worker then inherits.
        streams.extend(SeededStream(cfg.master_seed, c).generator() for c in range(n_chunks))
        split = in_chunk_order(messages, n_chunks)  # None where the chunks cannot be shared: one CPU
    # one CPU: a chunk's arrays are freed before the next chunk's are drawn
    with split or nullcontext(message for c in range(n_chunks) for message in messages(c)) as in_order:
        for message in in_order:
            if isinstance(message, bytes):
                trace.write(message)
            else:
                totals.merge(message)
    return totals
