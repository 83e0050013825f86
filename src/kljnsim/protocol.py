"""KLJN bit exchange over the loop model, with resistor picks as boolean arrays.

The two end resistors of the network are the public pair {R_low, R_high}.
Each bit period both parties connect one of them at random (``alice_high``,
``bob_high``) and drive the loop with Johnson noise of the connected
resistors.  Opposite picks are the secure periods and carry the key bit
``alice_high``; equal picks are generated and then discarded, so
secure-fraction statistics stay observable.  A current-comparison alarm
watches for the broken-loop signature: sustained inequality of the two end
currents, which an intact single loop can never produce.

This module is part of the numpy engine, which only ``simulate`` loads:
the solve of the loop by its transfer record, the blocks of periods and
the alarm sweep.

Periods are simulated in blocks: a chunk of ``K`` consecutive periods is
one ``(K, n)`` array per observable, drawn from one keyed random stream
(RNG layout 2, see :func:`iter_period_blocks`).  Chunks of at least
``POOL_MIN_SAMPLES`` samples (single periods that long) are computed on a
thread pool, one thread per CPU that the process may run on, at most
``POOL_MAX_WORKERS``; ``taskset`` limits them further.  numpy releases the
GIL in the normal draws, the waveform filter and the large array
operations.  Results come back in chunk order and are tested
bit-identical at any worker count.
"""

from __future__ import annotations

import functools
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .circuit import AttenuatorConfig, NetworkConfig, NoiseSpec, transfer
from .config import AlarmPolicy
from .noise import SeededStream, band_limited_stream, gaussian_stream, johnson_rms


def solve_network(
    u_alice, u_bob, r_alice, r_bob, pad: AttenuatorConfig | None, noise: NoiseSpec | None = None, *, node=True
):
    """End currents and shunt-node voltage for instantaneous source values, by the transfer record.

    ``r_alice``/``r_bob`` are the end resistors connected behind ``pad``;
    each element is solved with the record of its own pair of resistors
    (:func:`~kljnsim.circuit.transfer`), series elements kept.  Without
    ``noise`` the sources are voltages; with it they are unit-variance
    draws, and each source's Johnson RMS is folded into its coefficients.
    Accepts scalars or numpy arrays that broadcast together (elementwise),
    and never writes to its inputs; returns ``(i_alice, i_bob, v_node)``,
    with ``v_node`` None unless ``node``.  Without a shunt the same current
    flows at both ends by construction, and ``i_alice is i_bob``: one array
    (or scalar) is returned for both, with or without series elements; the
    trace CSV writer relies on it to convert that current to text once.
    With a shunt the currents are distinct arrays.
    """
    shared = pad is None or pad.r_shunt is None
    return _solve(u_alice, u_bob, _coefficients(r_alice, r_bob, pad, noise), shared, node)


def _solve(u_alice, u_bob, coefficients, shared: bool, node: bool):
    """:func:`solve_network` by the six coefficient arrays of the transfer records; ``i_b is i_a`` when ``shared``."""
    aa, ab, ba, bb, na, nb = coefficients
    i_a = u_alice * aa + u_bob * ab
    i_b = i_a if shared else u_alice * ba + u_bob * bb
    return i_a, i_b, u_alice * na + u_bob * nb if node else None


def _coefficients(r_alice, r_bob, pad: AttenuatorConfig | None, noise: NoiseSpec | None) -> np.ndarray:
    """The six entries of each element's transfer record, stacked on a new first axis."""
    values = tuple(sorted(set(np.ravel(r_alice).tolist()) | set(np.ravel(r_bob).tolist())))
    resistors, records = _records(values, pad, noise)
    return np.moveaxis(records[np.searchsorted(resistors, r_alice), np.searchsorted(resistors, r_bob)], -1, 0)


@functools.lru_cache(maxsize=64)
def _records(values: tuple, pad: AttenuatorConfig | None, noise: NoiseSpec | None) -> tuple[np.ndarray, np.ndarray]:
    """``values`` as an array, and the record of every pair of them, ``records[i, j]`` for Alice at ``values[i]``.

    In the engine the values are the public pair, so a run builds four records.
    """
    rms = [1.0] * len(values) if noise is None else johnson_rms(np.array(values), noise).tolist()
    pairs = [[transfer(a, b, pad, rms_a, rms_b) for b, rms_b in zip(values, rms)] for a, rms_a in zip(values, rms)]
    resistors, records = np.array(values), np.array(pairs)
    resistors.flags.writeable = records.flags.writeable = False  # cached, so shared by every caller
    return resistors, records


def low_high_resistors(net: NetworkConfig) -> tuple[float, float]:
    """The public pair ``(r_low, r_high)``: the network's two end resistors, sorted."""
    if net.r_alice == net.r_bob:
        raise ValueError("network.r_alice and network.r_bob must differ to form a resistor pair")
    return min(net.r_alice, net.r_bob), max(net.r_alice, net.r_bob)


@dataclass(frozen=True, eq=False)
class AlarmReport:
    """Outcome of the alarm sweep over a block of bit periods, one entry per row.

    ``rel_difference`` is the windowed |<i_A^2>-<i_B^2>|/max of the
    triggering window, or the largest value seen when nothing triggered.
    ``first_trigger_sample`` indexes the sample that completed the first
    offending window, and is -1 where nothing triggered.
    """

    triggered: np.ndarray
    first_trigger_sample: np.ndarray
    rel_difference: np.ndarray


@dataclass(frozen=True, eq=False)
class PeriodBlock:
    """Everything observable (and the hidden truth) of ``K`` bit periods.

    ``alice_high``/``bob_high`` are the ``(K,)`` resistor picks (True for
    the high resistor).  Sample arrays are ``(K, n)``: the instantaneous end
    currents and shunt-node voltage, one row per period; ``v_node`` is None
    unless the block was asked for it (only the trace CSV reads it).
    ``measurement_stride`` is how many samples apart independent attack
    readings sit (1 in independent mode, the oversampling factor in
    waveform mode).
    """

    alice_high: np.ndarray
    bob_high: np.ndarray
    i_alice: np.ndarray
    i_bob: np.ndarray
    v_node: Optional[np.ndarray]
    measurement_stride: int = 1

    @property
    def n_periods(self) -> int:
        return int(self.alice_high.size)

    @property
    def n_samples(self) -> int:
        """Samples per period."""
        return int(self.i_alice.shape[1])

    @property
    def secure(self) -> np.ndarray:
        """``(K,)`` mask of the rows with opposite picks (LH/HL)."""
        return self.alice_high != self.bob_high

    def secure_rows(self) -> "PeriodBlock":
        """The block restricted to its LH/HL rows (itself when every row is secure)."""
        index = np.flatnonzero(self.secure)
        if index.size == self.n_periods:
            return self
        return PeriodBlock(
            self.alice_high[index],
            self.bob_high[index],
            self.i_alice[index],
            self.i_bob[index],
            None if self.v_node is None else self.v_node[index],
            self.measurement_stride,
        )


# The chunk of RNG layout 2 (``reporting.RNG_LAYOUT``): one keyed stream per
# CHUNK_SAMPLES samples of whole periods.
CHUNK_SAMPLES = 8192
# Smallest chunk worth a thread.  Going from 1 to 2 threads, the Monte Carlo
# pass ran 0.92-1.33x on chunks of about 8192 samples, 1.06-1.54x on 16384
# and 1.40-1.72x from 32768 up (two crossover tables in BENCH_6.json).
# Every multi-period chunk holds at most CHUNK_SAMPLES samples, so only long
# single periods reach the pool.
POOL_MIN_SAMPLES = 4 * CHUNK_SAMPLES
# Most threads a pool gets.  Speedup and peak memory were measured up to 2
# threads only; each extra thread holds one more chunk's working set.
POOL_MAX_WORKERS = 2


def available_workers() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset`` sets."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_periods(
    alice_high: np.ndarray,
    bob_high: np.ndarray,
    net: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    rng: np.random.Generator,
    node: bool = False,
    exponent: int = 0,
) -> PeriodBlock:
    """Simulate one block of periods with the given picks, drawing all noise from ``rng``.

    Alice's noise for every row is drawn first, then Bob's.  Source
    voltages sit at the Johnson RMS of each party's connected resistor.
    The pad elements are treated as noiseless: their physical temperature
    is negligible against the generators' effective one.  Every row is
    solved with the transfer record of its own end resistors, looked up
    once per block, whose current coefficients are scaled by
    ``2**exponent`` (the pass's unit); the block carries the node voltage,
    unscaled, only with ``node``.
    """
    r_low, r_high = low_high_resistors(net)
    rows = int(alice_high.size)
    if noise.mode == "independent":
        u_a = gaussian_stream(rng, rows, n_samples)
        u_b = gaussian_stream(rng, rows, n_samples)
    else:
        u_a = band_limited_stream(rng, noise, rows, n_samples)
        u_b = band_limited_stream(rng, noise, rows, n_samples)
    _, records = _records((r_low, r_high), net.pad, noise)
    coefficients = records[alice_high.astype(np.intp), bob_high.astype(np.intp)]
    np.ldexp(coefficients[:, :4], exponent, out=coefficients[:, :4])
    coefficients = coefficients.T[:, :, None]  # six (rows, 1) columns
    # the draws become the currents, CHUNK_SAMPLES samples at a time, so the
    # solve of a long period needs no full-length array beyond the two draws
    shared = net.r_shunt is None
    v = np.empty_like(u_a) if node else None
    for start in range(0, n_samples, CHUNK_SAMPLES):
        samples = np.s_[:, start : start + CHUNK_SAMPLES]
        i_a, i_b, v_part = _solve(u_a[samples], u_b[samples], coefficients, shared, node)
        u_a[samples] = i_a
        if not shared:
            u_b[samples] = i_b
        if node:
            v[samples] = v_part
    return PeriodBlock(alice_high, bob_high, u_a, u_a if shared else u_b, v, noise.measurement_stride)


def iter_period_blocks(
    n_bits: int,
    net: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    master_seed: int,
    per_chunk: Callable[[PeriodBlock], object],
    node: bool = False,
    exponent: int = 0,
) -> Iterator:
    """Yield ``per_chunk`` of each chunk of ``n_bits`` seeded periods, in chunk order.

    Chunk ``c`` holds periods ``c*K`` to ``(c+1)*K - 1`` with
    ``K = max(1, CHUNK_SAMPLES // n_samples)`` (the last chunk may be
    shorter).  Its stream ``(master_seed, c)`` draws the ``(K, 2)`` fair
    resistor picks first, then the noise, so every chunk can be produced on
    its own and the result depends only on the seed and the config, never
    on the machine or the worker layout.  The blocks carry the node voltage
    only with ``node``, and currents times ``2**exponent``.

    ``per_chunk`` runs on the thread that computed the chunk's block.
    Chunks of at least ``POOL_MIN_SAMPLES`` samples run on a pool of
    :func:`available_workers` threads, capped at ``POOL_MAX_WORKERS`` and at
    the number of chunks, with at most one chunk more than threads in
    flight; shorter chunks run inline.  Either way results are yielded in
    chunk order.
    """
    k = max(1, CHUNK_SAMPLES // n_samples)
    firsts = range(0, n_bits, k)

    def chunk(c: int):
        rng = SeededStream(master_seed, c).generator()
        picks = rng.integers(0, 2, size=(min(k, n_bits - firsts[c]), 2)).astype(bool)
        return per_chunk(run_periods(picks[:, 0], picks[:, 1], net, noise, n_samples, rng, node, exponent))

    workers = min(available_workers(), POOL_MAX_WORKERS, len(firsts))
    if workers < 2 or k * n_samples < POOL_MIN_SAMPLES:
        yield from map(chunk, range(len(firsts)))
        return
    from concurrent.futures import ThreadPoolExecutor  # short runs skip this import

    pool = ThreadPoolExecutor(workers)
    pending: deque = deque()
    try:
        for c in range(len(firsts)):
            pending.append(pool.submit(chunk, c))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)  # an abandoned pass starts no further chunk


def _window_means(
    x: np.ndarray, w: int, start: int, stop: int, carry: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Means of ``x**2`` over the length-``w`` windows ``start <= j < stop`` along axis 1.

    ``carry`` is the running sum of ``x**2`` up to sample ``start - 1``
    (zeros when ``start`` is 0).  Returns the means and the carry for the
    windows that start at ``stop``.  The running sum is accumulated sample by
    sample from the carry, so it is bit-identical to one cumsum over the row.
    """
    c = np.empty((x.shape[0], stop - start + w))
    c[:, 0] = carry
    seg = x[:, start : stop + w - 1]
    np.multiply(seg, seg, out=c[:, 1:])
    np.cumsum(c, axis=1, out=c)
    out = np.subtract(c[:, w:], c[:, :-w])
    out /= w
    return out, c[:, stop - start]


def alarm_sweep(block: PeriodBlock, policy: AlarmPolicy) -> AlarmReport:
    """Slide a window over each row's squared end currents and compare their means.

    A row fires at the first window whose relative mean-square difference
    exceeds the tolerance; every period holds at least one window (the
    config requires ``samples_per_bit >= alarm.window``).  A true single
    loop can never fire for any tolerance, because the two end currents are
    one and the same current.  Windows are compared ``CHUNK_SAMPLES`` at a
    time, so a long period needs no full-length work array, and the sweep
    stops after the step in which its last row fired, so a period costs the
    windows up to its first trigger.  A fired row keeps the sample and
    difference of its firing window, so the reported fields are those of a
    sweep over every window.  Relative differences are the same in any
    current unit; in the pass's unit the running sums stay finite.
    """
    w = policy.window
    n = block.n_samples
    rows = np.arange(block.n_periods)
    triggered = np.zeros(rows.size, dtype=bool)
    first = np.full(rows.size, -1)
    rel_difference = np.full(rows.size, -np.inf)
    carry_a = carry_b = np.zeros(rows.size)
    for start in range(0, n - w + 1, CHUNK_SAMPLES):
        stop = min(start + CHUNK_SAMPLES, n - w + 1)
        win_a, carry_a = _window_means(block.i_alice, w, start, stop, carry_a)
        win_b, carry_b = _window_means(block.i_bob, w, start, stop, carry_b)
        rel = np.subtract(win_a, win_b)
        np.abs(rel, out=rel)
        peak = np.maximum(win_a, win_b, out=win_a)
        np.divide(rel, peak, out=rel, where=peak > 0)  # |a-b| is already 0 where both are 0
        hits = rel > policy.rel_tolerance
        fires = hits.any(axis=1) & ~triggered
        at = hits.argmax(axis=1)
        first = np.where(fires, at + (start + w - 1), first)
        # a row that has not fired reports the largest difference seen so far
        seen = np.maximum(rel_difference, rel.max(axis=1))
        rel_difference = np.where(triggered, rel_difference, np.where(fires, rel[rows, at], seen))
        triggered |= fires
        if triggered.all():  # a fired row reads no later window
            break
    return AlarmReport(triggered=triggered, first_trigger_sample=first, rel_difference=rel_difference)
