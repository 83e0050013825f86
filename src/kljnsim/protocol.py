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
the alarm sweep.  Eve's threshold rule reads the blocks where each chunk
is reduced (:func:`kljnsim.montecarlo.block_totals`).

Periods are simulated in blocks: a chunk of ``K`` consecutive periods is
one ``(K, n)`` array per observable, drawn from one keyed random stream
(RNG layout 2, see :func:`iter_period_blocks`).  Every chunk can be
produced on its own, so a pass may compute a slice of the chunks in a
second process (:mod:`kljnsim.montecarlo` decides when); the blocks depend
only on the seed and the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .circuit import NetworkConfig, NoiseSpec, connection_records
from .config import AlarmPolicy
from .noise import SeededStream, band_limited_stream, gaussian_stream


def _solve(u_alice, u_bob, coefficients, shared: bool, node: bool):
    """``(i_alice, i_bob, v_node)`` by the six coefficient arrays of the records; ``i_b is i_a`` when ``shared``."""
    aa, ab, ba, bb, na, nb = coefficients
    i_a = u_alice * aa + u_bob * ab
    i_b = i_a if shared else u_alice * ba + u_bob * bb
    return i_a, i_b, u_alice * na + u_bob * nb if node else None


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


# The chunk of RNG layout 2 (``reporting.RNG_LAYOUT``): one keyed stream per
# CHUNK_SAMPLES samples of whole periods.
CHUNK_SAMPLES = 8192


def chunk_periods(n_samples: int) -> int:
    """``K``, the periods in a chunk of RNG layout 2: as many whole periods as fit in ``CHUNK_SAMPLES``, at least 1."""
    return max(1, CHUNK_SAMPLES // n_samples)


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
    solved with the transfer record of its own connection, indexed once per
    block by the picks from the network's table
    (:func:`~kljnsim.circuit.connection_records`), whose current
    coefficients are scaled by ``2**exponent`` (the pass's unit); the block
    carries the node voltage, unscaled, only with ``node``.  Without a shunt
    the same current flows at both ends, and the block holds one array for
    both (``i_bob is i_alice``); the trace CSV writer converts it to text
    once.
    """
    low_high_resistors(net)  # the ends must hold a pair of distinct resistors
    rows = int(alice_high.size)
    if noise.mode == "independent":
        u_a = gaussian_stream(rng, rows, n_samples)
        u_b = gaussian_stream(rng, rows, n_samples)
    else:
        u_a = band_limited_stream(rng, noise, rows, n_samples)
        u_b = band_limited_stream(rng, noise, rows, n_samples)
    records = np.array(connection_records(net, noise))
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
    node: bool = False,
    exponent: int = 0,
    chunks: slice = slice(None),
) -> Iterator[PeriodBlock]:
    """Yield the block of each chunk of ``n_bits`` seeded periods that ``chunks`` selects, in chunk order.

    Chunk ``c`` holds periods ``c*K`` to ``(c+1)*K - 1`` with
    ``K = max(1, CHUNK_SAMPLES // n_samples)`` (:func:`chunk_periods`; the
    last chunk may be shorter), and ``chunks`` slices the chunk numbers
    (``slice(1, None, 2)``: the odd ones).  Its stream ``(master_seed, c)``
    draws the ``(K, 2)`` fair resistor picks first, then the noise, so every
    chunk can be produced on its own and the result depends only on the seed
    and the config, never on the machine or the process that computes it.
    The blocks carry the node voltage only with ``node``, and currents times
    ``2**exponent``.
    """
    k = chunk_periods(n_samples)
    firsts = range(0, n_bits, k)
    for c in range(len(firsts))[chunks]:
        rng = SeededStream(master_seed, c).generator()
        picks = rng.integers(0, 2, size=(min(k, n_bits - firsts[c]), 2)).astype(bool)
        yield run_periods(picks[:, 0], picks[:, 1], net, noise, n_samples, rng, node, exponent)


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
