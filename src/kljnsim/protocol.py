"""KLJN bit exchange over the loop model, with resistor picks as boolean arrays.

The two end resistors of the network are the public pair {R_low, R_high}.
Each bit period both parties connect one of them at random (``alice_high``,
``bob_high``) and drive the loop with Johnson noise of the connected
resistors.  Opposite picks are the secure periods and carry the key bit
``alice_high``; equal picks are generated and then discarded, so
secure-fraction statistics stay observable.  A current-comparison alarm
watches for the broken-loop signature: sustained inequality of the two end
currents, which an intact single loop can never produce.

Periods are simulated in blocks: a chunk of ``K`` consecutive periods is
one ``(K, n)`` array per observable, drawn from one keyed random stream
(RNG layout 2, see :func:`iter_period_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuit import NetworkConfig, solve_network
from .noise import NoiseSpec, SeededStream, band_limited_stream, gaussian_stream, johnson_rms


def low_high_resistors(net: NetworkConfig) -> tuple[float, float]:
    """The public pair ``(r_low, r_high)``: the network's two end resistors, sorted."""
    if net.r_alice == net.r_bob:
        raise ValueError("network.r_alice and network.r_bob must differ to form a resistor pair")
    return min(net.r_alice, net.r_bob), max(net.r_alice, net.r_bob)


@dataclass(frozen=True)
class AlarmPolicy:
    """Current-comparison defense parameters: tolerance and window length."""

    rel_tolerance: float = 0.1
    window: int = 50

    def __post_init__(self) -> None:
        if not 0 < self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")


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
    currents and shunt-node voltage, one row per period.
    ``measurement_stride`` is how many samples apart independent attack
    readings sit (1 in independent mode, the oversampling factor in
    waveform mode).
    """

    alice_high: np.ndarray
    bob_high: np.ndarray
    i_alice: np.ndarray
    i_bob: np.ndarray
    v_node: np.ndarray
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
            self.v_node[index],
            self.measurement_stride,
        )


# Version of the mapping from (master_seed, config) to Monte Carlo samples.
# 1: one stream for all resistor picks plus two streams per period.
# 2: one stream per chunk of CHUNK_SAMPLES samples (picks, then Alice's and
#    Bob's noise for the whole chunk).
RNG_LAYOUT = 2
CHUNK_SAMPLES = 8192


def run_periods(
    alice_high: np.ndarray,
    bob_high: np.ndarray,
    net: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    rng: np.random.Generator,
) -> PeriodBlock:
    """Simulate one block of periods with the given picks, drawing all noise from ``rng``.

    Alice's noise for every row is drawn first, then Bob's.  Source
    voltages sit at the Johnson RMS of each party's connected resistor.
    The pad elements are treated as noiseless: their physical temperature
    is negligible against the generators' effective one.  The nodal solve
    runs once over the whole block, with each row's end resistors.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    r_low, r_high = low_high_resistors(net)
    rows = int(alice_high.size)
    if noise.mode == "independent":
        u_a = gaussian_stream(rng, rows, n_samples)
        u_b = gaussian_stream(rng, rows, n_samples)
    else:
        u_a = band_limited_stream(rng, noise, rows, n_samples)
        u_b = band_limited_stream(rng, noise, rows, n_samples)
    r_a = np.where(alice_high, r_high, r_low)[:, None]
    r_b = np.where(bob_high, r_high, r_low)[:, None]
    u_a *= johnson_rms(r_a, noise)
    u_b *= johnson_rms(r_b, noise)
    i_a, i_b, v = solve_network(u_a, u_b, r_a, r_b, net.pad)
    return PeriodBlock(alice_high, bob_high, i_a, i_b, v, noise.measurement_stride)


def iter_period_blocks(
    n_bits: int,
    net: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    master_seed: int,
) -> Iterator[PeriodBlock]:
    """Yield ``n_bits`` seeded periods in order, one chunk at a time.

    Chunk ``c`` holds periods ``c*K`` to ``(c+1)*K - 1`` with
    ``K = max(1, CHUNK_SAMPLES // n_samples)`` (the last chunk may be
    shorter).  Its stream ``(master_seed, c)`` draws the ``(K, 2)`` fair
    resistor picks first, then the noise, so every chunk can be produced on
    its own and the result depends only on the seed and the config, never
    on the machine or the worker layout.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    k = max(1, CHUNK_SAMPLES // n_samples)
    for chunk, first in enumerate(range(0, n_bits, k)):
        rng = SeededStream(master_seed, chunk).generator()
        picks = rng.integers(0, 2, size=(min(k, n_bits - first), 2)).astype(bool)
        yield run_periods(picks[:, 0], picks[:, 1], net, noise, n_samples, rng)


def _window_means(x: np.ndarray, w: int) -> np.ndarray:
    """Mean of ``x**2`` over every length-``w`` window along axis 1."""
    c = np.cumsum(x * x, axis=1)
    out = np.empty((c.shape[0], c.shape[1] - w + 1))
    out[:, 0] = c[:, w - 1]
    np.subtract(c[:, w:], c[:, :-w], out=out[:, 1:])
    out /= w
    return out


def alarm_sweep(block: PeriodBlock, policy: AlarmPolicy) -> AlarmReport:
    """Slide a window over each row's squared end currents and compare their means.

    A row fires at the first window whose relative mean-square difference
    exceeds the tolerance.  A true single loop can never fire for any
    tolerance, because the two end currents are one and the same current.
    """
    w = policy.window
    n = block.n_samples
    if n < w:
        raise ValueError(f"periods have {n} samples but the alarm window needs {w}")
    win_a = _window_means(block.i_alice, w)
    win_b = _window_means(block.i_bob, w)
    rel = np.subtract(win_a, win_b)
    np.abs(rel, out=rel)
    peak = np.maximum(win_a, win_b, out=win_a)
    np.divide(rel, peak, out=rel, where=peak > 0)  # |a-b| is already 0 where both are 0
    del win_a, win_b, peak  # long periods are memory-bound: free before the reductions
    hits = rel > policy.rel_tolerance
    triggered = hits.any(axis=1)
    first = hits.argmax(axis=1)
    rows = np.arange(rel.shape[0])
    return AlarmReport(
        triggered=triggered,
        first_trigger_sample=np.where(triggered, first + w - 1, -1),
        rel_difference=np.where(triggered, rel[rows, first], rel.max(axis=1)),
    )
