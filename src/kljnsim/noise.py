"""Seeded Johnson-noise sample streams for the two noise generators.

Alice's and Bob's sources are Gaussian voltage generators whose RMS follows
the 4kTRB thermal-noise law at a (typically emulated, very large) effective
temperature.  Two sampling modes are supported:

* ``independent`` -- every sample is an independent draw, so one sample
  stands for one correlation time of the band-limited physical noise.
  This is the default and what all headline statistics use.
* ``waveform`` -- oversampled band-limited waveform, kept around to
  sanity-check the correlation-time accounting of the independent mode.

All randomness is derived from a single master seed through keyed
``SeedSequence`` streams, one per fixed-size chunk of bit periods, so
results never depend on worker count or evaluation order.  Long chunks are
drawn and filtered on a thread pool; :mod:`kljnsim.protocol` describes it.
The streams are part of the numpy engine, which only ``simulate`` loads;
their settings (:class:`kljnsim.circuit.NoiseSpec`) are not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import NoiseSpec

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SeededStream:
    """Handle for one reproducible substream of the master seed.

    Identical ``(master_seed, stream_id)`` pairs yield bit-identical sample
    sequences no matter where or in which order streams are consumed.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        entropy = (self.master_seed & _MASK64, self.stream_id)
        return np.random.default_rng(np.random.SeedSequence(entropy))


def johnson_rms(r, spec: NoiseSpec):
    """RMS voltage of the thermal source of a resistance ``r`` (scalar or array): sqrt(4kTrB)."""
    return np.sqrt(spec.unit_scale * r)


def gaussian_stream(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """``(rows, n)`` i.i.d. standard-normal samples drawn from ``rng``."""
    return rng.standard_normal((rows, n))


@functools.lru_cache(maxsize=None)
def lowpass_kernel(oversample: int) -> np.ndarray:
    """Unit-energy windowed-sinc low-pass used by waveform mode.

    Cutoff sits at the noise bandwidth, i.e. 1/(2*oversample) cycles per
    sample.  The tap count scales with the oversampling factor so that
    samples one correlation time apart stay nearly uncorrelated
    (lag-correlation about 0.026 at the default oversample of 8).  The
    kernel is built once per ``oversample`` and shared, so it is read-only.
    """
    taps = 32 * oversample + 1
    mid = (taps - 1) // 2
    fc = 1.0 / (2.0 * oversample)
    k = np.arange(taps) - mid
    h = 2.0 * fc * np.sinc(2.0 * fc * k) * np.hanning(taps)
    h /= math.sqrt(float(np.sum(h * h)))
    h.flags.writeable = False
    return h


def band_limited_stream(rng: np.random.Generator, spec: NoiseSpec, rows: int, n: int) -> np.ndarray:
    """``(rows, n)`` unit-variance Gaussian noise, each row band-limited to ``spec.bandwidth``.

    Each correlation time 1/(2B) holds ``spec.oversample`` samples.  All
    rows' white noise is drawn from ``rng`` in one call, then each row is
    shaped on its own by the unit-energy kernel, so every output sample has
    variance exactly 1 regardless of the kernel choice.
    """
    h = lowpass_kernel(spec.oversample)
    white = rng.standard_normal((rows, n + h.size - 1))
    if rows == 1:  # a single row is the filter's own output, with no copy
        return np.convolve(white[0], h, mode="valid")[None, :]
    out = np.empty((rows, n))
    for r in range(rows):
        out[r] = np.convolve(white[r], h, mode="valid")
    return out
