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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

BOLTZMANN = 1.380649e-23  # J/K
NORMALIZED = "normalized"

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class NoiseSpec:
    """Noise generator settings shared by both parties.

    ``t_eff`` is either an effective temperature in kelvin or the token
    ``"normalized"``, which pins the 4*k*T_eff*B product at exactly 1 so
    that simulated moments are directly comparable to dimensionless
    ratios and probabilities.
    """

    t_eff: float | str = NORMALIZED
    bandwidth: float = 1.0
    mode: str = "independent"
    oversample: int = 8

    def __post_init__(self) -> None:
        # each message starts with the field name; config parsing prefixes the section
        if isinstance(self.t_eff, str):
            if self.t_eff != NORMALIZED:
                raise ValueError(f"t_eff must be a temperature in K or {NORMALIZED!r}")
        elif not 0 < self.t_eff < math.inf:
            raise ValueError("t_eff must be finite and > 0")
        if not 0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and > 0")
        if self.mode not in ("independent", "waveform"):
            raise ValueError("mode must be 'independent' or 'waveform'")
        if self.oversample < 2:
            raise ValueError("oversample must be >= 2")
        if not 0.0 < self.unit_scale < math.inf:
            raise ValueError(
                f"t_eff and bandwidth give a noise scale 4*k*T_eff*B of {self.unit_scale!r}; "
                "it must be finite and > 0"
            )

    @property
    def normalized(self) -> bool:
        return isinstance(self.t_eff, str)

    @property
    def unit_scale(self) -> float:
        """The 4*k*T_eff*B product (exactly 1.0 in normalized mode)."""
        if self.normalized:
            return 1.0
        return 4.0 * BOLTZMANN * self.t_eff * self.bandwidth

    @property
    def measurement_stride(self) -> int:
        """Samples per correlation time, i.e. spacing of independent readings."""
        return 1 if self.mode == "independent" else self.oversample


@dataclass(frozen=True)
class SeededStream:
    """Handle for one reproducible substream of the master seed.

    Identical ``(master_seed, stream_id)`` pairs yield bit-identical sample
    sequences no matter where or in which order streams are consumed.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ValueError("stream_id must be >= 0")

    def generator(self) -> np.random.Generator:
        entropy = (self.master_seed & _MASK64, self.stream_id)
        return np.random.default_rng(np.random.SeedSequence(entropy))


def johnson_rms(r, spec: NoiseSpec):
    """RMS voltage of the thermal source of a resistance ``r`` (scalar or array): sqrt(4kTrB)."""
    return np.sqrt(spec.unit_scale * r)


def gaussian_stream(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """``(rows, n)`` i.i.d. standard-normal samples drawn from ``rng``."""
    if rows < 1 or n < 1:
        raise ValueError("rows and n must be >= 1")
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
    if spec.mode != "waveform":
        raise ValueError("band_limited_stream requires a waveform-mode NoiseSpec")
    if rows < 1 or n < 1:
        raise ValueError("rows and n must be >= 1")
    h = lowpass_kernel(spec.oversample)
    white = rng.standard_normal((rows, n + h.size - 1))
    out = np.empty((rows, n))
    for r in range(rows):
        out[r] = np.convolve(white[r], h, mode="valid")
    return out
