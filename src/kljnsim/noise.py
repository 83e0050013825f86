"""Seeded Johnson-noise sample streams for the two noise generators.

Alice's and Bob's sources are Gaussian voltage generators whose RMS follows
the 4kTRB thermal-noise law at a (typically emulated, very large) effective
temperature.  The streams here are unit-variance; each source's RMS
(:func:`kljnsim.circuit.johnson_rms`) is folded into the transfer records
that turn them into currents.  Two sampling modes are supported:

* ``independent`` -- every sample is an independent draw, so one sample
  stands for one correlation time of the band-limited physical noise.
  This is the default and what all headline statistics use.
* ``waveform`` -- oversampled band-limited waveform, kept around to
  sanity-check the correlation-time accounting of the independent mode.

All randomness is derived from a single master seed through keyed
``SeedSequence`` streams, one per fixed-size chunk of bit periods, so
results never depend on worker count or evaluation order: a pass may
compute every other chunk in a forked worker (:mod:`kljnsim.worker`).
The streams are part of the numpy engine, which only ``simulate`` loads;
their settings (:class:`kljnsim.circuit.NoiseSpec`) are not.  numpy loads
``numpy.random`` lazily; this module imports it, at the first
:meth:`SeededStream.generator` call or when :mod:`kljnsim.worker` loads,
through :func:`import_numpy_random`, which keeps OpenSSL out of the process.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import types
from dataclasses import dataclass
from importlib import import_module

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
        numpy_random = import_numpy_random()
        return numpy_random.default_rng(numpy_random.SeedSequence(entropy))


def import_numpy_random() -> types.ModuleType:
    """Import ``numpy.random`` without loading OpenSSL, and return it.

    numpy's ``bit_generator`` takes ``randbits`` from :mod:`secrets`, for a
    ``SeedSequence`` built without entropy, which kljnsim never builds.  The
    real :mod:`secrets` loads ``hmac``, ``hashlib`` and OpenSSL's
    ``_hashlib``: without them the import takes 6.9 ms instead of 13.0 ms
    and 3.7 MB less memory, after the engine has loaded (medians of 20 fresh
    processes, 2-CPU x86 VM, numpy 2.4.6).  For this one import a stand-in
    ``secrets`` holds only ``randbits``, the same
    ``SystemRandom().getrandbits`` that CPython's ``secrets.randbits`` is; it
    is removed afterwards, so a later ``import secrets`` loads the real
    module.  Nothing is stood in when ``secrets`` or ``numpy.random`` is
    already loaded, and a numpy that asks the stand-in for more than
    ``randbits`` is imported again the plain way.
    """
    modules = sys.modules
    if "numpy.random" in modules or "secrets" in modules:
        return import_module("numpy.random")
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits  # type: ignore[attr-defined]
    modules["secrets"] = stand_in
    try:
        return import_module("numpy.random")
    except ImportError:
        pass  # the failed modules left sys.modules; the plain import below loads them again
    finally:
        if modules.get("secrets") is stand_in:
            del modules["secrets"]
    return import_module("numpy.random")


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
    kernel is built once per ``oversample`` and shared, so it is read-only;
    the filter itself runs against :func:`_reversed_kernel`.
    """
    taps = 32 * oversample + 1
    mid = (taps - 1) // 2
    fc = 1.0 / (2.0 * oversample)
    k = np.arange(taps) - mid
    h = 2.0 * fc * np.sinc(2.0 * fc * k) * np.hanning(taps)
    h /= math.sqrt(float(np.sum(h * h)))
    h.flags.writeable = False
    return h


@functools.lru_cache(maxsize=None)
def _reversed_kernel(oversample: int) -> np.ndarray:
    """``lowpass_kernel(oversample)[::-1]`` in a writeable, C-contiguous buffer on a 64-byte boundary.

    ``np.convolve(a, v)`` hands ``v[::-1]`` to numpy's C correlate, which
    needs a C-contiguous, writeable array, so a read-only or strided kernel
    is copied into a fresh heap block on every call.  BLAS ``ddot`` then
    reads that copy, and where it starts sets the speed, not the bits: with
    257 taps on a 2-core x86 VM, a 50,000-sample row took 1.26 ms from a
    cache-line boundary against about 1.75 ms from each of the other 7
    offsets.  ``np.convolve(a, rev[::-1])`` reverses this buffer back onto
    itself, so numpy reads it in place.  It stays private: callers get the
    read-only :func:`lowpass_kernel`.
    """
    h = lowpass_kernel(oversample)
    buf = np.empty(h.size + 7)
    start = (-buf.ctypes.data % 64) // 8
    rev = buf[start : start + h.size]
    rev[:] = h[::-1]
    return rev


def band_limited_stream(rng: np.random.Generator, spec: NoiseSpec, rows: int, n: int) -> np.ndarray:
    """``(rows, n)`` unit-variance Gaussian noise, each row band-limited to ``spec.bandwidth``.

    Each correlation time 1/(2B) holds ``spec.oversample`` samples.  All
    rows' white noise is drawn from ``rng`` in one call, then each row is
    shaped on its own by the unit-energy kernel, so every output sample has
    variance exactly 1 regardless of the kernel choice.  The filter reads
    the kernel from :func:`_reversed_kernel`, always from the same
    cache-line boundary; the output equals ``np.convolve`` with
    :func:`lowpass_kernel` bit for bit.
    """
    h = _reversed_kernel(spec.oversample)[::-1]  # equals lowpass_kernel; np.convolve undoes the [::-1]
    white = rng.standard_normal((rows, n + h.size - 1))
    if rows == 1:  # a single row is the filter's own output, with no copy
        return np.convolve(white[0], h, mode="valid")[None, :]
    out = np.empty((rows, n))
    for r in range(rows):
        out[r] = np.convolve(white[r], h, mode="valid")
    return out
