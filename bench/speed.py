"""Host speed reference: a fixed kernel timed next to the program.

The shared host this benchmark was written on runs the same code up to
1.75x slower in phases that last from seconds to minutes (neighbours on the
same physical cores), and one benchmark run can fall entirely into a slow or
a fast phase.  Wall times from runs made minutes apart therefore differ by
more than a regression bound, whatever the statistic.

``reference_s`` times a fixed kernel made of the kinds of work ``kljnsim``
does (a pure-Python loop, a short FIR convolution, per-period
``SeedSequence``/``Generator`` builds and ``csv`` row writes).  It depends on
nothing in the program, so a change to the program cannot move it.  A run
times it before every child invocation; ``scale`` turns the run's mean
reference time into the factor that converts its wall times to seconds at
the reference speed ``REFERENCE_S``.

One pass is short next to the host's fast/slow flips, so single passes
fall into either state and their distribution has two modes.  The mean,
unlike the median, then follows the share of slow time smoothly; the
highest and lowest tenth are cut so that a rare stall does not move it.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# typical mean of reference_s() on a 2-core x86 VM (Xeon, 2.1 GHz,
# Python 3.11, numpy 2.4); it only fixes the unit of scaled times
REFERENCE_S = 0.040

_rng = np.random.default_rng(12345)
_SIGNAL = _rng.standard_normal(100_000)
_TAPS = _rng.standard_normal(64)


def _kernel() -> int:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    for _ in range(3):
        np.convolve(_SIGNAL, _TAPS, mode="same")
    for i in range(200):
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(i))).standard_normal(100)
    writer = csv.writer(io.StringIO())
    for i in range(5000):
        writer.writerow((i, 3, 0.123456789 * i, -1.5e-3 * i, 2.0))
    return acc


def reference_s() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(reference_samples: list[float]) -> float:
    """Factor that converts this run's wall times to seconds at ``REFERENCE_S``."""
    ordered = sorted(reference_samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])
