"""Resistive model of the Alice-wire-Bob loop with an optional T-attenuator.

The attenuator is a symmetric pad: one series element on each side of a
shunt leg.  The shunt is what matters for security: it splits the single
Kirchhoff loop into two coupled loops, so the currents measured at the two
ends stop being equal and their mean squares become resistor-dependent.

Closed-form mean-square currents neglect the small series elements (they
are tiny against the loop resistances); the instantaneous solver keeps them
exactly, which lets tests measure the size of that approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import NoiseSpec


@dataclass(frozen=True)
class AttenuatorConfig:
    """Symmetric T-pad: ``r_series`` on each side of the ``r_shunt`` leg.

    ``r_shunt=None`` means there is no shunt leg at all, so the loop stays
    single.  The open branch is never encoded as a float infinity.
    """

    r_series: float = 0.0
    r_shunt: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.r_series < math.inf:
            raise ValueError("r_series must be finite and >= 0")
        if self.r_shunt is not None and not 0 < self.r_shunt < math.inf:
            raise ValueError("r_shunt must be finite and > 0 (use None for no shunt)")


@dataclass(frozen=True)
class NetworkConfig:
    """End resistors and pad of one loop instantiation.

    ``r_alice``/``r_bob`` are the resistors currently connected at the two
    ends; ``pad=None`` is the ideal lossless single loop.
    """

    r_alice: float
    r_bob: float
    pad: AttenuatorConfig | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if not 0 < self.r_alice < math.inf:
            raise ValueError("r_alice must be finite and > 0")
        if not 0 < self.r_bob < math.inf:
            raise ValueError("r_bob must be finite and > 0")

    @property
    def r_series(self) -> float:
        return self.pad.r_series if self.pad is not None else 0.0

    @property
    def r_shunt(self) -> float | None:
        return self.pad.r_shunt if self.pad is not None else None


@dataclass(frozen=True)
class CurrentMoments:
    """Mean-square end currents and their imbalance ratio (>= 1)."""

    ms_alice: float
    ms_bob: float
    ratio: float


def parallel_resistance(r1: float, r2: float | None) -> float:
    """r1*r2/(r1+r2); ``r2=None`` stands for an open branch and returns r1."""
    if r2 is None:
        return r1
    if r1 == 0.0 or r2 == 0.0:
        return 0.0
    return r1 * r2 / (r1 + r2)


def _normalized_moments(net: NetworkConfig) -> tuple[float, float]:
    """Mean-square end currents per unit 4kTB, series elements neglected; NaN where they do not compute."""
    ra, rb, r2 = net.r_alice, net.r_bob, net.r_shunt

    def one_end(r_near: float, r_far: float) -> float:
        if r2 is None:
            return 1.0 / (ra + rb)
        # own generator driving the near loop, plus the far generator's
        # contribution after the shunt current divider
        own = r_near / (r_near + parallel_resistance(r_far, r2)) ** 2
        divider = (1.0 / r_near) / (1.0 / r_near + 1.0 / r2)
        coupled = divider**2 * r_far / (r_far + parallel_resistance(r_near, r2)) ** 2
        return own + coupled

    try:
        return one_end(ra, rb), one_end(rb, ra)
    except (ZeroDivisionError, OverflowError):
        return math.nan, math.nan


def analytic_mean_square_currents(net: NetworkConfig, noise: NoiseSpec) -> CurrentMoments:
    """Closed-form mean-square currents at the two ends of the loop.

    Moments carry the 4kT_eff*B scale of ``noise``; the ratio is computed
    on the unscaled values, so it is bit-identical under any positive
    rescaling of the noise intensity.  With no pad both ends see the same
    4kT_eff*B/(r_alice+r_bob).

    Raises ``ValueError`` naming the network and the noise when resistances
    or noise scale are so extreme that a moment, scaled or not, the ratio,
    the reciprocal of the smaller scaled moment (Eve's normalization) or
    either source's variance 4kT_eff*B*R (what the samples are drawn with)
    is not a finite positive float.
    """
    fa, fb = _normalized_moments(net)
    scale = noise.unit_scale
    ms_alice, ms_bob = scale * fa, scale * fb
    var_alice, var_bob = scale * net.r_alice, scale * net.r_bob
    finite = all(0.0 < x < math.inf for x in (fa, fb, ms_alice, ms_bob, var_alice, var_bob))
    if not (finite and max(fa, fb) / min(fa, fb) < math.inf and 1.0 / min(ms_alice, ms_bob) < math.inf):
        raise ValueError(
            f"network (r_alice={net.r_alice!r}, r_bob={net.r_bob!r}, r_series={net.r_series!r}, "
            f"r_shunt={net.r_shunt!r}) with noise (t_eff={noise.t_eff!r}, bandwidth={noise.bandwidth!r}) gives "
            f"mean-square currents {ms_alice!r} and {ms_bob!r}; they, their ratio, the reciprocal of the "
            f"smaller and the source variances {var_alice!r} and {var_bob!r} must be finite and > 0 in "
            "double precision"
        )
    return CurrentMoments(ms_alice=ms_alice, ms_bob=ms_bob, ratio=max(fa, fb) / min(fa, fb))


def solve_network(
    u_alice, u_bob, r_alice, r_bob, pad: AttenuatorConfig | None, *, overwrite_sources: bool = False
):
    """End currents and shunt-node voltage for instantaneous source values.

    ``r_alice``/``r_bob`` are the end resistors connected behind ``pad``.
    Keeps the pad's series elements exactly.  Accepts scalars or numpy
    arrays that broadcast together (elementwise); returns
    ``(i_alice, i_bob, v_node)``.  Without a shunt the same current flows at
    both ends by construction, and ``i_alice is i_bob``: one array (or
    scalar) is returned for both, with or without series elements or
    ``overwrite_sources``; the trace CSV writer relies on it to convert
    that current to text once.  With a shunt the three are distinct arrays.

    With ``overwrite_sources`` the source arrays, which must have the
    shape of the result, become result buffers: the same operations run in
    the same order, so every value is bit-identical, but a long block needs
    two fewer arrays.
    """
    pad = pad if pad is not None else AttenuatorConfig()
    ra = r_alice + pad.r_series
    rb = r_bob + pad.r_series
    r2 = pad.r_shunt
    out_a, out_b = (u_alice, u_bob) if overwrite_sources else (None, None)
    if r2 is None:
        i = np.divide(np.subtract(u_alice, u_bob, out=out_b), ra + rb, out=out_b)
        return i, i, np.subtract(u_alice, i * ra, out=out_a)
    g_sum = 1.0 / ra + 1.0 / rb + 1.0 / r2
    v = (u_alice / ra + u_bob / rb) / g_sum
    i_a = np.divide(np.subtract(u_alice, v, out=out_a), ra, out=out_a)
    return i_a, np.divide(np.subtract(v, u_bob, out=out_b), rb, out=out_b), v


def design_tee_pad(loss_db: float, z0: float) -> AttenuatorConfig:
    """Symmetric T-pad with matched image impedance ``z0`` and the given loss.

    The returned pad presents an input impedance of exactly ``z0`` when its
    far port is terminated in ``z0``, and attenuates the terminated voltage
    by 10**(-loss_db/20).  Zero loss degenerates to a straight-through pad
    (no series elements, no shunt).
    """
    if not 0 <= loss_db < math.inf:
        raise ValueError("loss_db must be finite and >= 0")
    if not 0 < z0 < math.inf:
        raise ValueError("z0 must be finite and > 0")
    if loss_db == 0:
        return AttenuatorConfig(r_series=0.0, r_shunt=None)
    try:
        a = 10.0 ** (loss_db / 20.0)
    except OverflowError:
        a = math.inf
    if not a * a < math.inf:
        raise ValueError(f"loss_db must be finite with a finite gain squared 10**(loss_db/10); got {loss_db!r}")
    if a * a == 1.0:
        raise ValueError(f"loss_db {loss_db!r} is below double-precision resolution; use 0 for no pad")
    return AttenuatorConfig(
        r_series=z0 * (a - 1.0) / (a + 1.0),
        r_shunt=2.0 * z0 * a / (a * a - 1.0),
    )
