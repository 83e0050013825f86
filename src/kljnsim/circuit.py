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
    """Mean-square end currents per unit 4kTB, series elements neglected.

    Raises ``ValueError`` naming the network when its resistances are so
    extreme that a moment is not a finite positive float.
    """
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
        fa, fb = one_end(ra, rb), one_end(rb, ra)
    except (ZeroDivisionError, OverflowError):
        fa = fb = math.nan
    if not (0.0 < fa < math.inf and 0.0 < fb < math.inf and fa / fb < math.inf and fb / fa < math.inf):
        raise ValueError(
            f"network (r_alice={ra!r}, r_bob={rb!r}, r_series={net.r_series!r}, r_shunt={r2!r}) "
            "gives mean-square currents and a ratio that are not finite and > 0 in double precision"
        )
    return fa, fb


def analytic_mean_square_currents(net: NetworkConfig, noise: NoiseSpec) -> CurrentMoments:
    """Closed-form mean-square currents at the two ends of the loop.

    Moments carry the 4kT_eff*B scale of ``noise``; the ratio is computed
    on the unscaled values, so it is bit-identical under any positive
    rescaling of the noise intensity.  With no pad both ends see the same
    4kT_eff*B/(r_alice+r_bob).
    """
    fa, fb = _normalized_moments(net)
    scale = noise.unit_scale
    return CurrentMoments(
        ms_alice=scale * fa,
        ms_bob=scale * fb,
        ratio=max(fa, fb) / min(fa, fb),
    )


def solve_network(
    u_alice, u_bob, r_alice, r_bob, pad: AttenuatorConfig | None, *, overwrite_sources: bool = False
):
    """End currents and shunt-node voltage for instantaneous source values.

    ``r_alice``/``r_bob`` are the end resistors connected behind ``pad``.
    Keeps the pad's series elements exactly.  Accepts scalars or numpy
    arrays that broadcast together (elementwise); returns
    ``(i_alice, i_bob, v_node)``.  Without a shunt the same current flows at
    both ends by construction.

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
