"""Resistive model of the Alice-wire-Bob loop with an optional T-attenuator.

The attenuator is a symmetric pad: one series element on each side of a
shunt leg.  The shunt is what matters for security: it splits the single
Kirchhoff loop into two coupled loops, so the currents measured at the two
ends stop being equal and their mean squares become resistor-dependent.

The loop is linear, so one connection of end resistors is fully described
by its transfer record (:func:`transfer`): the coefficients that map the
two source voltages to the two end currents and the shunt-node voltage,
series elements kept.  A network's records are :func:`transfer` at each of
its four connections (LL, LH, HL, HH), the Johnson RMS of each end's
resistor (:func:`johnson_rms`) folded in, built once per network and noise
(:func:`connection_records`).  That table is the one circuit rule of the
Monte Carlo engine, whose blocks (:func:`kljnsim.protocol.run_periods`)
apply it to unit-variance draws, and it sets the engine's one current unit
per run (:func:`current_exponent`).
The closed-form mean-square currents neglect the small series elements
(they are tiny against the loop resistances), which lets tests measure the
size of that approximation.  The loop is driven by the two parties'
Johnson-noise generators, whose settings (:class:`NoiseSpec`) set the
scale of every moment; the engine draws their samples
(:mod:`kljnsim.noise`).  This module imports neither numpy nor
``dataclasses``, so ``analyze`` and ``design-pad`` run without them: its
records are ``typing.NamedTuple`` tuples, and :class:`Validated` checks the
settings records when they are built and when ``_replace`` copies them.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Iterable, NamedTuple

BOLTZMANN = 1.380649e-23  # J/K
NORMALIZED = "normalized"


class Validated:
    """Checks of a record, a ``typing.NamedTuple``, at construction and in each ``_replace``.

    A validated record derives from this class and from the NamedTuple of
    its fields, in that order, and defines ``_check``, which raises
    ``ValueError`` for a field out of range.  NamedTuple builds its
    ``_replace`` copies in ``_make``, past ``__new__``; here ``_make``
    constructs, so a changed copy is checked as a new record is.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        return cls(*iterable)


class _NoiseFields(NamedTuple):
    t_eff: float | str = NORMALIZED
    bandwidth: float = 1.0
    mode: str = "independent"
    oversample: int = 8


class NoiseSpec(Validated, _NoiseFields):
    """Noise generator settings shared by both parties.

    ``t_eff`` is either an effective temperature in kelvin or the token
    ``"normalized"``, which pins the 4*k*T_eff*B product at exactly 1 so
    that simulated moments are directly comparable to dimensionless
    ratios and probabilities.
    """

    __slots__ = ()

    def _check(self) -> None:
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


class _AttenuatorFields(NamedTuple):
    r_series: float = 0.0
    r_shunt: float | None = None


class AttenuatorConfig(Validated, _AttenuatorFields):
    """Symmetric T-pad: ``r_series`` on each side of the ``r_shunt`` leg.

    ``r_shunt=None`` means there is no shunt leg at all, so the loop stays
    single.  The open branch is never encoded as a float infinity.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not 0 <= self.r_series < math.inf:
            raise ValueError("r_series must be finite and >= 0")
        if self.r_shunt is not None and not 0 < self.r_shunt < math.inf:
            raise ValueError("r_shunt must be finite and > 0 (use None for no shunt)")


class _NetworkFields(NamedTuple):
    r_alice: float
    r_bob: float
    pad: AttenuatorConfig | None = None
    label: str = ""


class NetworkConfig(Validated, _NetworkFields):
    """End resistors and pad of one loop instantiation.

    ``r_alice``/``r_bob`` are the resistors currently connected at the two
    ends; ``pad=None`` is the ideal lossless single loop.
    """

    __slots__ = ()

    def _check(self) -> None:
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


class CurrentMoments(NamedTuple):
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


def _scaled(x: float) -> int:
    """``x * 2**1074``, exactly: every double is a whole multiple of the smallest subnormal."""
    numerator, denominator = x.as_integer_ratio()
    return numerator << (1075 - denominator.bit_length())


def _nearest(numerator: int, denominator: int) -> float:
    """The double nearest to ``numerator / denominator`` (denominator > 0); ±inf beyond the double range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def transfer(
    r_alice: float, r_bob: float, pad: AttenuatorConfig | None, rms_alice: float = 1.0, rms_bob: float = 1.0
) -> tuple[float, float, float, float, float, float]:
    """The transfer record ``(aa, ab, ba, bb, na, nb)`` of end resistors ``r_alice``/``r_bob`` behind ``pad``.

    The record is T of (i_alice, i_bob, v_node) = T·(u_alice, u_bob), series
    elements kept, with each source's column times that source's RMS: for
    source voltages ``rms_alice·z_a`` and ``rms_bob·z_b``, i_alice =
    aa·z_a + ab·z_b, i_bob = ba·z_a + bb·z_b and v_node = na·z_a + nb·z_b,
    where ``i_alice`` flows from Alice's source into the shunt node and
    ``i_bob`` from the node into Bob's source.  At unit RMS it is T itself.

    Nodal analysis with ends r_a = r_alice + r_series and r_b likewise and
    shunt r_2: over D = r_a·r_b + r_a·r_2 + r_b·r_2, i_alice takes
    (r_b + r_2)·u_a − r_2·u_b, i_bob r_2·u_a − (r_a + r_2)·u_b and v_node
    r_2·(r_b·u_a + r_a·u_b); without a shunt, i_alice = i_bob =
    (u_a − u_b)/(r_a + r_b).  The sums and products are exact, in integers
    (every double times 2**1074), and each entry is one correctly rounded
    quotient, so nothing cancels or leaves the double range on the way.
    """
    r_series = _scaled(pad.r_series) if pad is not None else 0
    ra, rb = _scaled(r_alice) + r_series, _scaled(r_bob) + r_series
    sa, sb = _scaled(rms_alice), _scaled(rms_bob)
    if pad is None or pad.r_shunt is None:
        d = ra + rb
        currents, nodes = (sa, -sb, sa, -sb), (sa * rb, sb * ra)
    else:
        r2 = _scaled(pad.r_shunt)
        d = ra * rb + ra * r2 + rb * r2
        currents, nodes = (sa * (rb + r2), -sb * r2, sa * r2, -sb * (ra + r2)), (sa * rb * r2, sb * ra * r2)
    # a node entry has one scaled factor more above the line than below it
    return tuple(_nearest(n, d) for n in currents) + tuple(_nearest(n, d << 1074) for n in nodes)


def johnson_rms(r: float, noise: NoiseSpec) -> float:
    """RMS voltage of the thermal source of a resistance ``r``: sqrt(4kTrB)."""
    return math.sqrt(noise.unit_scale * r)


@functools.lru_cache(maxsize=64)
def connection_records(net: NetworkConfig, noise: NoiseSpec) -> tuple:
    """The transfer records of the four connections, ``records[alice_high][bob_high]``, source RMS folded in.

    Index 0 is the lower of the two end resistors, 1 the higher; each entry
    is :func:`transfer` with each source at :func:`johnson_rms` of its
    resistor, so it maps unit-variance draws to the currents and the node
    voltage.  Built once per network and noise: both are immutable, and a run
    reads the table from its analytic checks, its current unit and every
    block.
    """
    values = sorted((net.r_alice, net.r_bob))
    rms = [johnson_rms(r, noise) for r in values]
    return tuple(tuple(transfer(a, b, net.pad, sa, sb) for b, sb in zip(values, rms)) for a, sa in zip(values, rms))


# Each scale of current_exponent lands in [2**-(_HEADROOM + 1), 2**_HEADROOM) in the unit: 2**40
# squares of an 8-sigma current then sum below 2**1021, and the smallest variance is normal.
_HEADROOM = 487


def current_exponent(net: NetworkConfig, noise: NoiseSpec) -> int:
    """The exponent ``m`` of the Monte Carlo engine's current unit: it computes every current times 2**m.

    An end's current scale in one connection of end resistors (LL, LH, HL
    or HH) is the larger magnitude of its two coefficients in that
    connection's record (:func:`connection_records`); ``m`` centres the
    eight scales on 1.
    Raises ``ValueError`` naming the network and the noise when a scale is
    not a finite normal double (a subnormal record holds too few bits), or
    the scales span more than 2**(2*_HEADROOM), which no one unit holds.
    """
    records = [record for row in connection_records(net, noise) for record in row]
    scales = [max(abs(x), abs(y)) for aa, ab, ba, bb, _, _ in records for x, y in ((aa, ab), (ba, bb))]
    low, high = min(scales), max(scales)
    e_low, e_high = math.frexp(low)[1], math.frexp(high)[1]
    if 2.0**-1022 <= low and high < math.inf and e_high - e_low <= 2 * _HEADROOM:
        return -((e_high + e_low) // 2)
    raise ValueError(
        f"network (r_alice={net.r_alice!r}, r_bob={net.r_bob!r}, r_series={net.r_series!r}, "
        f"r_shunt={net.r_shunt!r}) with noise (t_eff={noise.t_eff!r}, bandwidth={noise.bandwidth!r}) gives "
        f"end-current scales from {low!r} to {high!r} over the connections LL, LH, HL and HH; one current "
        f"unit holds them only when they are finite, normal and within 2**{2 * _HEADROOM} of each other"
    )


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
    the reciprocal of the smaller scaled moment (Eve's normalization),
    either source's variance 4kT_eff*B*R (what the samples are drawn with)
    or the largest loop resistance 2*(max(r_alice, r_bob) + r_series) is not
    a finite positive float, or no one current unit holds the network
    (:func:`current_exponent`).
    """
    fa, fb = _normalized_moments(net)
    scale = noise.unit_scale
    ms_alice, ms_bob = scale * fa, scale * fb
    var_alice, var_bob = scale * net.r_alice, scale * net.r_bob
    loop = 2.0 * (max(net.r_alice, net.r_bob) + net.r_series)
    finite = all(0.0 < x < math.inf for x in (fa, fb, ms_alice, ms_bob, var_alice, var_bob, loop))
    if not (finite and max(fa, fb) / min(fa, fb) < math.inf and 1.0 / min(ms_alice, ms_bob) < math.inf):
        raise ValueError(
            f"network (r_alice={net.r_alice!r}, r_bob={net.r_bob!r}, r_series={net.r_series!r}, "
            f"r_shunt={net.r_shunt!r}) with noise (t_eff={noise.t_eff!r}, bandwidth={noise.bandwidth!r}) gives "
            f"mean-square currents {ms_alice!r} and {ms_bob!r}; they, their ratio, the reciprocal of the "
            f"smaller, the source variances {var_alice!r} and {var_bob!r} and the loop resistance "
            f"2*(max(r_alice, r_bob) + r_series) = {loop!r} must be finite and > 0 in double precision"
        )
    current_exponent(net, noise)
    return CurrentMoments(ms_alice=ms_alice, ms_bob=ms_bob, ratio=max(fa, fb) / min(fa, fb))


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
