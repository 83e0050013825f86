"""Numbers as the text of ``repr``, converted in numpy without a Python call per value.

The trace CSV holds every sample in Python's shortest round-trip form.  This
module computes that text for whole float64 arrays at once:

- the digits are Schubfach's (R. Giulietti, "The Schubfach way to render
  doubles", 2020): the shortest decimal inside the rounding interval of the
  double, the closest one when several are that short, ties to an even
  digit, which is what ``repr`` writes;
- the layout is ``repr``'s: exponent form (``1e-05``, ``1e+16``,
  ``1.5e+300``) when the decimal exponent is below -4 or at least 16, fixed
  form with ``.0`` for integral values otherwise (``0.0001``,
  ``9999999999999998.0``), ``-`` for a set sign bit, and ``inf``, ``-inf``
  and ``nan``.

Each value's text goes into a slot of ``SLOT_WORDS`` 8-byte words, padded
with NUL bytes anywhere inside it; deleting every NUL byte of a buffer of
slots and separators leaves the text.  The engine imports this module only
when a run writes a trace CSV.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# A slot's words: the sign, "0." with up to three zeros, the first digit and
# a decimal point after it; two words of the other 16 digits; "e-324", or
# the last digit when a decimal point further right moves it there, and two
# bytes that stay NUL, free for the caller's separators.
SLOT_WORDS = 4

_K_MIN = -324  # g(k) approximates 10**-k for k = floor(log10(2**q)), q from -1074 to 971
_K_MAX = 292
_POINT_MIN = -324  # the decimal point's place, from 5e-324 (and 0.0) to 1.7976931348623157e+308
_POINT_MAX = 309
_M32 = 0xFFFFFFFF
_HIDDEN = 1 << 52
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
WORD = np.dtype("<u8")  # bytes in memory order, first byte lowest, so a left shift moves bytes up


def _g_halves() -> np.ndarray:
    """The 126-bit g(k) = floor(10**-k / 2**r) + 1, 2**125 <= g < 2**126, as its halves g mod 2**63 and g // 2**63.

    One row for each k from ``_K_MIN`` to ``_K_MAX``: 617 entries of exact
    integer arithmetic.
    """
    g = {}
    p = 1  # 10**e
    for e in range(-_K_MIN + 1):
        if -e >= _K_MIN:  # k = -e: 10**-k = p, an integer of p.bit_length() bits
            shift = p.bit_length() - 126
            g[-e] = (p >> shift if shift >= 0 else p << -shift) + 1
        if 0 < e <= _K_MAX:  # k = e: 10**-k = 1 / p, never a power of two
            g[e] = (1 << (125 + p.bit_length())) // p + 1
        p *= 10
    halves = [(g[k] & (1 << 63) - 1).to_bytes(8, "little") + (g[k] >> 63).to_bytes(8, "little") for k in sorted(g)]
    return np.frombuffer(b"".join(halves), dtype=WORD).reshape(-1, 2).astype(np.uint64)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: a cached table is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _words(rows: list[bytes]) -> np.ndarray:
    """Byte strings, NUL-padded to a whole number of 8-byte words, as rows of words."""
    width = -(-max(map(len, rows)) // 8) * 8
    return np.frombuffer(b"".join(r.ljust(width, b"\0") for r in rows), dtype=WORD).reshape(len(rows), -1)


@lru_cache(maxsize=None)
def _four_digits() -> np.ndarray:
    """The four decimal digits of 0 to 9999 as byte values 0 to 9, leading zeros included, one 4-byte row each."""
    return _read_only(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy().view(np.uint32).ravel())[0]


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of a slot's words.

    - ``trailing_zeros[v]``: the zeros that end the four digits of ``v``;
    - ``shown[m]``: what turns the first ``m`` of the 16 digits after the
      first into ASCII;
    - ``kept[a]``, ``moved[a]``, ``point[a]``: a decimal point after the
      ``a``-th digit, for ``a`` from 2 to 16: the bytes kept in place, the
      bytes moved up by one, and the point; for 0 and 1, every byte is
      kept;
    - ``ends[2 * (p - _POINT_MIN) + negative]``: the sign and the "0.000"
      before the first digit, and the exponent, for a decimal point at
      place ``p``.
    """
    digits = _four_digits().view(np.uint8).reshape(-1, 4)
    trailing_zeros = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    shown = _words([b"\0" * 8 + b"0" * m + b"\0" * (24 - m) for m in range(17)])
    kept = _words([b"\xff" * (7 + a) + b"\0" * (25 - a) if a > 1 else b"\xff" * 32 for a in range(17)])
    moved = _words([b"\0" * (8 + a) + b"\xff" * (24 - a) if a > 1 else b"\0" * 32 for a in range(17)])
    point = _words([b"\0" * (7 + a) + b"." + b"\0" * (24 - a) if a > 1 else b"\0" * 32 for a in range(17)])
    ends = np.zeros((_POINT_MAX - _POINT_MIN + 1, 2, 2, 8), dtype=np.uint8)
    ends[:, 1, 0, 0] = ord("-")
    places = np.arange(_POINT_MIN, _POINT_MAX + 1)
    exponent = places - 1
    scientific = (places <= -4) | (places > 16)
    ends[scientific, :, 1, 0] = ord("e")
    ends[scientific, :, 1, 1] = np.where(exponent[scientific] < 0, ord("-"), ord("+"))[:, None]
    text = _four_digits()[np.abs(exponent[scientific])].view(np.uint8).reshape(-1, 4) + ord("0")
    ends[scientific, :, 1, 2:5] = text[:, None, 1:]
    ends[(exponent > -100) & (exponent < 100), :, 1, 2] = 0
    for p in range(-3, 1):  # "0." and up to three zeros
        ends[p - _POINT_MIN, :, 0, 1 : 3 - p] = np.frombuffer(b"0." + b"0" * -p, dtype=np.uint8)
    return _read_only(trailing_zeros, shown, kept, moved, point, ends.view(WORD).reshape(-1, 2))


@lru_cache(maxsize=None)
def _exponent_table() -> dict[str, np.ndarray]:
    """What Schubfach needs of a double's exponent, by ``2 * biased_exponent + (significand bits == 0)``.

    For q = max(biased, 1) - 1075, the exponent of the integer significand c:

    - ``k``: floor(log10(2**q)), or floor(log10(3/4 * 2**q)) at a power of
      two, where the gap below the double is half the gap above;
    - ``shift``: c << shift is cp, 4 * c * 2**(q + r + 127) for
      10**-k = g(k) * 2**r, so that g(k) * cp / 2**127 approximates
      4 * c * 2**q * 10**-k;
    - ``shifts``: the shifts of half the gaps below and above, in the scale
      of cp, each followed by 64 less it;
    - ``g``, ``g_lo``, ``g_hi``: g(k) mod 2**63 and g(k) // 2**63, whole
      and as their low and high 32 bits.
    """
    biased, at_power_of_two = np.divmod(np.arange(4096), 2)
    q = np.maximum(biased, 1) - 1075
    irregular = (at_power_of_two == 1) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = q + (-k * 913124641741 >> 38) + 2  # 1 to 4
    g = _g_halves()[k - _K_MIN]
    lower, upper = h + 1 - irregular, h + 1
    shifts = np.stack([lower, 64 - lower, upper, 64 - upper], axis=-1).astype(np.uint64)
    table = {
        "k": k,
        "shift": (h + 2).astype(np.uint64),
        "shifts": shifts,
        "g_lo": g & _M32,
        "g_hi": g >> 32,
        "g": g,
    }
    _read_only(*table.values())
    return table


def _product(lo: np.ndarray, hi: np.ndarray, c0: np.ndarray, c1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit product of (hi * 2**32 + lo) and (c1 * 2**32 + c0), all four under 2**32, as (high, low) words."""
    p00 = lo * c0
    p10 = hi * c0
    p01 = lo * c1
    mid = (p00 >> 32) + (p10 & _M32) + (p01 & _M32)
    return hi * c1 + (p10 >> 32) + (p01 >> 32) + (mid >> 32), mid << 32 | p00 & _M32


def _round_to_odd(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """g * cp / 2**127 rounded to odd, as Schubfach computes it from the products of cp with g mod 2**63 and g // 2**63.

    ``high`` and ``low`` hold the halves of the two products in their last
    axis.  The low half of the first is dropped, and the lowest bit is set
    only when the rest of the 127 bits is not zero, so exact midpoints stay
    exact.
    """
    z = (low[..., 1] >> 1) + high[..., 0]  # below 2**64
    return (high[..., 1] + (z >> 63)) | (z << 1 != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each double's shortest round-trip decimal 0.d1d2...d17 * 10**point: the 17 digits as an integer, and point.

    The digits are left-aligned, padded with trailing zeros.  Zeros,
    infinities and NaNs give harmless values that the caller replaces.
    """
    t = bits & (_HIDDEN - 1)
    index = (bits >> 51 & 0xFFE | (t == 0)).astype(np.intp)
    table = _exponent_table()
    subnormal = index < 2
    c = t | (~subnormal).astype(np.uint64) << 52
    cp = (c << table["shift"].take(index))[..., None]
    high, low = _product(table["g_lo"].take(index, axis=0), table["g_hi"].take(index, axis=0), cp & _M32, cp >> 32)
    vb = _round_to_odd(high, low)
    # the rounding interval's ends, in the same scale, included when c is even:
    # g * cp plus or minus g << shift, for cp plus or minus half a gap
    g = table["g"].take(index, axis=0)
    shifts = table["shifts"].take(index, axis=0)[..., None]
    odd = c & 1
    gap, carry = g << shifts[..., 0, :], g >> shifts[..., 1, :]
    vbl = _round_to_odd(high - carry - (low < gap), low - gap) + odd
    gap, carry = g << shifts[..., 2, :], g >> shifts[..., 3, :]
    upper_low = low + gap
    vbr = _round_to_odd(high + carry + (upper_low < low), upper_low) - odd
    s = vb >> 2
    # s or s + 1, whichever lies inside, or the closer one when both do, ties to even
    s_in = vbl <= vb & ~np.uint64(3)
    t_in = (vb | 3) + 1 <= vbr
    d = s + (t_in & (~s_in | ((vb & 3) + (s & 1) > 2)))
    # one digit fewer, if exactly one of the two multiples of 10 around s lies inside
    sp = s // 10 * 40
    sp_in = vbl <= sp
    tp_in = sp + 40 <= vbr
    d = np.where((sp_in != tp_in) & (s >= 10), np.where(tp_in, sp + 40, sp) >> 2, d)
    point = table["k"].take(index) + 17
    if subnormal.any():  # as few as one digit
        length = np.searchsorted(_POW10[1:], d[subnormal], side="right") + 1
        d[subnormal] *= _POW10.take(17 - length)
        point[subnormal] += length - 17
    short = d < 10**16  # a normal double has 16 or 17 digits here
    point -= short
    return np.where(short, d * 10, d), point


def write_floats(out: np.ndarray, x: np.ndarray) -> None:
    """Write ``repr(float(v))`` of each value ``v`` of ``x`` into its slot of ``out``.

    ``x`` is a float64 array of any shape and ``out`` an array of ``WORD``
    (or a view into a larger buffer) of shape ``x.shape + (SLOT_WORDS,)``.
    """
    trailing_zeros, shown_digits, kept_bytes, moved_bytes, point_byte, ends = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    digits, point = _shortest(bits)
    fixed = (point > -4) & (point <= 16)
    # the first digit, then four groups of four
    digits = digits.astype(np.intp)
    first = digits // 10**16
    digits -= first * 10**16
    hi = digits // 100000000
    lo = digits - hi * 100000000
    groups = np.empty(x.shape + (4,), dtype=np.intp)
    groups[..., 0] = g1 = hi // 10000
    groups[..., 1] = g2 = hi - g1 * 10000
    groups[..., 2] = g3 = lo // 10000
    groups[..., 3] = g4 = lo - g3 * 10000
    # significant digits: 17 less the trailing zeros, counted group by group from the last
    zeros = trailing_zeros.take(g1)
    for g in (g2, g3, g4):
        zeros = trailing_zeros.take(g) + (g == 0) * zeros
    n = 17 - zeros
    # the digits shown (with fixed form's zeros up to the point and one after it)
    # and the decimal point after the `at`-th of them (0: none, or "0." before them)
    whole = fixed & (point >= 1)
    shown = np.where(whole, np.maximum(n, point + 1), n)
    at = np.where(whole, point, ~fixed & (n > 1))
    slot = np.zeros(x.shape + (SLOT_WORDS,), dtype=WORD)
    slot[..., 1:3] = _four_digits().take(groups).view(WORD)
    slot |= shown_digits.take(shown - 1, axis=0)
    end = ends.take((point - _POINT_MIN) * 2 + (bits >> 63).astype(np.intp), axis=0)
    # the first digit goes in byte 6, a point right after it in byte 7
    slot[..., 0] = end[..., 0] | ((first + ord("0")) << 48 | (at == 1) * (ord(".") << 56)).view(np.uint64)
    # a point after the second digit or later moves the digits after it up by one byte,
    # the last of them into the last word, which holds no exponent then
    moved = slot << 8
    moved.ravel()[1:] |= slot.ravel()[:-1] >> 56
    slot &= kept_bytes.take(at, axis=0)
    slot |= moved & moved_bytes.take(at, axis=0)
    slot |= point_byte.take(at, axis=0)
    slot[..., 3] |= end[..., 1]
    out[...] = slot
    special = (bits << 1 == 0) | (bits >> 52 & 0x7FF == 0x7FF)  # zeros, infinities and NaNs
    if special.any():
        magnitude = bits & ~np.uint64(1 << 63)
        negative = bits >> 63 == 1
        for text, rows in (
            (b"0.0", magnitude == 0),
            (b"inf", magnitude == 0x7FF << 52),
            (b"nan", magnitude > 0x7FF << 52),
        ):
            out[rows & ~negative] = _words([text.ljust(8 * SLOT_WORDS, b"\0")])
            out[rows & negative] = _words([(text if text == b"nan" else b"-" + text).ljust(8 * SLOT_WORDS, b"\0")])


def write_ints(out: np.ndarray, v: np.ndarray) -> None:
    """Write the decimal text of each nonnegative integer of ``v`` into its row of ``out``, NUL-padded on the left.

    ``out`` is a uint8 array (or view) of shape ``v.shape + (width,)``, the
    width at least that of the longest text.
    """
    v = np.asarray(v, dtype=np.uint64)
    width = out.shape[-1]
    groups = np.empty(v.shape + (-(-width // 4),), dtype=np.intp)
    rest = v
    for i in range(groups.shape[-1] - 1, -1, -1):  # four digits at a time, from the last
        quotient = rest // 10000
        groups[..., i] = rest - quotient * 10000
        rest = quotient
    text = _four_digits().take(groups).view(np.uint8)[..., -width:] + ord("0")
    length = np.searchsorted(_POW10[1:], v, side="right") + 1
    text[np.arange(width) < width - length[..., None]] = 0  # no leading zeros
    out[...] = text
