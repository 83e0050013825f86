"""The numpy formatter of ``kljnsim.reprtext`` against Python's ``repr`` and ``str``.

Every text is compared with the oracle's whole, value by value: random bit
patterns over every exponent, the powers of two and of ten with their
neighbours (where the rounding interval is irregular or a decimal is exact),
the switches between fixed and exponent form, and the special values.
"""

import numpy as np
import pytest

from kljnsim.reprtext import SLOT_WORDS, WORD, write_floats, write_ints


def decoded(slots: np.ndarray) -> list[str]:
    """The text of each slot: a newline goes in its last byte, and every NUL byte is dropped."""
    chars = np.ascontiguousarray(slots).view(np.uint8).reshape(-1, 8 * SLOT_WORDS).copy()
    assert not chars[:, -2:].any(), "the last two bytes of a slot must stay NUL"
    chars[:, -1] = ord("\n")
    return chars.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def texts(x: np.ndarray) -> list[str]:
    """The formatter's text of each value of ``x``."""
    slots = np.zeros(x.shape + (SLOT_WORDS,), dtype=WORD)
    write_floats(slots, x)
    return decoded(slots)


def assert_matches_repr(values) -> None:
    x = np.asarray(values, dtype=np.float64)
    expected = [repr(v) for v in x.ravel().tolist()]
    got = texts(x)
    wrong = [(e, g) for e, g in zip(expected, got) if e != g]
    assert len(got) == len(expected) and not wrong, wrong[:10]


def with_neighbours(x: np.ndarray) -> np.ndarray:
    """``x`` and the doubles on either side of each value."""
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def test_random_bit_patterns():
    # every float64 bit pattern equally likely: all exponents, subnormals, infinities and NaNs
    bits = np.random.default_rng(14).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert_matches_repr(bits.view(np.float64))


def test_scaled_normal_draws():
    # the magnitudes of simulated currents and voltages, mostly 16 and 17 digits in exponent form
    draws = np.random.default_rng(15).standard_normal((4, 10_000))
    assert_matches_repr(draws * np.array([1e-12, 1e-9, 1e-3, 1.0])[:, None])


def test_powers_of_two_and_their_neighbours():
    # at a power of two the gap below is half the gap above
    assert_matches_repr(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_powers_of_ten_and_their_neighbours():
    assert_matches_repr(with_neighbours(np.array([float(f"1e{e}") for e in range(-323, 309)])))


def test_smallest_and_largest_subnormals():
    # from 5e-324 up, where the shortest decimal has as few as one digit
    smallest = np.arange(1, 100_000, dtype=np.uint64)
    assert_matches_repr(smallest.view(np.float64))
    assert_matches_repr(((1 << 52) - smallest).view(np.float64))


def test_integers_around_two_to_the_53():
    # integral values print in fixed form with ".0" up to 16 digits, where the spacing reaches 2
    assert_matches_repr(np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64).astype(np.float64))
    assert_matches_repr(np.arange(-1000, 1000, dtype=np.float64))


@pytest.mark.parametrize(
    "value, text",
    [(9999999999999998.0, "9999999999999998.0"), (1e16, "1e+16"), (1e-4, "0.0001"), (1e-5, "1e-05")],
)
def test_switches_between_fixed_and_exponent_form(value, text):
    assert texts(np.array([value])) == [text]
    assert_matches_repr(with_neighbours(np.array([value, -value])))


def test_special_values():
    x = np.array(
        [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            1e-323,
            np.nextafter(0.0, 1.0) * (2**52 - 1),  # the largest subnormal
            2.2250738585072014e-308,  # the smallest normal
            1.7976931348623157e308,  # the largest double
            -1.7976931348623157e308,
            np.inf,
            -np.inf,
        ]
    )
    assert_matches_repr(x)
    assert texts(x[:2]) == ["0.0", "-0.0"]


def test_every_nan_writes_nan():
    # a set sign bit and any payload still read "nan", as repr writes it
    payloads = np.array([1, 2, 0xDEADBEEF, 2**51, 2**52 - 1], dtype=np.uint64)
    quiet_or_signalling = (0x7FF << 52) | payloads
    nans = np.concatenate([quiet_or_signalling, quiet_or_signalling | (1 << 63)]).view(np.float64)
    assert np.isnan(nans).all()
    assert texts(nans) == ["nan"] * nans.size


def test_shapes_and_strided_slots():
    # any shape of values, written into slots that are a view of a larger buffer
    x = np.random.default_rng(16).standard_normal((3, 4, 2)) * 10.0 ** np.arange(-6, 6, 3).reshape(1, 4, 1)
    buffer = np.zeros((3, 4, 3, SLOT_WORDS), dtype=WORD)
    write_floats(buffer[:, :, ::2], x)
    assert not buffer[:, :, 1].any()
    assert decoded(buffer[:, :, ::2]) == [repr(v) for v in x.ravel().tolist()]


@pytest.mark.parametrize("width", [1, 2, 11, 13, 20])
def test_integers_match_str(width):
    # periods beyond 10 digits (first periods of 2**40 and more), and up to the largest uint64
    top = min(10**width, 2**64) - 1
    chosen = {0, 1, 9, 10, top // 3, top - 1, top, 2**40, 2**40 + 7}
    values = np.array(sorted(v for v in chosen if v <= top), dtype=np.uint64)
    out = np.zeros((values.size, width), dtype=np.uint8)
    write_ints(out, values)
    assert [row[row != 0].tobytes().decode() for row in out] == [str(v) for v in values.tolist()]
    # the text is right-aligned: NUL bytes only before it
    assert all(np.all(np.diff(row != 0) >= 0) for row in out)
