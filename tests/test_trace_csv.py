"""The trace CSV row writer against ``csv.writer``, byte for byte.

``montecarlo._write_trace_rows`` formats rows itself, as bytes; the oracle
writes each sample's row through ``csv.writer`` (excel dialect) on its own.
A block holds its currents in the pass's unit of 2**-m amperes, which the
rows give in amperes.  Blocks longer than ``CHUNK_SAMPLES`` samples cross
the writer's write-call size.
"""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljnsim.protocol import CHUNK_SAMPLES, PeriodBlock
from kljnsim.montecarlo import _write_trace_rows

AWKWARD = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -1.5, 0.1]


def make_block(i_alice, i_bob, v_node) -> PeriodBlock:
    picks = np.zeros(i_alice.shape[0], dtype=bool)
    return PeriodBlock(picks, ~picks, i_alice, i_bob, v_node)


def written(block: PeriodBlock, first_period: int, m: int = 0) -> bytes:
    out = io.BytesIO()
    _write_trace_rows(out, block, first_period, m)
    return out.getvalue()


def expected(block: PeriodBlock, first_period: int, m: int = 0) -> bytes:
    """``csv.writer``'s rows of ``block``: both currents times 2**-m, in amperes, and ``v_node`` as it is."""
    out = io.BytesIO()
    writer = csv.writer(io.TextIOWrapper(out, encoding="ascii", newline="", write_through=True))
    for r in range(block.n_periods):
        for k in range(block.n_samples):
            i_alice, i_bob = (float(np.ldexp(i[r, k], -m)) for i in (block.i_alice, block.i_bob))
            writer.writerow((first_period + r, k, i_alice, i_bob, float(block.v_node[r, k])))
    return out.getvalue()


def bob_column(i_alice: np.ndarray, columns: str) -> np.ndarray:
    """Bob's current for a test block: Alice's array itself (a loop without a shunt), a copy, or other values."""
    if columns == "shared":
        return i_alice
    if columns == "equal copies":
        return i_alice.copy()
    return np.roll(i_alice, 1)


@pytest.mark.parametrize(
    "shape", [(1, 1), (4, 5), (3, CHUNK_SAMPLES // 3 + 1), (1, CHUNK_SAMPLES + 5)], ids=str
)
@pytest.mark.parametrize("first_period", [0, 999_999, 2**40])
@pytest.mark.parametrize("columns", ["separate", "shared", "equal copies"])
def test_awkward_values_match_csv_writer(shape, first_period, columns):
    size = shape[0] * shape[1]
    values = np.resize(np.array(AWKWARD), size).reshape(shape)
    block = make_block(values, bob_column(values, columns), np.roll(values, 2))
    # currents in amperes (m = 0), or in units that push the awkward values past the double range both ways
    with np.errstate(over="ignore"):  # at m = -1000, currents of 1e16 and up are inf in amperes
        for m in (0, 1000, -1000):
            text = written(block, first_period, m)
            assert text == expected(block, first_period, m)
            assert text.count(b"\r\n") == size
            # every awkward value is written in each column once the block holds them all
            if size >= len(AWKWARD):
                for value in ("-0.0", "5e-324", "1e-05", "1e+16", "1.7976931348623157e+308", "inf", "-inf", "nan"):
                    assert f",{float(np.ldexp(float(value), -m))!r},".encode() in text  # a current, in amperes
                    assert f",{value}\r\n".encode() in text  # v_node, never scaled
    # the writer leaves the block as it was
    assert np.array_equal(block.i_alice, np.resize(np.array(AWKWARD), size).reshape(shape), equal_nan=True)


FLOATS = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def blocks(draw) -> PeriodBlock:
    # up to 3 x (CHUNK_SAMPLES // 2 + 16) samples, so some blocks span more than one write call
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, CHUNK_SAMPLES // 2 + 16)))
    i_alice, i_bob, v_node = (draw(arrays(np.float64, shape, elements=FLOATS)) for _ in range(3))
    return make_block(i_alice, i_alice if draw(st.booleans()) else i_bob, v_node)


def random_bits_block(shape, seed) -> PeriodBlock:
    """Every float64 bit pattern is equally likely: subnormals, infinities and NaNs included."""
    rng = np.random.default_rng(seed)
    return make_block(*(rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(block=blocks(), first_period=st.integers(0, 2**40))
@example(block=random_bits_block((2, CHUNK_SAMPLES), 5), first_period=10**6)
@example(block=random_bits_block((1, 2 * CHUNK_SAMPLES + 3), 6), first_period=0)
def test_random_blocks_match_csv_writer(block, first_period):
    with np.errstate(invalid="ignore"):  # ldexp quiets a signalling NaN, with a warning
        assert written(block, first_period) == expected(block, first_period)


class RowCounts:
    """A byte sink that keeps only the number of rows in each ``write``."""

    def __init__(self):
        self.rows = []

    def write(self, rows: bytes) -> None:
        self.rows.append(rows.count(b"\r\n"))


def zeros_block(shape) -> PeriodBlock:
    current = np.zeros(shape)
    return make_block(current, current, np.zeros(shape))


@pytest.mark.parametrize(
    "shape", [(CHUNK_SAMPLES + 7, 1), (3, CHUNK_SAMPLES // 3 + 1), (2, 2 * CHUNK_SAMPLES + 3)], ids=str
)
def test_each_write_holds_at_most_chunk_samples_rows(shape):
    sink = RowCounts()
    _write_trace_rows(sink, zeros_block(shape), 0, 0)
    assert sum(sink.rows) == shape[0] * shape[1]
    assert max(sink.rows) <= CHUNK_SAMPLES


def normals_block(shape) -> PeriodBlock:
    rng = np.random.default_rng(7)
    return make_block(*(rng.standard_normal(shape) * 1e-9 for _ in range(3)))


# zeros take the formatter's special-value path; normal draws take the path of every simulated sample
@pytest.mark.parametrize("make", [zeros_block, normals_block], ids=["zeros", "normals"])
def test_memory_does_not_grow_with_the_period(make):
    def peak_bytes(n_samples: int) -> int:
        block = make((1, n_samples))
        tracemalloc.start()
        try:
            _write_trace_rows(RowCounts(), block, 0, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(6 * CHUNK_SAMPLES) < 1.5 * peak_bytes(CHUNK_SAMPLES)
