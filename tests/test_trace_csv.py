"""The trace CSV row writer against ``csv.writer``, byte for byte.

``reporting._write_trace_rows`` formats rows itself; the oracle writes each
sample's row through ``csv.writer`` (excel dialect) on its own.  Blocks
longer than ``CHUNK_SAMPLES`` samples cross the writer's write-call size.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kljnsim.protocol import CHUNK_SAMPLES, PeriodBlock
from kljnsim.reporting import _write_trace_rows

AWKWARD = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, np.inf, -np.inf, np.nan, -1.5, 0.1]


def make_block(i_alice, i_bob, v_node) -> PeriodBlock:
    picks = np.zeros(i_alice.shape[0], dtype=bool)
    return PeriodBlock(picks, ~picks, i_alice, i_bob, v_node)


def written(block: PeriodBlock, first_period: int) -> bytes:
    out = io.StringIO(newline="")
    _write_trace_rows(out, block, first_period)
    return out.getvalue().encode("utf-8")


def expected(block: PeriodBlock, first_period: int) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    for r in range(block.n_periods):
        for k in range(block.n_samples):
            row = (float(block.i_alice[r, k]), float(block.i_bob[r, k]), float(block.v_node[r, k]))
            writer.writerow((first_period + r, k, *row))
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "shape", [(1, 1), (4, 5), (3, CHUNK_SAMPLES // 3 + 1), (1, CHUNK_SAMPLES + 5)], ids=str
)
@pytest.mark.parametrize("first_period", [0, 999_999, 2**40])
def test_awkward_values_match_csv_writer(shape, first_period):
    size = shape[0] * shape[1]
    values = np.resize(np.array(AWKWARD), size)
    block = make_block(
        values.reshape(shape), np.roll(values, 1).reshape(shape), np.roll(values, 2).reshape(shape)
    )
    text = written(block, first_period)
    assert text == expected(block, first_period)
    assert text.count(b"\r\n") == size
    # every awkward value is written in each column once the block holds them all
    if size >= len(AWKWARD):
        for value in ("-0.0", "5e-324", "1e-05", "1e+16", "1.7976931348623157e+308", "inf", "-inf", "nan"):
            assert f",{value},".encode() in text


FLOATS = st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def blocks(draw) -> PeriodBlock:
    # up to 3 x (CHUNK_SAMPLES // 2 + 16) samples, so some blocks span more than one write call
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, CHUNK_SAMPLES // 2 + 16)))
    columns = [draw(arrays(np.float64, shape, elements=FLOATS)) for _ in range(3)]
    return make_block(*columns)


def random_bits_block(shape, seed) -> PeriodBlock:
    """Every float64 bit pattern is equally likely: subnormals, infinities and NaNs included."""
    rng = np.random.default_rng(seed)
    return make_block(*(rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(block=blocks(), first_period=st.integers(0, 2**40))
@example(block=random_bits_block((2, CHUNK_SAMPLES), 5), first_period=10**6)
@example(block=random_bits_block((1, 2 * CHUNK_SAMPLES + 3), 6), first_period=0)
def test_random_blocks_match_csv_writer(block, first_period):
    assert written(block, first_period) == expected(block, first_period)
