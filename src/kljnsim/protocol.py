"""KLJN bit-exchange state machine over the loop model.

Each bit period both parties connect one resistor of the shared pair at
random and drive the loop with Johnson noise of the connected resistors.
Opposite picks (LH/HL) are the secure states and carry key bits; equal
picks are generated and then discarded, so secure-fraction statistics stay
observable.  A current-comparison alarm watches for the broken-loop
signature: sustained inequality of the two end currents, which an intact
single loop can never produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .circuit import NetworkConfig, solve_network
from .noise import NoiseSpec, SeededStream, band_limited_stream, gaussian_stream, johnson_rms


class Choice(Enum):
    LOW = "low"
    HIGH = "high"


class LoopState(Enum):
    LL = "LL"
    LH = "LH"
    HL = "HL"
    HH = "HH"

    @property
    def secure(self) -> bool:
        return self in (LoopState.LH, LoopState.HL)


# Key-bit convention: 1 when Alice holds the high resistor, 0 when Bob does.
KEY_BIT_BY_STATE = {LoopState.LH: 0, LoopState.HL: 1}


def classify_state(alice: Choice, bob: Choice) -> LoopState:
    """Map the two resistor picks to a loop state; LH and HL are secure."""
    name = ("L" if alice is Choice.LOW else "H") + ("L" if bob is Choice.LOW else "H")
    return LoopState(name)


@dataclass(frozen=True)
class ResistorPair:
    """The two publicly known resistance values both parties switch between."""

    r_low: float
    r_high: float

    def __post_init__(self) -> None:
        if not 0 < self.r_low < self.r_high:
            raise ValueError("need 0 < r_low < r_high")

    def resistance(self, choice: Choice) -> float:
        return self.r_low if choice is Choice.LOW else self.r_high


@dataclass(frozen=True)
class AlarmPolicy:
    """Current-comparison defense parameters: tolerance and window length."""

    rel_tolerance: float = 0.1
    window: int = 50

    def __post_init__(self) -> None:
        if self.rel_tolerance <= 0:
            raise ValueError("rel_tolerance must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass(frozen=True)
class AlarmReport:
    """Outcome of the alarm sweep over one bit period.

    ``rel_difference`` is the windowed |<i_A^2>-<i_B^2>|/max of the
    triggering window, or the largest value seen when nothing triggered.
    ``first_trigger_sample`` indexes the sample that completed the first
    offending window.
    """

    triggered: bool
    first_trigger_sample: Optional[int]
    rel_difference: float


@dataclass(frozen=True, eq=False)
class BitPeriodTrace:
    """Everything observable (and the hidden truth) of one bit period.

    Sample arrays hold the instantaneous end currents and shunt-node
    voltage; ``measurement_stride`` is how many samples apart independent
    attack readings sit (1 in independent mode, the oversampling factor in
    waveform mode).
    """

    alice_choice: Choice
    bob_choice: Choice
    state: LoopState
    i_alice: np.ndarray
    i_bob: np.ndarray
    v_node: np.ndarray
    period_index: int = 0
    measurement_stride: int = 1

    @property
    def n_samples(self) -> int:
        return int(self.i_alice.size)


_CHOICE_STREAM = 0


def _party_streams(master_seed: int, period_index: int) -> tuple[SeededStream, SeededStream]:
    # stream 0 is reserved for the resistor choices; periods use 2p+1 / 2p+2
    return (
        SeededStream(master_seed, 2 * period_index + 1),
        SeededStream(master_seed, 2 * period_index + 2),
    )


def run_bit_period(
    alice_choice: Choice,
    bob_choice: Choice,
    pair: ResistorPair,
    net_template: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    master_seed: int,
    period_index: int = 0,
) -> BitPeriodTrace:
    """Simulate one bit period; deterministic in ``(master_seed, period_index)``.

    Source voltages are drawn at the Johnson RMS of each party's connected
    resistor from that party's own substream.  The pad elements are treated
    as noiseless: their physical temperature is negligible against the
    generators' effective one.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    r_a = pair.resistance(alice_choice)
    r_b = pair.resistance(bob_choice)
    net = net_template.with_resistors(r_a, r_b)
    stream_a, stream_b = _party_streams(master_seed, period_index)
    if noise.mode == "independent":
        u_a = johnson_rms(r_a, noise) * gaussian_stream(stream_a, n_samples)
        u_b = johnson_rms(r_b, noise) * gaussian_stream(stream_b, n_samples)
    else:
        u_a = johnson_rms(r_a, noise) * band_limited_stream(stream_a, noise, n_samples)
        u_b = johnson_rms(r_b, noise) * band_limited_stream(stream_b, noise, n_samples)
    i_a, i_b, v = solve_network(u_a, u_b, net)
    return BitPeriodTrace(
        alice_choice=alice_choice,
        bob_choice=bob_choice,
        state=classify_state(alice_choice, bob_choice),
        i_alice=np.asarray(i_a),
        i_bob=np.asarray(i_b),
        v_node=np.asarray(v),
        period_index=period_index,
        measurement_stride=noise.measurement_stride,
    )


def current_alarm(trace: BitPeriodTrace, policy: AlarmPolicy) -> AlarmReport:
    """Slide a window over the squared end currents and compare their means.

    Fires at the first window whose relative mean-square difference exceeds
    the tolerance.  A true single loop can never fire for any tolerance,
    because the two end currents are one and the same current.
    """
    w = policy.window
    n = trace.n_samples
    if n < w:
        raise ValueError(f"trace has {n} samples but the alarm window needs {w}")
    sq_a = np.concatenate(([0.0], np.cumsum(trace.i_alice * trace.i_alice)))
    sq_b = np.concatenate(([0.0], np.cumsum(trace.i_bob * trace.i_bob)))
    win_a = (sq_a[w:] - sq_a[:-w]) / w
    win_b = (sq_b[w:] - sq_b[:-w]) / w
    peak = np.maximum(win_a, win_b)
    with np.errstate(invalid="ignore"):
        rel = np.where(peak > 0, np.abs(win_a - win_b) / peak, 0.0)
    hits = rel > policy.rel_tolerance
    if hits.any():
        k = int(np.argmax(hits))
        return AlarmReport(True, k + w - 1, float(rel[k]))
    return AlarmReport(False, None, float(rel.max()))


def draw_choices(n_bits: int, master_seed: int) -> list[tuple[Choice, Choice]]:
    """Fair independent resistor picks for both parties, from the reserved stream."""
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    rng = SeededStream(master_seed, _CHOICE_STREAM).generator()
    bits = rng.integers(0, 2, size=(n_bits, 2))
    return [
        (Choice.HIGH if a else Choice.LOW, Choice.HIGH if b else Choice.LOW)
        for a, b in bits
    ]


def iter_bit_periods(
    n_bits: int,
    pair: ResistorPair,
    net_template: NetworkConfig,
    noise: NoiseSpec,
    n_samples: int,
    master_seed: int,
) -> Iterator[BitPeriodTrace]:
    """Yield seeded bit periods one at a time (memory-light for large runs)."""
    for p, (a, b) in enumerate(draw_choices(n_bits, master_seed)):
        yield run_bit_period(a, b, pair, net_template, noise, n_samples, master_seed, period_index=p)
