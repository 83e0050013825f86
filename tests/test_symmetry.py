"""Metamorphic checks on whole reports: swapping Alice's and Bob's resistors.

Both parties switch between the same public pair, so which end holds which
value is a relabelling.  The Monte Carlo pass sees the same sorted pair and
the same picks, and the closed form exchanges the two ends' moments.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.circuit import NoiseSpec
from kljnsim.config import PRESETS, ExperimentConfig
from kljnsim.reporting import build_report, report_json


@pytest.mark.parametrize("preset", ["gaa-1db", "lossless"])
@given(
    seed=st.integers(-(2**63), 2**63 - 1),
    n_bits=st.integers(1, 40),
    samples_per_bit=st.integers(50, 200),
    mode=st.sampled_from(["independent", "waveform"]),
)
@settings(max_examples=12, deadline=None)
def test_swapping_alice_and_bob(preset, seed, n_bits, samples_per_bit, mode):
    net = PRESETS[preset]
    cfg = ExperimentConfig(
        network=net,
        noise=NoiseSpec(mode=mode),
        n_bits=n_bits,
        samples_per_bit=samples_per_bit,
        master_seed=seed,
    )
    swapped = cfg._replace(network=net._replace(r_alice=net.r_bob, r_bob=net.r_alice))
    report = json.loads(report_json(build_report(cfg, empirical=True)))
    mirror = json.loads(report_json(build_report(swapped, empirical=True)))

    assert mirror["empirical"] == report["empirical"]
    assert mirror["agreement"] == report["agreement"]
    moments, mirror_moments = report["analytic"]["moments"], mirror["analytic"]["moments"]
    assert (mirror_moments["ms_alice"], mirror_moments["ms_bob"]) == (moments["ms_bob"], moments["ms_alice"])
    assert mirror_moments["ratio"] == moments["ratio"]
    assert mirror["analytic"]["calibration"] == report["analytic"]["calibration"]
    assert mirror["analytic"]["probabilities"] == report["analytic"]["probabilities"]
