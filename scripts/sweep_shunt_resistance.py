#!/usr/bin/env python3
"""Sweep the pad's shunt resistance and tabulate the resulting leak.

Shows how the current imbalance (and with it Eve's success rate) dies off
as the shunt leg stiffens toward an open branch, i.e. as the topology
approaches the intact single loop.  Output is CSV on stdout, ready for any
plotting tool.
"""

import argparse
import csv
import sys

import numpy as np

from kljnsim.circuit import AttenuatorConfig, NetworkConfig
from kljnsim.config import ExperimentConfig
from kljnsim.reporting import analytic_section


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-alice", type=float, default=1000.0)
    ap.add_argument("--r-bob", type=float, default=10000.0)
    ap.add_argument("--r-series", type=float, default=2.9)
    ap.add_argument("--shunt-min", type=float, default=100.0)
    ap.add_argument("--shunt-max", type=float, default=1e7)
    ap.add_argument("--points", type=int, default=36)
    args = ap.parse_args()
    # the ends of the grid meet the pad's own rules before numpy spaces points between them
    for r_shunt in (args.shunt_min, args.shunt_max):
        AttenuatorConfig(r_series=args.r_series, r_shunt=r_shunt)

    writer = csv.writer(sys.stdout)
    writer.writerow(
        ("r_shunt", "ratio", "p_success", "p_error", "p_no_answer", "expected_measurements")
    )
    for r_shunt in np.geomspace(args.shunt_min, args.shunt_max, args.points):
        net = NetworkConfig(
            args.r_alice,
            args.r_bob,
            AttenuatorConfig(r_series=args.r_series, r_shunt=float(r_shunt)),
        )
        analytic = analytic_section(ExperimentConfig(network=net))
        probs = analytic["probabilities"]
        writer.writerow(
            (
                f"{r_shunt:.6g}",
                f"{analytic['moments']['ratio']:.6f}",
                f"{probs['p_success']:.6f}",
                f"{probs['p_error']:.6f}",
                f"{probs['p_no_answer']:.6f}",
                f"{probs['expected_measurements']:.4f}",
            )
        )


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # a config error, kljnsim.config.ConfigError included: exit 1, as the CLI does
        sys.exit(f"sweep_shunt_resistance.py: config error: {exc}")
