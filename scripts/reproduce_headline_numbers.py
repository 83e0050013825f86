#!/usr/bin/env python3
"""Print the headline analytic numbers and confront them with Monte Carlo.

Covers the gaa-1db scenario end to end: mean-square current moments and
their ratio, the chi-squared threshold probabilities of the
current-comparison attack, the expected measurements per extracted bit,
and the alarm behaviour, each next to a seeded empirical estimate.  Beside
the paper's independent-reading numbers it prints the exact
simultaneous-reading model, which reads Eve's two end currents at one
instant, and each empirical rate's deviation from both models in standard
errors.  Beside the threshold attack it prints Eve's current comparison:
its exact error at one reading and at a period's readings, its Monte Carlo
error and the deviation between the two in standard errors.
"""

import math
import sys

from kljnsim.cli import ArgumentParser
from kljnsim.config import PRESETS, resolve_config
from kljnsim.reporting import build_report
from kljnsim.stats import chi2_cdf_1


def main() -> None:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="gaa-1db", choices=sorted(PRESETS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--bits", type=int, default=20000)
    ap.add_argument("--samples-per-bit", type=int, default=100)
    args = ap.parse_args()

    cfg = resolve_config(None, {"network": {"preset": args.preset}, "master_seed": args.seed,
                                "protocol.n_bits": args.bits, "protocol.samples_per_bit": args.samples_per_bit})
    # every number printed comes from this report, the one `kljnsim simulate` writes, except the
    # two chi-squared CDF values, which the report does not carry
    report = build_report(cfg, empirical=True)
    net = cfg.network
    moments = report["analytic"]["moments"]
    probs, exact = report["analytic"]["probabilities"], report["analytic"]["exact"]

    print(f"network: {args.preset}  (r_alice={net.r_alice:g}, r_bob={net.r_bob:g}, "
          f"r_series={net.r_series:g}, r_shunt={net.r_shunt})")
    print()
    print("analytic")
    print(f"  <i_alice^2> = {moments['ms_alice']:.6e}   <i_bob^2> = {moments['ms_bob']:.6e}")
    print(f"  ratio       = {moments['ratio']:.4f}")
    print(f"  chi2_cdf_1(ratio) = {chi2_cdf_1(moments['ratio']):.4f}   chi2_cdf_1(1) = {chi2_cdf_1(1.0):.4f}")
    print(f"  p_success = {probs['p_success']:.4f}  p_error = {probs['p_error']:.4f}  "
          f"p_no_answer = {probs['p_no_answer']:.4f}")
    print(f"  expected measurements per answered bit = {probs['expected_measurements']:.3f}")
    print(f"  fidelity of an emitted guess           = {probs['conditional_fidelity']:.4f}")
    print()
    print(f"exact simultaneous-reading model  (rho = {exact['rho']:.4f})")
    print(f"  p_success = {exact['p_success']:.4f}  p_error = {exact['p_error']:.4f}  "
          f"p_no_answer = {exact['p_no_answer']:.4f}")
    print(f"  expected measurements per answered bit = {exact['expected_measurements']:.3f}")
    print(f"  fidelity of an emitted guess           = {exact['conditional_fidelity']:.4f}")
    print()

    emp = report["empirical"]
    att = emp["attack"]
    rep = att["repeat_until_answer"]
    print(f"monte carlo  (bits={args.bits}, samples/bit={args.samples_per_bit}, seed={args.seed})")
    print(f"  secure periods = {emp['n_secure']}  secure fraction = {emp['secure_fraction']:.4f}")
    print(f"  empirical ratio = {emp['ratio']:.4f}")
    print(f"  p_success = {att['p_success']:.4f}  p_error = {att['p_error']:.4f}  "
          f"p_no_answer = {att['p_no_answer']:.4f}   ({att['n_trials']} trials)")
    print(f"  mean measurements per answered bit = {rep['mean_measurements']:.4f}")
    print(f"  guess fidelity = {rep['conditional_fidelity']:.4f}")
    print(f"  alarm rate on secure periods = {emp['alarm']['trigger_rate_secure']:.4f}  "
          f"(mean windowed rel. difference {emp['alarm']['mean_rel_difference_secure']:.3f})")
    print()
    deviations = report["agreement"]["deviation_se"]
    print("deviation from each model in standard errors   exact  independent")

    def se(deviation):  # null where the model's SE is 0, as on a loop without a shunt
        return "null" if deviation is None else f"{deviation:+.2f}"

    for name, deviation in deviations["independent"].items():
        print(f"  {name:<44} {se(deviations['exact'][name]):>6}  {se(deviation):>11}")
    print()

    def error(p):  # NaN where the comparison never answers, as where the two end currents are one
        return "never answers" if math.isnan(p) else f"{p:.4g}"

    law, comparison = exact["comparison"], att["comparison"]
    n_compared = comparison["n_periods"] - comparison["n_no_answer"]
    print("current comparison  (the end with the larger sum of i^2 holds the low resistor)")
    print(f"  exact        error at 1 reading = {error(law['p_error_one_reading'])}   "
          f"at {law['readings']} readings (one period) = {error(law['p_error'])}")
    print(f"  monte carlo  error = {error(comparison['p_error'])}   ({comparison['n_error']} errors in "
          f"{n_compared} periods that answered, {comparison['n_no_answer']} ties)")
    print(f"  deviation from the exact error in standard errors = {se(deviations['exact']['comparison_p_error'])}")


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # a config error or a bad invocation (a ConfigError): exit 1, as the CLI does
        sys.exit(f"reproduce_headline_numbers.py: config error: {exc}")
