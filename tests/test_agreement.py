"""The report's agreement section on correct runs, judged against the exact simultaneous-reading model.

Runs of 20000 periods of 100 samples, as the README's ``simulate`` command,
on each preset.  At seed 7 every agreement boolean holds.  At seeds 1 and 7
every empirical rate lies within 3 standard errors of the exact model;
where its deviation is null (a model rate of 0 or 1, as on a loop without a
shunt, whose two readings are one), the run gives the model's value
exactly.  The independent-reading product lies far outside on the presets
with a correlated pair of readings.  Each report is built once per module.
A network whose two readings are proportional to far below rounding passes
every check too, in runs of 200 periods.
"""

import json
import math

import pytest

from kljnsim.config import resolve_config
from kljnsim.reporting import build_report, report_json

PRESETS = ("gaa-1db", "gaa-0p1db", "lossless")
SEEDS = (1, 7)
RATES = ("p_success", "p_error", "p_no_answer")
# each model of agreement.deviation_se, by the analytic section's key for it
MODELS = {"exact": "exact", "independent": "probabilities"}


@pytest.fixture(scope="module")
def reports():
    """The report of each preset and seed, as ``simulate`` writes it (non-finite numbers as null)."""

    def report(preset, seed):
        keys = {"network": {"preset": preset}, "master_seed": seed, "protocol.n_bits": 20000}
        cfg = resolve_config(None, {**keys, "protocol.samples_per_bit": 100})
        return json.loads(report_json(build_report(cfg, empirical=True)))

    return {(preset, seed): report(preset, seed) for preset in PRESETS for seed in SEEDS}


def empirical_and_model(report, model):
    """Each rate that ``agreement.deviation_se`` judges, by its name there: the run's value and ``model``'s."""
    attack = report["empirical"]["attack"]
    repeat = attack["repeat_until_answer"]
    probs = report["analytic"][MODELS[model]]
    empirical = {name: attack[name] for name in RATES}
    empirical.update(conditional_fidelity=repeat["conditional_fidelity"], mean_measurements=repeat["mean_measurements"])
    modelled = {name: probs[name] for name in RATES}
    modelled.update(
        conditional_fidelity=probs["conditional_fidelity"], mean_measurements=probs["expected_measurements"]
    )
    return empirical, modelled


@pytest.mark.parametrize("preset", PRESETS)
def test_every_agreement_check_holds_at_seed_7(reports, preset):
    agreement = reports[preset, 7]["agreement"]
    checks = {name: value for name, value in agreement.items() if name != "deviation_se"}
    assert len(checks) == 6
    assert checks == dict.fromkeys(checks, True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_every_rate_within_3_se_of_the_exact_model(reports, preset, seed):
    report = reports[preset, seed]
    empirical, model = empirical_and_model(report, "exact")
    deviations = report["agreement"]["deviation_se"]["exact"]
    assert set(deviations) == set(model)
    for name, deviation in deviations.items():
        if deviation is None:
            assert empirical[name] == model[name], name
        else:
            assert abs(deviation) <= 3, name


def test_deviation_is_the_difference_over_the_models_standard_error(reports):
    report = reports["gaa-1db", 7]
    attack = report["empirical"]["attack"]
    repeat = attack["repeat_until_answer"]
    for model in MODELS:
        empirical, probs = empirical_and_model(report, model)
        deviations = report["agreement"]["deviation_se"][model]
        for name in RATES:
            p = probs[name]
            se = math.sqrt(p * (1 - p) / attack["n_trials"])
            assert deviations[name] == pytest.approx((empirical[name] - p) / se, rel=1e-12)
        f = probs["conditional_fidelity"]
        se = math.sqrt(f * (1 - f) / repeat["n_answered"])
        assert deviations["conditional_fidelity"] == pytest.approx((empirical["conditional_fidelity"] - f) / se, rel=1e-12)
        q = 1 / probs["mean_measurements"]  # one answer in 1/q readings, with SD sqrt(1 - q)/q
        se = math.sqrt(1 - q) / q / math.sqrt(repeat["n_answered"])
        expected = (empirical["mean_measurements"] - probs["mean_measurements"]) / se
        assert deviations["mean_measurements"] == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("preset", ["gaa-0p1db", "lossless"])
def test_the_independent_product_lies_far_outside(reports, preset):
    # Eve's two readings are correlated through the shunt (rho 0.85 on gaa-0p1db) or identical (lossless)
    deviations = reports[preset, 7]["agreement"]["deviation_se"]["independent"]
    assert all(abs(deviations[name]) > 100 for name in RATES)


# the CI's found.json network: r_bob about 1e287 below a 1-ohm shunt, so Eve's two readings are
# proportional to far below rounding (rho 1.0), yet not exactly
FOUND = {"r_alice": 1e53, "r_bob": 1e-287, "pad": {"r_series": 0, "r_shunt": 1}}


@pytest.mark.parametrize("seed", [2, 7])
def test_every_agreement_check_holds_on_readings_proportional_below_rounding(seed):
    # the exact model's rates there are 0 to within its quadrature's error, and so are the run's
    cfg = resolve_config(None, {"network": FOUND, "master_seed": seed, "protocol.n_bits": 200})
    report = json.loads(report_json(build_report(cfg, empirical=True)))
    assert (report["analytic"]["exact"]["p_success"], report["analytic"]["exact"]["p_error"]) == (0.0, 0.0)
    checks = {name: value for name, value in report["agreement"].items() if name != "deviation_se"}
    assert len(checks) == 6
    assert checks == dict.fromkeys(checks, True)
