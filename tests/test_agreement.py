"""The report's agreement section on correct runs, judged against the exact simultaneous-reading model.

Runs of 20000 periods of 100 samples, as the README's ``simulate`` command,
on each preset.  At seed 7 every agreement boolean holds.  At seeds 1 and 7
every empirical rate lies within 3 standard errors of the exact model;
where its deviation is null (a model rate of 0 or 1, as on a loop without a
shunt, whose two readings are one), the run gives the model's value
exactly.  The independent-reading product lies far outside on the presets
with a correlated pair of readings.  Each report is built once per module.
A network whose two readings are proportional to far below rounding passes
every check too, in runs of 200 periods.  Eve's current comparison lies
within 3 standard errors of its exact law I_x(n/2, n/2), in these runs and
in a waveform run; where its law never answers, no period's comparison
answers.  The ratio check holds on a pad with large series elements, which
the closed-form ratio neglects.
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
    if model == "exact":  # only the exact model has a law for the current comparison
        empirical["comparison_p_error"] = attack["comparison"]["p_error"]
        modelled["comparison_p_error"] = probs["comparison"]["p_error"]
    return empirical, modelled


def checks_of(report):
    """The agreement section's booleans, by name."""
    return {name: value for name, value in report["agreement"].items() if name != "deviation_se"}


@pytest.mark.parametrize("preset", PRESETS)
def test_every_agreement_check_holds_at_seed_7(reports, preset):
    checks = checks_of(reports[preset, 7])
    assert len(checks) == 7
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
    checks = checks_of(report)
    assert len(checks) == 7
    assert checks == dict.fromkeys(checks, True)
    # the comparison's law never answers there, and every period's two sums tie
    assert report["analytic"]["exact"]["comparison"]["p_error"] is None
    comparison = report["empirical"]["attack"]["comparison"]
    assert comparison["n_no_answer"] == comparison["n_periods"] > 0


def comparison_deviation(report):
    """The comparison's error rate over the periods whose comparison answered, less its exact law, in binomial SEs."""
    comparison = report["empirical"]["attack"]["comparison"]
    law = report["analytic"]["exact"]["comparison"]["p_error"]
    n = comparison["n_periods"] - comparison["n_no_answer"]
    return (comparison["n_error"] / n - law) / math.sqrt(law * (1 - law) / n)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", ["gaa-1db", "gaa-0p1db"])
def test_comparison_within_3_se_of_its_exact_law(reports, preset, seed):
    report = reports[preset, seed]
    law = report["analytic"]["exact"]["comparison"]
    assert law["readings"] == 100
    assert abs(comparison_deviation(report)) <= 3
    assert report["agreement"]["deviation_se"]["exact"]["comparison_p_error"] == pytest.approx(
        comparison_deviation(report), rel=1e-12
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_lossless_comparison_never_answers(reports, seed):
    # one current at both ends: every period's two sums are one sum
    report = reports["lossless", seed]
    assert report["analytic"]["exact"]["comparison"] == {"readings": 100, "p_error_one_reading": None, "p_error": None}
    comparison = report["empirical"]["attack"]["comparison"]
    assert comparison["n_no_answer"] == comparison["n_periods"] > 0
    assert (comparison["n_error"], comparison["p_error"], comparison["p_error_ci99"]) == (0, None, None)
    assert report["agreement"]["comparison_p_error_ci_covers_analytic"] is True
    assert report["agreement"]["deviation_se"]["exact"]["comparison_p_error"] is None


def test_comparison_in_waveform_mode():
    # 400 samples at stride 8 hold 50 readings, one correlation time apart; their lag
    # correlation of about 0.026 is left out of the law and of its SE
    keys = {"network": {"preset": "gaa-0p1db"}, "noise.mode": "waveform", "master_seed": 1}
    cfg = resolve_config(None, {**keys, "protocol.n_bits": 4000, "protocol.samples_per_bit": 400})
    report = json.loads(report_json(build_report(cfg, empirical=True)))
    assert report["analytic"]["exact"]["comparison"]["readings"] == 50
    assert abs(comparison_deviation(report)) <= 3
    assert report["agreement"]["comparison_p_error_ci_covers_analytic"] is True


@pytest.mark.parametrize("seed", SEEDS)
def test_ratio_check_keeps_the_series_elements(seed):
    # 500-ohm series elements: the run's ratio, about 3.068, is the exact one, while the
    # closed form, which neglects them, gives 4.956
    network = {"r_alice": 1000, "r_bob": 10000, "pad": {"r_series": 500, "r_shunt": 500}}
    cfg = resolve_config(None, {"network": network, "master_seed": seed, "protocol.n_bits": 20000})
    report = json.loads(report_json(build_report(cfg, empirical=True)))
    assert report["empirical"]["ratio"] == pytest.approx(report["analytic"]["exact"]["ratio"], rel=0.02)
    assert report["empirical"]["ratio"] != pytest.approx(report["analytic"]["moments"]["ratio"], rel=0.02)
    assert report["agreement"]["ratio_within_2pct"] is True
