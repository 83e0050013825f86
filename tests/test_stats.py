import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kljnsim.circuit import AttenuatorConfig, NetworkConfig, NoiseSpec, connection_records
from kljnsim.config import PRESETS, ExperimentConfig
from kljnsim.reporting import analytic_section
from kljnsim.stats import (
    EveCalibration,
    analytic_attack_probabilities,
    calibrate,
    _comparison_law,
    _symmetric_beta,
    chi2_cdf_1,
    comparison_error,
    end_correlation,
    exact_attack_probabilities,
    mean_square_ratio,
    wilson_ci,
)


class TestChi2Cdf1:
    def test_threshold_anchor(self):
        assert round(chi2_cdf_1(4.95), 3) == 0.974

    def test_unit_anchor(self):
        assert round(chi2_cdf_1(1.0), 3) == 0.683
        assert chi2_cdf_1(1.0) == pytest.approx(0.6826894921, abs=1e-9)

    def test_origin(self):
        assert chi2_cdf_1(0.0) == 0.0

    def test_against_scipy_oracle(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        grid = np.linspace(0.0, 40.0, 400)
        ours = np.array([chi2_cdf_1(float(x)) for x in grid])
        reference = scipy_stats.chi2.cdf(grid, df=1)
        assert np.max(np.abs(ours - reference)) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=80)
    def test_monotone_and_bounded(self, x):
        v = chi2_cdf_1(x)
        assert 0.0 <= v <= 1.0
        assert chi2_cdf_1(x + 0.5) >= v


class TestAnalyticAttackProbabilities:
    def test_headline_set(self):
        # exact chi-squared products, frozen from an independent evaluation
        p = analytic_attack_probabilities(4.95)
        assert p.p_success == pytest.approx(0.3090316646, abs=1e-9)
        assert p.p_error == pytest.approx(0.0178118252, abs=1e-9)
        assert p.p_no_answer == pytest.approx(0.6731565102, abs=1e-9)

    def test_headline_set_printed_precision(self):
        p = analytic_attack_probabilities(4.95)
        assert round(p.p_success, 2) == 0.31
        assert round(p.p_error, 3) == 0.018
        assert round(p.p_no_answer, 2) == 0.67

    def test_expected_measurements(self):
        p = analytic_attack_probabilities(4.95)
        assert p.expected_measurements == pytest.approx(3.0595684, abs=1e-6)
        assert p.expected_measurements == pytest.approx(1.0 / (p.p_success + p.p_error), rel=1e-15)

    def test_conditional_fidelity(self):
        p = analytic_attack_probabilities(4.95)
        assert p.conditional_fidelity == pytest.approx(p.p_success / (p.p_success + p.p_error))
        assert p.conditional_fidelity > 0.94

    def test_unit_ratio_is_symmetric(self):
        p = analytic_attack_probabilities(1.0)
        assert p.p_success == p.p_error == pytest.approx(0.2166245495, abs=1e-9)

    @given(st.floats(min_value=1.0, max_value=1e4))
    @settings(max_examples=100)
    def test_probabilities_sum_to_one(self, ratio):
        p = analytic_attack_probabilities(ratio)
        assert 0.0 <= p.p_success <= 1.0
        assert 0.0 <= p.p_error <= 1.0
        assert 0.0 <= p.p_no_answer <= 1.0
        assert abs(p.p_success + p.p_error + p.p_no_answer - 1.0) < 1e-12

    def test_error_decreases_and_margin_grows_with_ratio(self):
        grid = [1.0, 1.5, 2.0, 3.0, 4.95, 8.0, 20.0, 100.0]
        probs = [analytic_attack_probabilities(r) for r in grid]
        errors = [p.p_error for p in probs]
        margins = [p.p_success - p.p_error for p in probs]
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        assert all(a <= b for a, b in zip(margins, margins[1:]))


def secure_records(preset):
    """The LH and HL transfer records of a preset network, with Eve's calibration."""
    net, noise = PRESETS[preset], NoiseSpec()
    records = connection_records(net, noise)
    return (records[0][1], records[1][0]), calibrate(net, noise)


def record_of(cut_alice, cut_bob, rho):
    """A transfer record whose end readings have correlation ``rho`` and, at unit calibration, the given cuts."""
    sa, sb = 1.0 / cut_alice, 1.0 / cut_bob  # at norm_constant 1 and threshold 1 an end exceeds when |Z| > 1/rms
    return (sa, 0.0, sb * rho, sb * math.sqrt(1.0 - rho * rho), 0.0, 0.0)


class TestExactAttackProbabilities:
    # Frozen bivariate-normal orthant oracle of simultaneous readings, the one
    # tests/test_attack.py and bench/gate.py hold for gaa-1db.
    @pytest.mark.parametrize(
        "preset, rho, rates, fidelity, measurements",
        [
            ("gaa-1db", 0.2515, (0.305916, 0.015511, 0.678573), 0.951744, 3.111126),
            ("gaa-0p1db", 0.8496, (0.132627, 0.070329, 0.797045), 0.653477, 4.927193),
        ],
    )
    def test_reproduces_the_frozen_oracle(self, preset, rho, rates, fidelity, measurements):
        records, cal = secure_records(preset)
        for record in records:  # both secure orientations
            p = exact_attack_probabilities(record, cal)
            assert round(end_correlation(record), 4) == rho
            assert tuple(round(x, 6) for x in p[:3]) == rates
            assert round(p.conditional_fidelity, 6) == fidelity
            assert round(p.expected_measurements, 6) == measurements

    def test_lossless_readings_never_answer(self):
        records, cal = secure_records("lossless")
        for record in records:
            p = exact_attack_probabilities(record, cal)
            assert (p.p_success, p.p_error, p.p_no_answer) == (0.0, 0.0, 1.0)
            assert p.expected_measurements == math.inf
            assert math.isnan(p.conditional_fidelity)
            assert end_correlation(record) == 1.0

    def test_uncorrelated_readings_give_the_independent_product(self):
        p = exact_attack_probabilities(record_of(1.0, math.sqrt(4.95), 0.0), EveCalibration(1.0, 1.0))
        q = analytic_attack_probabilities(4.95)
        for x, y in zip(p, q):
            assert x == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("rho", [2.2250738585e-313, 5e-324, -5e-324])
    def test_subnormal_correlation_gives_the_independent_product(self, rho):
        # a / rho overflows here; the readings are independent to far below rounding
        p = exact_attack_probabilities(record_of(1.0, math.sqrt(4.95), rho), EveCalibration(1.0, 1.0))
        q = analytic_attack_probabilities(4.95)
        for x, y in zip(p, q):
            assert x == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize("rho", [1.0 - 1e-6, -(1.0 - 1e-9)])
    def test_nearly_identical_readings(self, rho):
        # |Z_s| and |Z_w| differ by about 1e-3 at most, so the weak end never exceeds 5 while the strong
        # end stays below 0.2: no error, and success exactly when the strong reading lies in 0.2 < |Z| < 5
        p = exact_attack_probabilities(record_of(0.2, 5.0, rho), EveCalibration(1.0, 1.0))
        assert abs(p.p_error) < 1e-14
        assert p.p_success == pytest.approx(math.erf(5.0 / math.sqrt(2.0)) - math.erf(0.2 / math.sqrt(2.0)), abs=1e-14)

    @pytest.mark.parametrize("e", [-900, 1000])
    def test_noise_scale_far_from_one(self, e):
        # at bandwidth 2**e the product of the two mean squares leaves the double range;
        # scaling the noise by a power of two scales every current exactly, so nothing may move
        net = PRESETS["gaa-1db"]
        noise = NoiseSpec(t_eff=300.0, bandwidth=math.ldexp(1.0, e))
        record, cal = connection_records(net, noise)[0][1], calibrate(net, noise)
        unit = NoiseSpec(t_eff=300.0, bandwidth=1.0)
        unit_record, unit_cal = connection_records(net, unit)[0][1], calibrate(net, unit)
        assert end_correlation(record) == end_correlation(unit_record)
        assert exact_attack_probabilities(record, cal) == exact_attack_probabilities(unit_record, unit_cal)

    @given(
        cut_alice=st.floats(min_value=0.05, max_value=4.0),
        cut_bob=st.floats(min_value=0.05, max_value=4.0),
        rho=st.floats(min_value=-0.995, max_value=0.995),
    )
    @settings(max_examples=30, deadline=None)
    def test_against_bivariate_normal_monte_carlo(self, cut_alice, cut_bob, rho):
        n = 400_000
        z_a, z_2 = np.random.default_rng(2014).standard_normal((2, n))
        z_b = rho * z_a + math.sqrt(1.0 - rho * rho) * z_2
        above_a, above_b = np.abs(z_a) > cut_alice, np.abs(z_b) > cut_bob
        # the end with the larger mean square, the smaller cut, holds the low resistor
        alice_low = cut_alice <= cut_bob
        strong_alone = np.mean(above_a & ~above_b) if alice_low else np.mean(above_b & ~above_a)
        weak_alone = np.mean(above_b & ~above_a) if alice_low else np.mean(above_a & ~above_b)
        p = exact_attack_probabilities(record_of(cut_alice, cut_bob, rho), EveCalibration(1.0, 1.0))
        for exact, sampled in ((p.p_success, strong_alone), (p.p_error, weak_alone)):
            se = math.sqrt(exact * (1.0 - exact) / n) + 1.0 / n
            assert abs(sampled - exact) < 5.0 * se


class TestComparisonError:
    """Eve's current comparison over n readings of the LH record errs with probability I_x(n/2, n/2)."""

    # checked against scipy.special.betainc at the eigenvalues of diag(1, -1) times the record's covariance
    @pytest.mark.parametrize(
        "preset, errors",
        [("gaa-1db", (0.2640, 3.474e-15, 1.475e-28)), ("gaa-0p1db", (0.4231, 0.007757, 3.053e-4))],
    )
    def test_reproduces_the_table(self, preset, errors):
        (record, _), _ = secure_records(preset)
        assert tuple(float(f"{comparison_error(record, n):.4g}") for n in (1, 100, 200)) == errors

    @pytest.mark.parametrize("preset", ["gaa-1db", "gaa-0p1db"])
    def test_against_betainc_at_the_eigenvalues(self, preset):
        betainc = pytest.importorskip("scipy.special").betainc
        (record, _), _ = secure_records(preset)
        rows = np.array(record[:4]).reshape(2, 2)
        lam_minus, lam_plus = sorted(np.linalg.eigvals(np.diag([1.0, -1.0]) @ rows @ rows.T).real.tolist())
        x = -lam_minus / (lam_plus - lam_minus)
        for n in (1, 2, 10, 100, 200, 1000):
            # far-tail digits move with x's last bits, by about n/2 times its rounding
            assert comparison_error(record, n) == pytest.approx(betainc(n / 2, n / 2, x), rel=1e-11)

    def test_lossless_comparison_never_answers(self):
        # one current at both ends: the statistic is identically 0 and its error undefined
        (record, _), _ = secure_records("lossless")
        assert all(math.isnan(comparison_error(record, n)) for n in (1, 100, 200))

    def test_readings_proportional_below_rounding_never_answer(self):
        # r_bob about 1e287 below a 1-ohm shunt: the two readings agree to about 1e-117, so the
        # statistic is 0 to within one rounding of the squares it sums, and a run's sums tie
        net = NetworkConfig(1e53, 1e-287, AttenuatorConfig(0.0, 1.0))
        record = connection_records(net, NoiseSpec())[0][1]
        assert all(math.isnan(comparison_error(record, n)) for n in (1, 100, 200))

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 5.0, 50.0, 500.0, 5000.0])
    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.1, 0.25, 0.3, 0.45, 0.499, 0.5, 0.7])
    def test_incomplete_beta_against_betainc(self, a, x):
        # relative accuracy in the far tails, n = 2a readings up to 10**4
        betainc = pytest.importorskip("scipy.special").betainc
        expected = betainc(a, a, x)
        if expected < 1e-300:  # below the normal range, where relative accuracy ends
            assert _symmetric_beta(a, x, 1.0 - x) < 1e-290
        else:
            assert _symmetric_beta(a, x, 1.0 - x) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(rows=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_reading_is_sheppards_orthant_probability(self, rows):
        # i_a**2 - i_b**2 = U*V with U = i_a + i_b and V = i_a - i_b, which has the
        # opposite sign with probability 1/2 - arcsin(rho_UV)/pi (Sheppard, 1899)
        aa, ab, ba, bb = rows
        ms_a, ms_b, cov = aa * aa + ab * ab, ba * ba + bb * bb, aa * ba + ab * bb
        var_u, var_v = ms_a + ms_b + 2.0 * cov, ms_a + ms_b - 2.0 * cov
        assume(min(var_u, var_v) > 1e-6)
        rho_uv = (ms_a - ms_b) / math.sqrt(var_u * var_v)
        assume(abs(rho_uv) < 0.99)  # where the arcsine of this rho keeps its digits
        expected = 0.5 - math.asin(rho_uv) / math.pi
        assert comparison_error((aa, ab, ba, bb, 0.0, 0.0), 1) == pytest.approx(expected, rel=1e-9, abs=1e-14)

    @pytest.mark.parametrize("preset", ["gaa-1db", "gaa-0p1db"])
    def test_below_the_bhattacharyya_bound(self, preset):
        # the Bayes error at equal priors lies below half the Bhattacharyya coefficient of
        # the LH and HL laws, raised to the number of readings (Kailath, 1967)
        (lh, hl), _ = secure_records(preset)
        covs = [np.array(r[:4]).reshape(2, 2) @ np.array(r[:4]).reshape(2, 2).T for r in (lh, hl)]
        dets = [np.linalg.det(c) for c in covs]
        bc = (dets[0] * dets[1]) ** 0.25 / math.sqrt(np.linalg.det((covs[0] + covs[1]) / 2))
        for n in (1, 10, 100, 200, 1000):
            assert comparison_error(lh, n) < 0.5 * bc**n

    @pytest.mark.parametrize("n, periods", [(1, 40_000), (100, 20_000)])
    def test_against_bivariate_normal_monte_carlo(self, n, periods):
        (record, _), _ = secure_records("gaa-0p1db")
        aa, ab, ba, bb = record[:4]
        z_a, z_b = np.random.default_rng(2014).standard_normal((2, periods, n))
        i_a, i_b = aa * z_a + ab * z_b, ba * z_a + bb * z_b
        sampled = np.mean(np.einsum("ij,ij->i", i_b, i_b) > np.einsum("ij,ij->i", i_a, i_a))
        exact = comparison_error(record, n)
        assert abs(sampled - exact) < 3.0 * math.sqrt(exact * (1.0 - exact) / periods)

    @pytest.mark.parametrize("alpha, beta", [(1.0, -1.0), (0.9, -1.0), (-1.0, 0.9), (2.0, -0.25)])
    @pytest.mark.parametrize("n", [1, 50])
    def test_weighted_law_of_independent_readings(self, alpha, beta, n):
        # u = z_1 and w = 3*z_2 give the form alpha*X + 9*beta*Y, with X and Y independent chi-squared
        # of n degrees and X / (X + Y) of law Beta(n/2, n/2); it is negative on one side of
        # x = 9|beta| / (|alpha| + 9|beta|), below it where alpha > 0 and above it where alpha < 0
        special = pytest.importorskip("scipy.special")
        x = 9.0 * abs(beta) / (abs(alpha) + 9.0 * abs(beta))
        tail = special.betainc if alpha > 0 else special.betaincc
        p = _comparison_law((1.0, 0.0), (0.0, 3.0), n, (alpha, beta))
        assert p == pytest.approx(tail(n / 2, n / 2, x), rel=1e-12)

    def test_readings_far_apart_in_scale(self):
        # u = 2**500 * z_1 outweighs w = 3 * 2**-500 * z_2 beyond any double
        assert _comparison_law((2.0**500, 0.0), (0.0, 3.0 * 2.0**-500), 10) == 0.0
        assert _comparison_law((0.0, 3.0 * 2.0**-500), (2.0**500, 0.0), 10) == 1.0

    @pytest.mark.parametrize("e", [-900, 1000])
    def test_noise_scale_far_from_one(self, e):
        # scaling the noise by a power of two scales every current exactly, so nothing may move
        net = PRESETS["gaa-0p1db"]
        record = connection_records(net, NoiseSpec(t_eff=300.0, bandwidth=math.ldexp(1.0, e)))[0][1]
        unit_record = connection_records(net, NoiseSpec(t_eff=300.0, bandwidth=1.0))[0][1]
        assert comparison_error(record, 100) == comparison_error(unit_record, 100)


class TestMeanSquareRatio:
    """The exact mean-square ratio of the low-resistor end to the high-resistor end, series elements kept."""

    @pytest.mark.parametrize("preset, ratio", [("gaa-1db", 4.939812), ("gaa-0p1db", 1.295637), ("lossless", 1.0)])
    def test_presets(self, preset, ratio):
        exact = analytic_section(ExperimentConfig(network=PRESETS[preset]))["exact"]
        (lh, hl), _ = secure_records(preset)
        assert round(exact["ratio"], 6) == ratio
        assert exact["ratio"] == mean_square_ratio(lh)
        # the HL record has the ends swapped
        assert mean_square_ratio(hl) == pytest.approx(1.0 / ratio, rel=1e-6)

    def test_lossless_ratio_is_exactly_one(self):
        assert analytic_section(ExperimentConfig(network=PRESETS["lossless"]))["exact"]["ratio"] == 1.0

    @pytest.mark.parametrize("e", [-900, 900])
    def test_noise_scale_far_from_one(self, e):
        # each mean square is scaled by 2**e, the ratio by nothing
        net = PRESETS["gaa-1db"]
        noise = NoiseSpec(t_eff=300.0, bandwidth=math.ldexp(1.0, e))
        ratio = analytic_section(ExperimentConfig(network=net, noise=noise))["exact"]["ratio"]
        unit = connection_records(net, NoiseSpec(t_eff=300.0, bandwidth=1.0))[0][1]
        assert math.isfinite(ratio) and ratio == mean_square_ratio(unit)


class TestWilsonCi:
    def test_zero_successes_lower_bound(self):
        assert wilson_ci(0, 50, 1.96)[0] == 0.0

    def test_all_successes_upper_bound(self):
        assert wilson_ci(50, 50, 1.96)[1] == 1.0

    def test_hand_evaluated_case(self):
        lo, hi = wilson_ci(500, 1000, 1.96)
        assert lo == pytest.approx(0.4690690342, abs=1e-9)
        assert hi == pytest.approx(0.5309309658, abs=1e-9)

    @given(
        trials=st.integers(min_value=1, max_value=10_000),
        z=st.floats(min_value=0.1, max_value=5.0),
        data=st.data(),
    )
    @settings(max_examples=80)
    def test_contained_in_unit_interval(self, trials, z, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        lo, hi = wilson_ci(successes, trials, z)
        assert 0.0 <= lo <= hi <= 1.0
        assert lo <= successes / trials <= hi

