import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.stats import (
    analytic_attack_probabilities,
    chi2_cdf_1,
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

