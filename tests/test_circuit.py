import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.circuit import (
    AttenuatorConfig,
    NetworkConfig,
    analytic_mean_square_currents,
    design_tee_pad,
    NoiseSpec,
    parallel_resistance,
)
from kljnsim.protocol import solve_network

NOISE = NoiseSpec()  # normalized: 4kTB = 1
GAA = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, 500.0), label="gaa-1db")
GAA_NO_SERIES = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(0.0, 500.0))
LOSSLESS = NetworkConfig(1000.0, 10000.0, None)



def solve(u_alice, u_bob, net: NetworkConfig):
    return solve_network(u_alice, u_bob, net.r_alice, net.r_bob, net.pad)


resistances = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestParallelResistance:
    def test_basic(self):
        assert parallel_resistance(10000.0, 500.0) == pytest.approx(476.190476, rel=1e-8)
        assert parallel_resistance(1000.0, 500.0) == pytest.approx(333.333333, rel=1e-8)

    def test_open_branch(self):
        assert parallel_resistance(1000.0, None) == 1000.0

    def test_zero(self):
        assert parallel_resistance(0.0, 500.0) == 0.0


class TestAnalyticMoments:
    def test_gaa_values(self):
        # frozen from an independent high-precision evaluation of the
        # two-generator noise analysis
        m = analytic_mean_square_currents(GAA, NOISE)
        assert m.ms_alice == pytest.approx(4.6930280957336e-4, rel=1e-10)
        assert m.ms_bob == pytest.approx(9.4693028095734e-5, rel=1e-10)
        assert m.ratio == pytest.approx(4.956043956044, rel=1e-10)

    def test_headline_ratio(self):
        m = analytic_mean_square_currents(GAA, NOISE)
        assert abs(m.ratio - 4.95) <= 0.01

    def test_series_element_ignored_in_closed_form(self):
        with_r1 = analytic_mean_square_currents(GAA, NOISE)
        without_r1 = analytic_mean_square_currents(GAA_NO_SERIES, NOISE)
        assert with_r1 == without_r1

    def test_lossless_equal_moments(self):
        m = analytic_mean_square_currents(LOSSLESS, NOISE)
        assert m.ms_alice == m.ms_bob == pytest.approx(1.0 / 11000.0, rel=1e-12)
        assert m.ratio == 1.0

    def test_equal_resistors_no_pad(self):
        m = analytic_mean_square_currents(NetworkConfig(1000.0, 1000.0), NOISE)
        assert m.ratio == 1.0

    def test_rejects_nonpositive_resistance(self):
        with pytest.raises(ValueError):
            NetworkConfig(0.0, 10000.0)
        with pytest.raises(ValueError):
            NetworkConfig(1000.0, -5.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="r_alice must be finite"):
                NetworkConfig(bad, 10000.0)
            with pytest.raises(ValueError, match="r_bob must be finite"):
                NetworkConfig(1000.0, bad)

    @given(ra=resistances, rb=resistances, r2=resistances)
    @settings(max_examples=60)
    def test_swap_symmetry(self, ra, rb, r2):
        pad = AttenuatorConfig(0.0, r2)
        m = analytic_mean_square_currents(NetworkConfig(ra, rb, pad), NOISE)
        swapped = analytic_mean_square_currents(NetworkConfig(rb, ra, pad), NOISE)
        assert swapped.ms_alice == m.ms_bob
        assert swapped.ms_bob == m.ms_alice
        assert swapped.ratio == m.ratio

    @given(t_eff=st.floats(min_value=1e3, max_value=1e20), bandwidth=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=40)
    def test_scale_invariance_of_ratio(self, t_eff, bandwidth):
        scaled = NoiseSpec(t_eff=t_eff, bandwidth=bandwidth)
        base = analytic_mean_square_currents(GAA, NOISE)
        m = analytic_mean_square_currents(GAA, scaled)
        assert m.ratio == base.ratio  # bit-identical, computed before scaling
        assert m.ms_alice == pytest.approx(base.ms_alice * scaled.unit_scale, rel=1e-12)
        assert m.ms_bob == pytest.approx(base.ms_bob * scaled.unit_scale, rel=1e-12)

    def test_ratio_monotone_toward_one_as_shunt_opens(self):
        grid = [100.0, 500.0, 2e3, 1e4, 1e5, 1e7, 1e9]
        ratios = [
            analytic_mean_square_currents(
                NetworkConfig(1000.0, 10000.0, AttenuatorConfig(0.0, r2)), NOISE
            ).ratio
            for r2 in grid
        ]
        assert all(r >= 1.0 for r in ratios)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-5)

    def test_superposition_consistency(self):
        # moments must equal sum of squared transfer coefficients weighted
        # by the generator variances, exactly, when no series element hides
        # inside the loop
        net = GAA_NO_SERIES
        g_aa = solve(1.0, 0.0, net)[0]
        g_ab = solve(0.0, 1.0, net)[0]
        g_ba = solve(1.0, 0.0, net)[1]
        g_bb = solve(0.0, 1.0, net)[1]
        m = analytic_mean_square_currents(net, NOISE)
        ms_alice = net.r_alice * g_aa**2 + net.r_bob * g_ab**2
        ms_bob = net.r_alice * g_ba**2 + net.r_bob * g_bb**2
        assert ms_alice == pytest.approx(m.ms_alice, rel=1e-13)
        assert ms_bob == pytest.approx(m.ms_bob, rel=1e-13)


class TestCurrentRatio:
    def test_matches_moments_field(self):
        m = analytic_mean_square_currents(GAA, NOISE)
        assert m.ratio == max(m.ms_alice, m.ms_bob) / min(m.ms_alice, m.ms_bob)

    def test_equal_moments(self):
        assert analytic_mean_square_currents(LOSSLESS, NOISE).ratio == 1.0

    def test_orientation_free(self):
        swapped = NetworkConfig(GAA.r_bob, GAA.r_alice, GAA.pad)
        m, m_swapped = (analytic_mean_square_currents(n, NOISE) for n in (GAA, swapped))
        assert m.ratio == m_swapped.ratio
        assert (m.ms_alice, m.ms_bob) == (m_swapped.ms_bob, m_swapped.ms_alice)


class TestSolveNetwork:
    def test_single_loop_ohms_law(self):
        i_a, i_b, _ = solve(1.0, 0.0, LOSSLESS)
        assert i_a == i_b == pytest.approx(1.0 / 11000.0, rel=1e-14)

    def test_zero_drive(self):
        i_a, i_b, v = solve(0.0, 0.0, GAA)
        assert i_a == i_b == v == 0.0

    def test_two_loop_hand_nodal_analysis(self):
        # independent hand solution: v = 10/31 V for 1 V at Alice's end
        i_a, i_b, v = solve(1.0, 0.0, GAA_NO_SERIES)
        assert v == pytest.approx(10.0 / 31.0, rel=1e-13)
        assert i_a == pytest.approx(21.0 / 31.0 / 1000.0, rel=1e-13)
        assert i_b == pytest.approx(10.0 / 31.0 / 10000.0, rel=1e-13)

    def test_series_elements_kept_exactly(self):
        net = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, None))
        i_a, i_b, _ = solve(1.0, 0.0, net)
        assert i_a == i_b == pytest.approx(1.0 / 11005.8, rel=1e-14)

    @given(u_a=st.floats(-100, 100), u_b=st.floats(-100, 100))
    @settings(max_examples=60)
    def test_single_loop_current_identity(self, u_a, u_b):
        i_a, i_b, _ = solve(u_a, u_b, LOSSLESS)
        assert i_a == i_b

    @pytest.mark.parametrize(
        "pad, overwrite",
        [(None, False), (AttenuatorConfig(2.9, None), False), (None, True), (AttenuatorConfig(2.9, None), True)],
        ids=["no-pad", "series-only", "no-pad-overwrite", "series-only-overwrite"],
    )
    def test_single_loop_returns_one_array_for_both_ends(self, pad, overwrite):
        # the trace CSV writer converts the current to text once when both ends share it
        u = np.random.default_rng(5).standard_normal((2, 3, 4))
        i_a, i_b, v = solve_network(u[0], u[1], 1000.0, 10000.0, pad, overwrite_sources=overwrite)
        assert i_a is i_b
        assert v is not i_a

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_shunt_returns_distinct_arrays(self, overwrite):
        u = np.random.default_rng(5).standard_normal((2, 3, 4))
        i_a, i_b, v = solve_network(u[0], u[1], 1000.0, 10000.0, GAA.pad, overwrite_sources=overwrite)
        assert len({id(i_a), id(i_b), id(v)}) == 3
        assert not np.array_equal(i_a, i_b)

    def test_node_current_conservation(self):
        i_a, i_b, v = solve(0.7, -1.3, GAA)
        shunt_current = v / GAA.r_shunt
        assert i_a - i_b == pytest.approx(shunt_current, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        u_a = np.array([1.0, 0.0, 0.7])
        u_b = np.array([0.0, 1.0, -1.3])
        i_a, i_b, v = solve(u_a, u_b, GAA)
        for k in range(3):
            assert solve(float(u_a[k]), float(u_b[k]), GAA) == (i_a[k], i_b[k], v[k])

    @pytest.mark.parametrize("pad", [GAA.pad, None, AttenuatorConfig(2.9, None)], ids=["shunt", "no-pad", "no-shunt"])
    def test_per_row_resistors_match_scalar_solves(self, pad):
        # one broadcast solve over a block whose rows have their own end resistors
        r_a = np.array([1000.0, 10000.0, 1000.0])[:, None]
        r_b = np.array([10000.0, 10000.0, 1000.0])[:, None]
        u = np.random.default_rng(3).standard_normal((2, 3, 4))
        i_a, i_b, v = solve_network(u[0], u[1], r_a, r_b, pad)
        for k in range(3):
            row = solve_network(u[0][k], u[1][k], float(r_a[k, 0]), float(r_b[k, 0]), pad)
            assert all(np.array_equal(x[k], y) for x, y in zip((i_a, i_b, v), row))


def _pad_residuals(pad: AttenuatorConfig, z0: float, loss_db: float) -> tuple[float, float]:
    """Oracle checks straight from the definitions: terminated input
    impedance and terminated voltage attenuation."""
    through = parallel_resistance(pad.r_shunt, pad.r_series + z0)
    z_in = pad.r_series + through
    v_node = through / (pad.r_series + through)
    v_out = v_node * z0 / (pad.r_series + z0)
    return z_in - z0, v_out - 10.0 ** (-loss_db / 20.0)


class TestDesignTeePad:
    @pytest.mark.parametrize("loss_db", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_conditions_hold(self, loss_db):
        pad = design_tee_pad(loss_db, 50.0)
        dz, da = _pad_residuals(pad, 50.0, loss_db)
        assert abs(dz) < 1e-9
        assert abs(da) < 1e-9

    def test_one_db_values(self):
        pad = design_tee_pad(1.0, 50.0)
        assert pad.r_series == pytest.approx(2.875, abs=5e-4)
        assert pad.r_shunt == pytest.approx(433.3, abs=0.05)

    def test_tenth_db_values(self):
        pad = design_tee_pad(0.1, 50.0)
        assert pad.r_series == pytest.approx(0.288, abs=5e-4)
        assert pad.r_shunt == pytest.approx(4343.0, abs=1.0)

    def test_zero_loss_is_identity_pad(self):
        pad = design_tee_pad(0.0, 50.0)
        assert pad.r_series == 0.0
        assert pad.r_shunt is None

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            design_tee_pad(-1.0, 50.0)

    def test_rejects_bad_impedance(self):
        with pytest.raises(ValueError):
            design_tee_pad(1.0, 0.0)


class TestAttenuatorConfig:
    def test_rejects_negative_series(self):
        with pytest.raises(ValueError):
            AttenuatorConfig(-1.0, 500.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r_series must be finite"):
                AttenuatorConfig(bad, 500.0)

    def test_rejects_nonpositive_shunt(self):
        with pytest.raises(ValueError):
            AttenuatorConfig(0.0, 0.0)
        # an open shunt is None, never a float infinity
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="r_shunt must be finite"):
                AttenuatorConfig(0.0, bad)

    def test_no_shunt_is_single_loop(self):
        net = NetworkConfig(1000.0, 10000.0, AttenuatorConfig(2.9, None))
        assert net.r_shunt is None
        assert GAA.r_shunt is not None

    def test_defaults_are_a_straight_through_pad(self):
        assert AttenuatorConfig() == AttenuatorConfig(0.0, None)
