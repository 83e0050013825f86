import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kljnsim.noise import (
    NORMALIZED,
    NoiseSpec,
    SeededStream,
    band_limited_stream,
    gaussian_stream,
    johnson_rms,
    lowpass_kernel,
)

WAVE = NoiseSpec(mode="waveform", oversample=8)


class TestNoiseSpec:
    def test_normalized_scale_is_one(self):
        assert NoiseSpec().unit_scale == 1.0

    def test_si_scale(self):
        spec = NoiseSpec(t_eff=300.0, bandwidth=5000.0)
        assert spec.unit_scale == pytest.approx(4 * 1.380649e-23 * 300 * 5000, rel=1e-14)

    def test_correlation_time(self):
        # one correlation time is 1/(2B)
        assert 1.0 / (2.0 * NoiseSpec(bandwidth=500.0).bandwidth) == pytest.approx(1e-3)

    def test_measurement_stride(self):
        assert NoiseSpec().measurement_stride == 1
        assert WAVE.measurement_stride == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_eff": -3.0},
            {"t_eff": "kelvinish"},
            {"bandwidth": 0.0},
            {"mode": "continuous"},
            {"mode": "waveform", "oversample": 1},
            {"mode": "independent", "oversample": 1},
            # the noise scale 4*k*T*B overflows to inf, or underflows to 0
            {"t_eff": 1e300, "bandwidth": 1e300},
            {"t_eff": 1e-300, "bandwidth": 1e-300},
            # non-finite fields, also where the normalized scale would hide them
            {"t_eff": math.nan},
            {"t_eff": math.inf},
            {"bandwidth": math.nan},
            {"bandwidth": math.inf},
            {"bandwidth": -math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)


class TestJohnsonRms:
    def test_normalized(self):
        assert johnson_rms(1000.0, NoiseSpec()) == pytest.approx(math.sqrt(1000.0), rel=1e-15)

    def test_zero_resistance(self):
        assert johnson_rms(0.0, NoiseSpec()) == 0.0

    def test_si_value(self):
        # independent arithmetic oracle with k = 1.380649e-23
        spec = NoiseSpec(t_eff=300.0, bandwidth=5000.0)
        assert johnson_rms(1000.0, spec) == pytest.approx(2.878175463727e-7, rel=1e-10)

    @given(r=st.floats(min_value=1e-3, max_value=1e9))
    @settings(max_examples=50)
    def test_quadrupled_resistance_doubles_rms(self, r):
        spec = NoiseSpec()
        assert johnson_rms(4.0 * r, spec) == 2.0 * johnson_rms(r, spec)


def gen(seed, stream_id):
    return SeededStream(seed, stream_id).generator()


class TestGaussianStream:
    def test_moments(self):
        n = 1_000_000
        x = gaussian_stream(gen(42, 0), 1, n)[0]
        assert abs(x.mean()) < 4.0 / math.sqrt(n)
        assert abs(x.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)

    def test_deterministic(self):
        a = gaussian_stream(gen(7, 3), 4, 1024)
        b = gaussian_stream(gen(7, 3), 4, 1024)
        assert a.shape == (4, 1024)
        assert np.array_equal(a, b)

    def test_streams_differ_and_decorrelate(self):
        n = 200_000
        a = gaussian_stream(gen(7, 1), 1, n)[0]
        b = gaussian_stream(gen(7, 2), 1, n)[0]
        assert not np.array_equal(a, b)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(n)

    def test_master_seed_changes_stream(self):
        a = gaussian_stream(gen(1, 5), 1, 1024)
        b = gaussian_stream(gen(2, 5), 1, 1024)
        assert not np.array_equal(a, b)

    def test_rejects_empty_request(self):
        for rows, n in [(1, 0), (0, 1)]:
            with pytest.raises(ValueError):
                gaussian_stream(gen(1, 0), rows, n)

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError):
            SeededStream(1, -1)


class TestBandLimitedStream:
    def test_unit_variance(self):
        x = band_limited_stream(gen(11, 0), WAVE, 1, 100_000)
        assert x.var() == pytest.approx(1.0, abs=0.03)

    def test_decorrelated_after_one_correlation_time(self):
        # one correlation time spans `oversample` samples at the waveform rate
        n = 100_000
        x = band_limited_stream(gen(11, 1), WAVE, 1, n)[0]
        lag = WAVE.oversample
        rho = float(np.corrcoef(x[:-lag], x[lag:])[0, 1])
        assert abs(rho) < 0.05

    def test_neighbor_samples_strongly_correlated(self):
        x = band_limited_stream(gen(11, 2), WAVE, 1, 50_000)[0]
        rho = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        assert rho > 0.9

    def test_deterministic(self):
        a = band_limited_stream(gen(0, 0), WAVE, 2, 2048)
        b = band_limited_stream(gen(0, 0), WAVE, 2, 2048)
        assert np.array_equal(a, b)

    def test_rejects_independent_mode(self):
        with pytest.raises(ValueError):
            band_limited_stream(gen(1, 0), NoiseSpec(), 1, 100)

    def test_requested_length(self):
        assert band_limited_stream(gen(1, 0), WAVE, 1, 777).shape == (1, 777)
        assert band_limited_stream(gen(1, 0), WAVE, 3, 777).shape == (3, 777)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rows_filtered_separately(self, rows):
        # one draw of white noise for all rows, then each row on its own
        h = lowpass_kernel(WAVE.oversample)
        out = band_limited_stream(gen(3, 0), WAVE, rows, 100)
        white = gen(3, 0).standard_normal((rows, 100 + h.size - 1))
        for r in range(rows):
            assert np.array_equal(out[r], np.convolve(white[r], h, mode="valid"))


class TestLowpassKernel:
    def test_unit_energy(self):
        h = lowpass_kernel(8)
        assert float(np.sum(h * h)) == pytest.approx(1.0, rel=1e-12)

    def test_built_once_and_read_only(self):
        h = lowpass_kernel(8)
        assert lowpass_kernel(8) is h
        assert not h.flags.writeable

    def test_design_decorrelation(self):
        # kernel autocorrelation at one correlation time is the theoretical
        # lag correlation of the filtered noise
        for oversample in (2, 4, 8, 16):
            h = lowpass_kernel(oversample)
            rho = float(np.sum(h[:-oversample] * h[oversample:]))
            assert abs(rho) < 0.05
