import math
import sys
import threading

import numpy as np
import pytest

from kljnsim import noise
from kljnsim.circuit import NORMALIZED, NoiseSpec
from kljnsim.noise import (
    SeededStream,
    band_limited_stream,
    gaussian_stream,
    lowpass_kernel,
)
from kljnsim.protocol import CHUNK_SAMPLES

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

    def test_requested_length(self):
        assert band_limited_stream(gen(1, 0), WAVE, 1, 777).shape == (1, 777)
        assert band_limited_stream(gen(1, 0), WAVE, 3, 777).shape == (3, 777)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_rows_filtered_separately(self, rows):
        # one draw of white noise for all rows, then each row on its own,
        # equal bit for bit to np.convolve with the public kernel although
        # the filter reads the taps from the cached reversed copy
        for oversample in (2, 3, 8, 16):
            spec = NoiseSpec(mode="waveform", oversample=oversample)
            h = lowpass_kernel(oversample)
            for n in (1, 100, 777, CHUNK_SAMPLES + 1, 40_000):
                out = band_limited_stream(gen(3, n), spec, rows, n)
                white = gen(3, n).standard_normal((rows, n + h.size - 1))
                assert out.shape == (rows, n)
                for r in range(rows):
                    assert np.array_equal(out[r], np.convolve(white[r], h, mode="valid"))
                assert not np.shares_memory(out, noise._reversed_kernel(oversample))


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


class TestReversedKernel:
    def test_built_once_per_oversample(self):
        noise._reversed_kernel.cache_clear()
        first = {o: noise._reversed_kernel(o) for o in (2, 8)}
        for o in (8, 2, 8):
            assert noise._reversed_kernel(o) is first[o]
        assert noise._reversed_kernel.cache_info().misses == 2

    @pytest.mark.parametrize("oversample", [2, 3, 8, 16])
    def test_cache_line_aligned_and_reversed(self, oversample):
        # np.convolve(a, rev[::-1]) reverses the buffer back onto itself, so
        # numpy's C correlate reads it in place, from a 64-byte boundary
        rev = noise._reversed_kernel(oversample)
        assert rev.ctypes.data % 64 == 0
        assert rev.flags.c_contiguous and rev.flags.writeable
        assert np.array_equal(rev, lowpass_kernel(oversample)[::-1])

    def test_first_build_on_many_threads_at_once(self):
        # more threads than CPUs race to build both caches; each filters with
        # whichever equal kernel it got, so every output is the same
        spec = NoiseSpec(mode="waveform", oversample=4)
        expected = band_limited_stream(gen(8, 0), spec, 2, 3000)
        noise.lowpass_kernel.cache_clear()
        noise._reversed_kernel.cache_clear()
        outputs = [None] * 8

        def filter_into(i):
            outputs[i] = band_limited_stream(gen(8, 0), spec, 2, 3000)

        threads = [threading.Thread(target=filter_into, args=(i,)) for i in range(len(outputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for out in outputs:
            assert np.array_equal(out, expected)
        assert noise._reversed_kernel(4).ctypes.data % 64 == 0
