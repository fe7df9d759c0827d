from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lfisensor import (
    CalibrationError,
    FramingError,
    GroundTruth,
    ParameterError,
    PipelineConfig,
    calibrate,
    frame_spectrum,
    slice_cycle,
    sliding_average,
    subtract_floor,
    synthetic_cycles,
)
from lfisensor.spectral import Calibration, RampSpectrum, bin_frequencies

from conftest import make_wp


def _tone_frame(wp, frequency, phase=0.0, amplitude=1.0):
    t = np.arange(wp.samples_per_ramp) / wp.sampling_rate
    return amplitude * np.cos(2 * np.pi * frequency * t + phase)


def _direct_windowed_dft(frame, fft_bins, bins, fs):
    """Independent oracle: naive DFT of the Hamming-windowed frame."""
    windowed = frame * np.hamming(len(frame))
    n = np.arange(len(frame))
    out = []
    for k in bins:
        out.append(abs(np.sum(windowed * np.exp(-2j * np.pi * k * n / fft_bins))))
    return np.array(out)


def test_slice_cycle_partitions_equally():
    wp = make_wp()
    samples = np.arange(wp.samples_per_cycle, dtype=float)
    frames = slice_cycle(samples, wp)
    assert [len(f) for f in frames] == [wp.samples_per_ramp] * 4
    np.testing.assert_array_equal(np.concatenate(frames), samples)


def test_slice_cycle_wrong_length():
    wp = make_wp()
    with pytest.raises(FramingError, match="cycle"):
        slice_cycle(np.zeros(wp.samples_per_cycle - 1), wp)


def test_spectrum_of_exact_bin_tone():
    wp = make_wp()
    k = 200
    f = k * wp.sampling_rate / 2048
    spec = frame_spectrum(_tone_frame(wp, f), wp, 2048)
    assert int(np.argmax(spec.magnitudes)) == k
    assert spec.magnitudes.size == 1024
    assert spec.bin_frequencies[1] - spec.bin_frequencies[0] == pytest.approx(
        wp.sampling_rate / 2048
    )


def test_spectrum_of_zero_frame():
    wp = make_wp()
    spec = frame_spectrum(np.zeros(wp.samples_per_ramp), wp)
    np.testing.assert_array_equal(spec.magnitudes, 0.0)


def test_spectrum_matches_direct_dft_between_bins():
    wp = make_wp()
    f = 150.4 * wp.sampling_rate / 2048  # off bin center
    frame = _tone_frame(wp, f, phase=0.3)
    spec = frame_spectrum(frame, wp, 2048)
    check_bins = np.arange(140, 162)
    oracle = _direct_windowed_dft(frame, 2048, check_bins, wp.sampling_rate)
    np.testing.assert_allclose(spec.magnitudes[check_bins], oracle, rtol=1e-9)
    assert int(np.argmax(spec.magnitudes)) == 150  # max at nearest bin
    assert spec.magnitudes[151] > spec.magnitudes[149] * 0.2  # energy splits


def test_spectrum_linearity_in_amplitude():
    wp = make_wp()
    f = 123.0 * wp.sampling_rate / 2048
    one = frame_spectrum(_tone_frame(wp, f, amplitude=1.0), wp)
    two = frame_spectrum(_tone_frame(wp, f, amplitude=2.0), wp)
    k = int(np.argmax(one.magnitudes))
    assert two.magnitudes[k] == pytest.approx(2.0 * one.magnitudes[k], rel=1e-9)


def test_fft_bins_preconditions():
    wp = make_wp()
    frame = np.zeros(wp.samples_per_ramp)
    with pytest.raises(ParameterError, match="fft_bins"):
        frame_spectrum(frame, wp, fft_bins=256)  # < frame length
    with pytest.raises(ParameterError, match="power of two"):
        frame_spectrum(frame, wp, fft_bins=1000)


def _spectrum(wp, magnitudes, ramp_index=0):
    return RampSpectrum(
        ramp_index=ramp_index,
        bin_frequencies=bin_frequencies(wp, 2048),
        magnitudes=np.asarray(magnitudes, dtype=float),
    )


def test_sliding_average_identity_and_constant():
    wp = make_wp()
    spec = _spectrum(wp, np.random.default_rng(0).uniform(size=1024))
    out = sliding_average([spec])
    np.testing.assert_array_equal(out.magnitudes, spec.magnitudes)
    out3 = sliding_average([spec, spec, spec])
    np.testing.assert_allclose(out3.magnitudes, spec.magnitudes, rtol=1e-15)


def test_sliding_average_shape_mismatch():
    wp = make_wp()
    a = _spectrum(wp, np.ones(1024))
    b = RampSpectrum(0, a.bin_frequencies[:512], np.ones(512))
    with pytest.raises(FramingError, match="shape"):
        sliding_average([a, b])
    with pytest.raises(FramingError):
        sliding_average([])


def test_sliding_average_noise_reduction_monte_carlo():
    # Oracle: Monte-Carlo sample sigma of averaged iid bins vs raw bins.
    wp = make_wp()
    rng = np.random.default_rng(7)
    n_avg, trials = 16, 1000
    raw = np.abs(rng.normal(1.0, 0.1, size=(trials, n_avg, 8)))
    averaged = np.stack(
        [
            sliding_average([_spectrum(wp, np.tile(w[i], 128)) for i in range(n_avg)])
            .magnitudes[:8]
            for w in raw
        ]
    )
    ratio = averaged.std(axis=0).mean() / raw[:, 0, :].std(axis=0).mean()
    assert ratio == pytest.approx(0.25, rel=0.15)


def test_calibrate_constant_floor():
    wp = make_wp(hp_cutoff=0.0)
    # Constant synthetic magnitude floor: identical cycles.
    cycle = np.tile(
        np.cos(2 * np.pi * 50e3 * np.arange(wp.samples_per_ramp) / wp.sampling_rate), 4
    )
    cal = calibrate([cycle.copy() for _ in range(20)], wp)
    assert cal.reference_mean.shape == cal.reference_sigma.shape == (4, 1024)
    assert cal.n_cycles == 20
    for mean, sigma in zip(cal.reference_mean, cal.reference_sigma):
        k = int(np.argmax(mean))
        assert mean[k] > 0
        np.testing.assert_allclose(sigma, 0.0, atol=1e-9)


def test_calibrate_white_noise_sigma_matches_monte_carlo():
    wp = make_wp(hp_cutoff=0.0)
    cycles = synthetic_cycles(
        wp, GroundTruth(0.0, 0.0), 0.0, noise_sigma=1.0, seed=21, n_cycles=256
    )
    cal = calibrate(cycles, wp)
    # Oracle: direct Monte-Carlo of windowed white-noise FFT magnitudes.
    rng = np.random.default_rng(900)
    window = np.hamming(wp.samples_per_ramp)
    mags = []
    for _ in range(256):
        padded = np.zeros(2048)
        padded[: wp.samples_per_ramp] = rng.normal(0, 1.0, wp.samples_per_ramp) * window
        mags.append(np.abs(np.fft.rfft(padded)[:1024]))
    oracle_sigma = np.median(np.std(np.stack(mags), axis=0, ddof=1))
    measured = np.median(cal.reference_sigma[0, 50:])
    assert measured == pytest.approx(oracle_sigma, rel=0.2)


def test_calibrate_too_few_cycles():
    wp = make_wp()
    cycles = [np.zeros(wp.samples_per_cycle)] * 15
    with pytest.raises(CalibrationError, match="16"):
        calibrate(cycles, wp)
    with pytest.raises(CalibrationError):
        calibrate([], wp)


def test_subtract_floor_cases():
    wp = make_wp()
    x = _spectrum(wp, np.full(1024, 5.0))
    mean, sigma = np.full(1024, 2.0), np.full(1024, 4.0)
    exact = subtract_floor(_spectrum(wp, mean), mean, sigma, 1.0, 0.0)
    np.testing.assert_array_equal(exact.magnitudes, 0.0)
    identity = subtract_floor(x, mean, sigma, 0.0, 0.0)
    np.testing.assert_array_equal(identity.magnitudes, x.magnitudes)
    floored = subtract_floor(x, mean, sigma, 1.0, 1.0)  # 5 - 2 - 4 -> 0
    np.testing.assert_array_equal(floored.magnitudes, 0.0)


def test_subtract_floor_shape_mismatch_and_bad_factors():
    wp = make_wp()
    x = _spectrum(wp, np.ones(1024))
    with pytest.raises(FramingError, match="shape"):
        subtract_floor(x, np.zeros(512), np.zeros(512))
    with pytest.raises(ParameterError):
        subtract_floor(x, np.zeros(1024), np.zeros(1024), alpha=-1.0)


@given(
    mags=arrays(np.float64, 64, elements=st.floats(0, 1e3)),
    ref=arrays(np.float64, 64, elements=st.floats(0, 1e3)),
    alpha=st.floats(0, 3),
    beta=st.floats(0, 3),
)
@settings(max_examples=50, deadline=None)
def test_subtract_floor_bounded(mags, ref, alpha, beta):
    wp = make_wp()
    spec = RampSpectrum(0, bin_frequencies(wp, 2048)[:64], mags)
    out = subtract_floor(spec, ref, ref * 0.1, alpha, beta)
    assert np.all(out.magnitudes >= 0.0)
    assert np.all(out.magnitudes <= mags)


def test_average_and_subtract_commute_without_flooring():
    wp = make_wp()
    rng = np.random.default_rng(3)
    mean, sigma = np.full(1024, 0.5), np.zeros(1024)
    history = [_spectrum(wp, rng.uniform(10.0, 20.0, 1024)) for _ in range(5)]
    avg_then_sub = subtract_floor(sliding_average(history), mean, sigma)
    sub_then_avg = sliding_average([subtract_floor(s, mean, sigma) for s in history])
    np.testing.assert_allclose(
        avg_then_sub.magnitudes, sub_then_avg.magnitudes, rtol=1e-12
    )


def test_calibration_save_load_round_trip(tmp_path):
    wp = make_wp()
    rng = np.random.default_rng(4)
    cycles = [rng.normal(0.0, 1.0, wp.samples_per_cycle) for _ in range(16)]
    cal = calibrate(cycles, wp)
    path = tmp_path / "cal.json"
    cal.save(path)
    back = Calibration.load(path)
    assert back.n_bins == cal.n_bins == 2048
    assert back.sampling_rate == cal.sampling_rate
    assert back.samples_per_ramp == cal.samples_per_ramp
    assert back.n_cycles == cal.n_cycles == 16
    np.testing.assert_array_equal(back.reference_mean, cal.reference_mean)
    np.testing.assert_array_equal(back.reference_sigma, cal.reference_sigma)


def test_calibration_compatibility_checks(tmp_path):
    wp = make_wp()
    cal = calibrate([np.zeros(wp.samples_per_cycle) for _ in range(16)], wp)
    cal.check_compatible(wp, 2048)
    with pytest.raises(CalibrationError, match="FFT size"):
        cal.check_compatible(wp, 4096)
    other = make_wp(sampling_rate=1e6)
    with pytest.raises(CalibrationError):
        cal.check_compatible(other, 2048)


def test_calibration_equality_compares_values():
    wp = make_wp()
    zeros = [np.zeros(wp.samples_per_cycle) for _ in range(16)]
    a, b = calibrate(zeros, wp), calibrate(zeros, wp)
    assert a == b and not a != b
    assert PipelineConfig(wp, a) == PipelineConfig(wp, b)
    for name in ("reference_mean", "reference_sigma"):
        other = calibrate(zeros, wp)
        getattr(other, name)[2, 100] = 1e-3  # one bin of one ramp
        assert a != other and not a == other
        assert PipelineConfig(wp, a) != PipelineConfig(wp, other)
    assert a != replace(a, n_cycles=17)
    assert a != replace(a, samples_per_ramp=400)
    assert a != "calibration"
