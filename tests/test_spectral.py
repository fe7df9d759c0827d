import math
from dataclasses import replace
from types import SimpleNamespace

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
    PipelineState,
    calibrate,
    magnitude_spectra,
    read_frames,
    synthetic_cycles,
)
from lfisensor.simulator import STREAM_BLOCK
from lfisensor.spectral import (MIN_CALIBRATION_CYCLES, Calibration, bin_frequencies,
                                remove_floor, row_medians)

from conftest import make_wp, write_offset_export


def _tone_frame(wp, frequency, phase=0.0, amplitude=1.0):
    t = np.arange(wp.samples_per_ramp) / wp.sampling_rate
    return amplitude * np.cos(2 * np.pi * frequency * t + phase)


def _spectrum(wp, frame, fft_bins=2048):
    """Magnitude spectrum of one frame: the first row of a cycle of four copies."""
    return magnitude_spectra([np.tile(frame, 4)], wp, np.hamming(len(frame)), fft_bins, 0)[0]


def _direct_windowed_dft(frame, fft_bins, bins, fs):
    """Independent oracle: naive DFT of the Hamming-windowed frame."""
    windowed = frame * np.hamming(len(frame))
    n = np.arange(len(frame))
    out = []
    for k in bins:
        out.append(abs(np.sum(windowed * np.exp(-2j * np.pi * k * n / fft_bins))))
    return np.array(out)


def test_spectra_rows_are_the_ramps_of_each_cycle_in_order():
    # Row 4c + r is ramp r of cycle c, each the transform of its own frame alone.
    wp = make_wp()
    cycles = np.random.default_rng(5).normal(size=(3, wp.samples_per_cycle))
    frames = cycles.reshape(12, wp.samples_per_ramp)
    window = np.hamming(wp.samples_per_ramp)
    oracle = np.abs(np.fft.rfft(frames * window, 2048)[:, :1024])
    np.testing.assert_array_equal(magnitude_spectra(cycles, wp, window, 2048, 0), oracle)
    np.testing.assert_array_equal(magnitude_spectra(cycles[1:2], wp, window, 2048, 1), oracle[4:8])


def test_a_returned_stack_survives_the_next_call():
    # Each call returns a new stack, which the caller may keep or change in place.
    wp = make_wp()
    cycles = np.random.default_rng(6).normal(size=(2, wp.samples_per_cycle))
    window = np.hamming(wp.samples_per_ramp)
    first = magnitude_spectra(cycles[:1], wp, window, 2048, 0)
    kept = first.copy()
    second = magnitude_spectra(cycles[1:], wp, window, 2048, 1)
    np.testing.assert_array_equal(first, kept)
    assert not np.shares_memory(first, second)


def test_calibrate_refuses_a_cycle_of_the_wrong_length():
    wp = make_wp()
    with pytest.raises(FramingError, match=f"expected cycles of {wp.samples_per_cycle} samples"):
        calibrate([np.zeros(wp.samples_per_cycle - 1)] * 16, wp)
    with pytest.raises(FramingError, match="differ in length"):
        calibrate([np.zeros(wp.samples_per_cycle)] * 3 + [np.zeros(7)] * 13, wp)


def test_spectrum_of_exact_bin_tone():
    wp = make_wp()
    k = 200
    f = k * wp.sampling_rate / 2048
    mags = _spectrum(wp, _tone_frame(wp, f))
    assert int(np.argmax(mags)) == k
    assert mags.size == 1024
    freqs = bin_frequencies(wp, 2048)
    assert freqs.size == 1024
    assert freqs[1] - freqs[0] == pytest.approx(wp.sampling_rate / 2048)


def test_spectrum_of_zero_frame():
    wp = make_wp()
    np.testing.assert_array_equal(_spectrum(wp, np.zeros(wp.samples_per_ramp)), 0.0)


def test_spectrum_matches_direct_dft_between_bins():
    wp = make_wp()
    f = 150.4 * wp.sampling_rate / 2048  # off bin center
    frame = _tone_frame(wp, f, phase=0.3)
    mags = _spectrum(wp, frame)
    check_bins = np.arange(140, 162)
    oracle = _direct_windowed_dft(frame, 2048, check_bins, wp.sampling_rate)
    np.testing.assert_allclose(mags[check_bins], oracle, rtol=1e-9)
    assert int(np.argmax(mags)) == 150  # max at nearest bin
    assert mags[151] > mags[149] * 0.2  # energy splits


def test_spectrum_linearity_in_amplitude():
    wp = make_wp()
    f = 123.0 * wp.sampling_rate / 2048
    one = _spectrum(wp, _tone_frame(wp, f, amplitude=1.0))
    two = _spectrum(wp, _tone_frame(wp, f, amplitude=2.0))
    k = int(np.argmax(one))
    assert two[k] == pytest.approx(2.0 * one[k], rel=1e-9)


def test_fft_bins_preconditions():
    wp = make_wp()
    cycles = [np.zeros(wp.samples_per_cycle)] * 16
    with pytest.raises(ParameterError, match="fft_bins"):
        calibrate(cycles, wp, fft_bins=256)  # < frame length
    with pytest.raises(ParameterError, match="power of two"):
        calibrate(cycles, wp, fft_bins=1000)


def _assert_an_offset_replay_calibrates_as_aligned(stem, skip, n_cycles):
    # The reference comes from the whole cycles a replay yields past the sync offset;
    # the offset is only recorded, so that a pipeline at another one refuses it.
    wp = make_wp()
    aligned = np.random.default_rng(skip).normal(size=(n_cycles + 1, wp.samples_per_cycle))
    aligned = aligned.astype("<f4")
    write_offset_export(stem, wp, aligned, skip)
    replayed = calibrate(read_frames(stem, wp, skip), wp, 2048, skip)
    assert replayed.sync_offset_samples == skip
    assert replayed == replace(calibrate(aligned[:n_cycles], wp), sync_offset_samples=skip)


@pytest.mark.parametrize("offset, n_cycles", [
    pytest.param(1, STREAM_BLOCK, id="1"),
    pytest.param(40, STREAM_BLOCK + 1, id="40"),
    pytest.param(1999, 2 * STREAM_BLOCK + 5, id="1999"),
])
def test_calibrate_rotates_each_cycle_by_the_sync_offset(tmp_path, offset, n_cycles):
    # Each cycle a replay at the offset yields starts that many samples into the
    # capture's cycle: the rotation the pipeline's front end sees, made once where
    # the replay starts.  The counts straddle the block the replay is read in.
    _assert_an_offset_replay_calibrates_as_aligned(tmp_path / "frames", offset, n_cycles)


@given(skip=st.integers(1, make_wp().samples_per_cycle - 1),
       n_cycles=st.integers(MIN_CALIBRATION_CYCLES, 2 * STREAM_BLOCK + 5))
@settings(max_examples=10, deadline=None)
def test_calibrate_of_an_offset_replay_equals_the_aligned_calibration(tmp_path_factory, skip,
                                                                      n_cycles):
    stem = tmp_path_factory.mktemp("offset") / "frames"
    _assert_an_offset_replay_calibrates_as_aligned(stem, skip, n_cycles)


@pytest.mark.parametrize("offset", [-1, 2000])
def test_calibrate_refuses_a_sync_offset_outside_the_cycle(offset):
    wp = make_wp()
    with pytest.raises(ParameterError, match=r"sync_offset_samples must be in \[0, 2000\)"):
        calibrate([np.zeros(wp.samples_per_cycle)] * 16, wp, 2048, offset)


def _window(n_avg, bins):
    """An empty sliding-average window of ``n_avg`` spectra per ramp, as a
    config of those settings gets it (``for_config`` reads no other key)."""
    return PipelineState.for_config(SimpleNamespace(n_avg=n_avg, fft_bins=2 * bins))


def _push(state, spectra):
    """The window mean after ``spectra``, pushed in a copy that it overwrites."""
    average = spectra.copy()
    state.push(average)
    return average


def test_a_one_spectrum_window_leaves_the_spectra_and_never_writes_the_ring():
    rng = np.random.default_rng(4)
    state = _window(1, 1024)
    for t in range(3):
        spectra = rng.uniform(size=(4, 1024)) * 10.0 ** rng.integers(-300, 300, size=(4, 1))
        spectra[0, :4] = [0.0, -0.0, 5e-324, math.nan]
        pushed = spectra.copy()
        n_window = state.push(pushed)
        assert pushed.tobytes() == spectra.tobytes()
        assert (state.cycles_seen, n_window) == (t + 1, 1)
    assert state.ring.nbytes == 0


def test_sliding_average_identity_and_constant():
    spectra = np.random.default_rng(0).uniform(size=(4, 1024))
    state = _window(3, 1024)
    np.testing.assert_array_equal(_push(state, spectra), spectra)
    _push(state, spectra)
    np.testing.assert_allclose(_push(state, spectra), spectra, rtol=1e-15)


def test_sliding_average_noise_reduction_monte_carlo():
    # Oracle: Monte-Carlo sample sigma of averaged iid bins vs raw bins.
    rng = np.random.default_rng(7)
    n_avg, trials = 16, 1000
    raw = np.abs(rng.normal(1.0, 0.1, size=(trials, n_avg, 8)))
    averaged = []
    for window in raw:
        state = _window(n_avg, 8)
        for bins in window:
            mean = _push(state, np.tile(bins, (4, 1)))  # the same bins on every ramp
        averaged.append(mean[0])
    averaged = np.stack(averaged)
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
    with pytest.raises(CalibrationError, match=">= 16 no-target cycles, got 1"):
        calibrate(cycles[:1], wp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_calibrate_refuses_a_non_finite_sample_naming_its_cycle_and_ramp(bad):
    # Through the pipeline's checks: no FFT warning (inf) and no unnamed
    # "reference_mean must be finite" (NaN), in a later block too.
    wp = make_wp()
    cycles = [np.zeros(wp.samples_per_cycle) for _ in range(2 * STREAM_BLOCK)]
    bad_cycle = STREAM_BLOCK + 3
    cycles[bad_cycle][2 * wp.samples_per_ramp + 9] = bad
    with pytest.raises(FramingError, match=f"non-finite sample in cycle {bad_cycle}, ramp 2"):
        calibrate(cycles, wp)


@pytest.mark.parametrize("bad", [1e300, -1e39])
def test_calibrate_refuses_a_sample_beyond_float32_naming_its_cycle_and_ramp(bad):
    wp = make_wp()
    cycles = [np.zeros(wp.samples_per_cycle) for _ in range(2 * STREAM_BLOCK)]
    bad_cycle = STREAM_BLOCK + 3
    cycles[bad_cycle][2 * wp.samples_per_ramp + 9] = bad
    with pytest.raises(FramingError,
                       match=f"beyond the float32 range in cycle {bad_cycle}, ramp 2"):
        calibrate(cycles, wp)


def test_calibrate_takes_a_one_shot_generator_like_a_list():
    # A source is drawn once, in blocks; perfbench's generator relies on it.
    wp = make_wp()

    def source():
        return synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 0.3, seed=3, n_cycles=37)

    assert calibrate(source(), wp) == calibrate(list(source()), wp)


def test_calibrate_mean_is_the_stack_mean_and_sigma_the_sample_sigma():
    # The mean is a running sum over the count, np.mean's to the bit; Welford's
    # sigma agrees with the two-pass ddof=1 sigma to rounding.
    wp = make_wp()
    cycles = np.random.default_rng(8).normal(size=(2 * STREAM_BLOCK + 7, wp.samples_per_cycle))
    window = np.hamming(wp.samples_per_ramp)
    stack = magnitude_spectra(cycles, wp, window, 2048, 0).reshape(len(cycles), 4, 1024)
    cal = calibrate(cycles, wp)
    np.testing.assert_array_equal(cal.reference_mean, stack.mean(axis=0))
    np.testing.assert_allclose(cal.reference_sigma, stack.std(axis=0, ddof=1), rtol=1e-13)


def _subtract(x, mean, sigma, alpha=1.0, beta=0.0):
    """Floor subtraction as the pipeline scales it, on a copy of a (4, bins) stack."""
    cleaned = x.copy()
    remove_floor(cleaned, alpha * mean, beta * sigma)
    return cleaned


def test_subtract_floor_cases():
    x = np.full((4, 1024), 5.0)
    mean, sigma = np.full((4, 1024), 2.0), np.full((4, 1024), 4.0)
    np.testing.assert_array_equal(_subtract(mean, mean, sigma, 1.0, 0.0), 0.0)
    np.testing.assert_array_equal(_subtract(x, mean, sigma, 0.0, 0.0), x)
    np.testing.assert_array_equal(_subtract(x, mean, sigma, 1.0, 1.0), 0.0)  # 5 - 2 - 4 -> 0
    stack = x.copy()
    remove_floor(stack, mean, 0.0 * sigma)  # in place
    np.testing.assert_array_equal(stack, 3.0)


def test_a_zero_sigma_is_skipped_bit_for_bit(wp, quiet_cal):
    # At beta 0 the config keeps no sigma and the floor subtracts none; the
    # three-step form subtracts beta * sigma, all +0.0, which changes no float.
    assert PipelineConfig(wp, quiet_cal).scaled_sigma is None
    assert PipelineConfig(wp, quiet_cal, beta=0.5).scaled_sigma is not None
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            1.7976931348623157e308, 1.0, 3.0]
    rng = np.random.default_rng(5)
    stack = rng.choice(edge, size=(3, 4, 10))
    mean = rng.choice(edge, size=(4, 10))
    sigma = np.abs(rng.choice(edge, size=(4, 10)))
    skipped, expected = stack.copy(), stack.copy()
    remove_floor(skipped, mean, None)
    expected -= mean
    expected -= 0.0 * sigma
    np.maximum(expected, 0.0, out=expected)
    assert skipped.tobytes() == expected.tobytes()


def test_subtract_floor_shape_mismatch_and_bad_factors():
    # The pipeline refuses both when its config is built, before any cycle.
    wp = make_wp()
    cal = calibrate([np.zeros(wp.samples_per_cycle)] * 16, wp)
    with pytest.raises(CalibrationError, match="FFT size"):
        PipelineConfig(wp, cal, fft_bins=4096)
    for name in ("alpha", "beta"):
        with pytest.raises(ParameterError, match=name):
            PipelineConfig(wp, cal, **{name: -1.0})


@given(
    mags=arrays(np.float64, (4, 64), elements=st.floats(0, 1e3)),
    ref=arrays(np.float64, (4, 64), elements=st.floats(0, 1e3)),
    alpha=st.floats(0, 3),
    beta=st.floats(0, 3),
)
@settings(max_examples=50, deadline=None)
def test_subtract_floor_bounded(mags, ref, alpha, beta):
    out = _subtract(mags, ref, ref * 0.1, alpha, beta)
    assert np.all(out >= 0.0)
    assert np.all(out <= mags)


def test_average_and_subtract_commute_without_flooring():
    rng = np.random.default_rng(3)
    mean, sigma = np.full((4, 1024), 0.5), np.zeros((4, 1024))
    history = [rng.uniform(10.0, 20.0, (4, 1024)) for _ in range(5)]
    raw, cleaned = _window(5, 1024), _window(5, 1024)
    for spectra in history:
        avg_then_sub = _subtract(_push(raw, spectra), mean, sigma)
        sub_then_avg = _push(cleaned, _subtract(spectra, mean, sigma))
    np.testing.assert_allclose(avg_then_sub, sub_then_avg, rtol=1e-12)


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
    cal.check_compatible(wp, 2048, 0)
    with pytest.raises(CalibrationError, match="FFT size"):
        cal.check_compatible(wp, 4096, 0)
    other = make_wp(sampling_rate=1e6)
    with pytest.raises(CalibrationError):
        cal.check_compatible(other, 2048, 0)
    with pytest.raises(CalibrationError, match="sync offset 0 samples != configured 40"):
        cal.check_compatible(wp, 2048, 40)


def test_calibration_refuses_mean_and_sigma_of_different_shapes():
    wp = make_wp()
    with pytest.raises(CalibrationError, match="mean and sigma must have the same shape"):
        Calibration(np.zeros((4, 1024)), np.zeros((4, 512)), MIN_CALIBRATION_CYCLES,
                    wp.sampling_rate, wp.samples_per_ramp, 0)


@pytest.mark.parametrize("field, value, error, needle", [
    ("reference_mean", list, CalibrationError,
     "reference_mean must be a real float ndarray, got list"),
    ("reference_mean", complex, CalibrationError, "must be a real float ndarray, got complex128"),
    ("reference_sigma", object, CalibrationError, "must be a real float ndarray, got object"),
    ("n_cycles", 16.5, ParameterError, "n_cycles must be an integer, got 16.5"),
    ("n_cycles", "16", ParameterError, "n_cycles must be an integer, got '16'"),
    ("samples_per_ramp", 500.0, ParameterError, "samples_per_ramp must be an integer, got 500.0"),
    ("sampling_rate", "x", CalibrationError, "sampling_rate must be real, got 'x'"),
], ids=["list", "complex", "object", "cycles-16.5", "cycles-text", "samples-float", "rate-text"])
def test_calibration_refuses_a_malformed_field_when_built(field, value, error, needle):
    # A list reference used to end in AttributeError, a complex one in numpy's
    # UFuncTypeError on the first cycle, and 16.5 cycles in a file that load refuses.
    wp = make_wp()
    cal = calibrate([np.zeros(wp.samples_per_cycle) for _ in range(16)], wp)
    if isinstance(value, type):  # list or a dtype: the field's own array made into one
        array = getattr(cal, field)
        value = array.tolist() if value is list else array.astype(value)
    with pytest.raises(error, match=needle):
        replace(cal, **{field: value})


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1024, 1025])
def test_row_medians_are_np_median_bit_for_bit(n):
    # Odd and even rows, with repeated values, across 600 decades.  The argument is
    # partitioned in place: each row comes back a permutation of itself.
    rng = np.random.default_rng(n)
    for _ in range(50):
        a = rng.random((4, n)) * 10.0 ** rng.uniform(-300, 300, (4, 1))
        a[:, : n // 3] = a[:, -1:]
        before = a.copy()
        assert row_medians(a) == np.median(before, axis=1).tolist()
        assert np.array_equal(np.sort(a, axis=1), np.sort(before, axis=1))
