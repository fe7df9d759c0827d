import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfisensor import ParameterError, frame_spectrum
from lfisensor.peaks import (
    GAUSSIAN,
    WEIGHTED_AVERAGE,
    estimate_peak,
    find_max_bin,
    gaussian_interpolate,
    validity_threshold,
    weighted_average_interpolate,
)
from lfisensor.spectral import (
    RampSpectrum,
    bin_frequencies,
    subtract_floor,
)

from conftest import make_wp

WP = make_wp()
BIN_WIDTH = WP.sampling_rate / 2048


def _spectrum(magnitudes):
    return RampSpectrum(
        ramp_index=0,
        bin_frequencies=bin_frequencies(WP, 2048),
        magnitudes=np.asarray(magnitudes, dtype=float),
    )


def _tone_spectrum(frequency, phase=0.0):
    t = np.arange(WP.samples_per_ramp) / WP.sampling_rate
    return frame_spectrum(np.cos(2 * np.pi * frequency * t + phase), WP, 2048)


def test_find_max_bin_basic():
    mags = np.zeros(1024)
    mags[37] = 1.0
    assert find_max_bin(_spectrum(mags)) == 37


def test_find_max_bin_tie_breaks_low():
    mags = np.zeros(1024)
    mags[[40, 90]] = 2.5
    assert find_max_bin(_spectrum(mags)) == 40


def test_find_max_bin_all_zero_is_no_peak():
    assert find_max_bin(_spectrum(np.zeros(1024))) is None


def test_gaussian_recovers_exact_sampled_gaussian():
    center = 300.37 * BIN_WIDTH  # between bins
    f = bin_frequencies(WP, 2048)
    mags = 4.2 * np.exp(-((f - center) ** 2) / (2 * (2.6 * BIN_WIDTH) ** 2))
    est = gaussian_interpolate(_spectrum(mags), 300)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - center) < 0.01 * BIN_WIDTH
    assert est.intensity == pytest.approx(4.2, rel=1e-6)


def test_symmetric_three_bin_peak_centers():
    mags = np.zeros(1024)
    mags[499:502] = (1.0, 3.0, 1.0)
    f_center = bin_frequencies(WP, 2048)[500]
    for interpolate in (gaussian_interpolate, weighted_average_interpolate):
        est = interpolate(_spectrum(mags), 500, window=3)
        assert est.beat_frequency == pytest.approx(f_center, rel=1e-12)


def test_gaussian_on_synthesized_tone():
    f = 100.43 * BIN_WIDTH
    spec = _tone_spectrum(f, phase=1.1)
    est = gaussian_interpolate(spec, int(np.argmax(spec.magnitudes)))
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - f) < 0.1 * BIN_WIDTH


def test_weighted_average_single_bin():
    mags = np.zeros(1024)
    mags[123] = 7.0
    est = weighted_average_interpolate(_spectrum(mags), 123)
    assert est.beat_frequency == pytest.approx(bin_frequencies(WP, 2048)[123])
    assert est.intensity == 7.0


def test_weighted_average_zero_window_is_no_peak():
    est = weighted_average_interpolate(_spectrum(np.zeros(1024)), 500)
    assert not est.valid
    assert est.beat_frequency == 0.0


def test_tone_sweep_error_below_fifth_of_bin():
    # Clean tone swept across one bin width, per-interpolator error bound.
    k0 = 150
    for method in (GAUSSIAN, WEIGHTED_AVERAGE):
        for offset in np.linspace(0.0, 1.0, 9)[:-1]:
            f = (k0 + offset) * BIN_WIDTH
            spec = _tone_spectrum(f, phase=0.4)
            est = estimate_peak(spec, method=method)
            assert abs(est.beat_frequency - f) < 0.2 * BIN_WIDTH, (method, offset)


def test_scalloping_error_periodic_in_bin_offset():
    offsets = np.linspace(0.0, 1.0, 8, endpoint=False)
    errs = {}
    for base in (140, 141):
        errs[base] = [
            estimate_peak(_tone_spectrum((base + o) * BIN_WIDTH)).beat_frequency
            - (base + o) * BIN_WIDTH
            for o in offsets
        ]
    np.testing.assert_allclose(errs[140], errs[141], atol=0.02 * BIN_WIDTH)


def test_estimates_stay_inside_window():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mags = np.zeros(1024)
        lo = rng.integers(50, 900)
        mags[lo : lo + 11] = rng.uniform(0.1, 1.0, 11)
        center = int(np.argmax(mags))
        freqs = bin_frequencies(WP, 2048)
        for interpolate in (gaussian_interpolate, weighted_average_interpolate):
            est = interpolate(_spectrum(mags), center, window=11)
            span_lo = freqs[max(0, center - 5)]
            span_hi = freqs[min(1023, center + 5)]
            assert span_lo <= est.beat_frequency <= span_hi


def test_gaussian_falls_back_on_edge_half_peak():
    # Max at bin 0 with a one-sided tail: fitted center leaves the window.
    mags = np.zeros(1024)
    mags[:13] = np.exp(-np.arange(13) / 2.0)
    est = gaussian_interpolate(_spectrum(mags), 0)
    assert est.method == WEIGHTED_AVERAGE
    oracle = weighted_average_interpolate(_spectrum(mags), 0)
    assert est.beat_frequency == oracle.beat_frequency


def test_gaussian_falls_back_on_convex_window():
    # Log-magnitudes rising away from the center bin: no concave parabola.
    mags = np.zeros(1024)
    mags[495:506] = 1.0 + 0.1 * np.arange(-5, 6) ** 2
    spec = _spectrum(mags)
    est = gaussian_interpolate(spec, 500, window=11)
    assert est == weighted_average_interpolate(spec, 500, window=11)


def test_gaussian_skips_zero_floored_bins():
    # Zeroed bins inside the window have no logarithm; the remaining bins
    # still lie on the exact log-parabola.
    center = 400.3 * BIN_WIDTH
    f = bin_frequencies(WP, 2048)
    mags = 2.5 * np.exp(-((f - center) ** 2) / (2 * (2.0 * BIN_WIDTH) ** 2))
    mags[[397, 402, 405]] = 0.0
    est = gaussian_interpolate(_spectrum(mags), 400)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - center) < 1e-9 * BIN_WIDTH
    assert est.intensity == pytest.approx(2.5, rel=1e-9)


@given(
    bin_offset=st.floats(20.0, 1000.0),
    width=st.floats(1.5, 4.0),
    amplitude=st.floats(1e-3, 1e6),
)
@settings(max_examples=200, deadline=None)
def test_gaussian_fit_is_exact_on_sampled_gaussians(bin_offset, width, amplitude):
    # A sampled Gaussian is an exact parabola in log-magnitude, so the fit
    # recovers it to rounding, wherever the center falls between bins.
    center = bin_offset * BIN_WIDTH
    f = bin_frequencies(WP, 2048)
    mags = amplitude * np.exp(-((f - center) ** 2) / (2 * (width * BIN_WIDTH) ** 2))
    est = estimate_peak(_spectrum(mags), method=GAUSSIAN)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - center) < 1e-9 * BIN_WIDTH
    assert est.intensity == pytest.approx(amplitude, rel=1e-9)


@given(
    exponents=st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=25),
    zeroed=st.lists(st.booleans(), min_size=25, max_size=25),
    center=st.integers(0, 24),
)
# Nearly all the weight on the window's last bin: the weighted-average
# fallback's rounding once carried the estimate one ulp past that bin.
@example(exponents=[0.0] * 12 + [21.405041158211645], zeroed=[False] * 25, center=0)
@settings(max_examples=300, deadline=None)
def test_gaussian_on_any_window_is_quiet_and_inside(exponents, zeroed, center):
    # Magnitudes over 600 decades, some zeroed: singular or overflowing fits
    # must fall back without a warning, and every estimate stays in the window.
    values = 10.0 ** np.array(exponents)
    values[np.array(zeroed[: values.size])] = 0.0
    mags = np.zeros(1024)
    mags[500 : 500 + values.size] = values
    center_bin = 500 + center % values.size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = gaussian_interpolate(_spectrum(mags), center_bin)
    freqs = bin_frequencies(WP, 2048)
    assert math.isfinite(est.intensity)
    if est.valid or est.beat_frequency:
        assert freqs[center_bin - 12] <= est.beat_frequency <= freqs[center_bin + 12]


def test_validity_threshold_flags_weak_peaks():
    mags = np.ones(1024)
    mags[300] = 2.0  # only 2x the median floor, below kappa = 3
    est = weighted_average_interpolate(_spectrum(mags), 300)
    assert not est.valid
    mags[300] = 50.0
    est = weighted_average_interpolate(_spectrum(mags), 300)
    assert est.valid


def test_validity_absolute_gate():
    mags = np.zeros(1024)
    mags[295:306] = 0.1  # residual floor around the peak
    mags[300] = 5.0
    spec = _spectrum(mags)
    assert weighted_average_interpolate(spec, 300).valid
    gated = weighted_average_interpolate(spec, 300, epsilon_abs=10.0)
    assert not gated.valid
    assert validity_threshold(spec, epsilon_abs=10.0) == 10.0


def test_validity_threshold_floor_is_np_median_of_nonzero_bins():
    rng = np.random.default_rng(5)
    for n_nonzero in [*range(1, 12), 400, 401, 1024]:  # odd and even counts
        mags = np.zeros(1024)
        where = rng.choice(1024, n_nonzero, replace=False)
        mags[where] = rng.random(n_nonzero) * 10.0 ** rng.uniform(-3, 3)
        before = mags.copy()
        expected = 3.0 * float(np.median(mags[mags > 0]))
        assert validity_threshold(_spectrum(mags), kappa=3.0) == expected
        np.testing.assert_array_equal(mags, before)  # the spectrum is not reordered
    assert validity_threshold(_spectrum(np.zeros(1024)), epsilon_abs=0.5) == 0.5


def test_lone_bin_is_indistinguishable_from_floor():
    # A single surviving bin cannot exceed kappa times its own median.
    mags = np.zeros(1024)
    mags[123] = 7.0
    assert not weighted_average_interpolate(_spectrum(mags), 123).valid


def test_window_preconditions():
    spec = _tone_spectrum(100 * BIN_WIDTH)
    with pytest.raises(ParameterError, match="odd"):
        weighted_average_interpolate(spec, 100, window=4)
    with pytest.raises(ParameterError, match="method"):
        estimate_peak(spec, method="parabolic")


@pytest.mark.xfail(
    strict=True,
    reason="least squares is the efficient estimator for Gaussian-noise tones; "
    "the weighted average's error variance stays ~3x higher across synthetic "
    "conditions, so the hardware-observed non-inferiority (<= 1.5x) does not "
    "reproduce in this model",
)
def test_weighted_average_not_much_worse_than_gaussian():
    # Non-inferiority on matched noisy tones after spectral subtraction:
    # var_wa <= 1.5 * var_gauss.
    rng = np.random.default_rng(17)
    t = np.arange(WP.samples_per_ramp) / WP.sampling_rate
    noise_specs = [
        frame_spectrum(rng.normal(0.0, 0.3, WP.samples_per_ramp), WP, 2048).magnitudes
        for _ in range(64)
    ]
    stack = np.stack(noise_specs)
    ref_mean, ref_sigma = stack.mean(axis=0), stack.std(axis=0, ddof=1)
    errors = {GAUSSIAN: [], WEIGHTED_AVERAGE: []}
    for _ in range(150):
        f = (120 + rng.uniform()) * BIN_WIDTH
        frame = np.cos(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        frame = frame + rng.normal(0.0, 0.3, frame.size)
        spec = subtract_floor(frame_spectrum(frame, WP, 2048), ref_mean, ref_sigma)
        for method in errors:
            est = estimate_peak(spec, method=method)
            errors[method].append(est.beat_frequency - f)
    var_wa = np.var(errors[WEIGHTED_AVERAGE])
    var_g = np.var(errors[GAUSSIAN])
    assert var_wa <= 1.5 * var_g
