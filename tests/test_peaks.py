import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfisensor import ParameterError, magnitude_spectra
from lfisensor import peaks
from lfisensor.peaks import (
    DEFAULT_WINDOW,
    GAUSSIAN,
    WEIGHTED_AVERAGE,
    PeakEstimate,
    estimate_peaks,
)
from lfisensor.simulator import STREAM_BLOCK
from lfisensor.spectral import bin_frequencies

from conftest import make_wp

WP = make_wp()
BIN_WIDTH = WP.sampling_rate / 2048
FREQS = bin_frequencies(WP, 2048)


def _estimates(stack, freqs, epsilons, window=DEFAULT_WINDOW, method=WEIGHTED_AVERAGE):
    return estimate_peaks(stack, freqs, epsilons, window, method)


def _estimate(mags, method=WEIGHTED_AVERAGE, window=DEFAULT_WINDOW, epsilon=0.0):
    """Peak of one spectrum: a stack of one row."""
    return _estimates(np.asarray(mags, dtype=float)[None], FREQS, [epsilon], window, method)[0]


def _interpolate(mags, center, method, window=DEFAULT_WINDOW, epsilon=0.0):
    """Interpolation of one spectrum around a given center bin."""
    stack = np.asarray(mags, dtype=float)[None]
    return peaks._interpolate(stack, FREQS, np.array([center]), window, method, [epsilon])[0]


def _gate(intensity, epsilon) -> bool:
    """Oracle of a peak's validity: ``intensity > max(epsilon, 0)``."""
    return bool(intensity > max(epsilon, 0.0))


def _tone_spectrum(frequency, phase=0.0):
    t = np.arange(WP.samples_per_ramp) / WP.sampling_rate
    frame = np.cos(2 * np.pi * frequency * t + phase)
    return magnitude_spectra([np.tile(frame, 4)], WP, np.hamming(frame.size), 2048, 0)[0]


def test_find_max_bin_basic():
    mags = np.zeros(1024)
    mags[37] = 1.0
    assert _estimate(mags, window=3).beat_frequency == FREQS[37]


def test_find_max_bin_tie_breaks_low():
    mags = np.zeros(1024)
    mags[[40, 90]] = 2.5
    assert _estimate(mags, window=3).beat_frequency == FREQS[40]


def test_find_max_bin_all_zero_is_no_peak():
    for method in (GAUSSIAN, WEIGHTED_AVERAGE):
        assert _estimate(np.zeros(1024), method) == PeakEstimate(0.0, 0.0, method, False)


def test_gaussian_recovers_exact_sampled_gaussian():
    center = 300.37 * BIN_WIDTH  # between bins
    f = bin_frequencies(WP, 2048)
    mags = 4.2 * np.exp(-((f - center) ** 2) / (2 * (2.6 * BIN_WIDTH) ** 2))
    est = _interpolate(mags, 300, GAUSSIAN)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - center) < 0.01 * BIN_WIDTH
    assert est.intensity == pytest.approx(4.2, rel=1e-6)


def test_symmetric_three_bin_peak_centers():
    mags = np.zeros(1024)
    mags[499:502] = (1.0, 3.0, 1.0)
    f_center = bin_frequencies(WP, 2048)[500]
    for method in (GAUSSIAN, WEIGHTED_AVERAGE):
        est = _interpolate(mags, 500, method, window=3)
        assert est.beat_frequency == pytest.approx(f_center, rel=1e-12)


def test_gaussian_on_synthesized_tone():
    f = 100.43 * BIN_WIDTH
    mags = _tone_spectrum(f, phase=1.1)
    est = _interpolate(mags, int(np.argmax(mags)), GAUSSIAN)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - f) < 0.1 * BIN_WIDTH


def test_weighted_average_single_bin():
    mags = np.zeros(1024)
    mags[123] = 7.0
    est = _interpolate(mags, 123, WEIGHTED_AVERAGE)
    assert est.beat_frequency == pytest.approx(bin_frequencies(WP, 2048)[123])
    assert est.intensity == 7.0


def test_weighted_average_zero_window_is_no_peak():
    est = _interpolate(np.zeros(1024), 500, WEIGHTED_AVERAGE)
    assert not est.valid
    assert est.beat_frequency == 0.0


def test_tone_sweep_error_below_fifth_of_bin():
    # Clean tone swept across one bin width, per-interpolator error bound.
    k0 = 150
    for method in (GAUSSIAN, WEIGHTED_AVERAGE):
        for offset in np.linspace(0.0, 1.0, 9)[:-1]:
            f = (k0 + offset) * BIN_WIDTH
            est = _estimate(_tone_spectrum(f, phase=0.4), method)
            assert abs(est.beat_frequency - f) < 0.2 * BIN_WIDTH, (method, offset)


def test_scalloping_error_periodic_in_bin_offset():
    offsets = np.linspace(0.0, 1.0, 8, endpoint=False)
    errs = {}
    for base in (140, 141):
        errs[base] = [
            _estimate(_tone_spectrum((base + o) * BIN_WIDTH)).beat_frequency
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
        for method in (GAUSSIAN, WEIGHTED_AVERAGE):
            est = _interpolate(mags, center, method, window=11)
            span_lo = FREQS[max(0, center - 5)]
            span_hi = FREQS[min(1023, center + 5)]
            assert span_lo <= est.beat_frequency <= span_hi


def test_gaussian_falls_back_on_edge_half_peak():
    # Max at bin 0 with a one-sided tail: the bin below it is 0, so the fit fails.
    mags = np.zeros(1024)
    mags[:13] = np.exp(-np.arange(13) / 2.0)
    est = _interpolate(mags, 0, GAUSSIAN)
    assert est.method == WEIGHTED_AVERAGE
    oracle = _interpolate(mags, 0, WEIGHTED_AVERAGE)
    assert est.beat_frequency == oracle.beat_frequency


def test_gaussian_falls_back_on_convex_window():
    # Log-magnitudes rising away from the center bin: no concave parabola.
    mags = np.zeros(1024)
    mags[495:506] = 1.0 + 0.1 * np.arange(-5, 6) ** 2
    est = _interpolate(mags, 500, GAUSSIAN, window=11)
    assert est == _interpolate(mags, 500, WEIGHTED_AVERAGE, window=11)


@pytest.mark.parametrize("bins", [
    # a + c = -0.001, so the vertex lies about 1e5 bins out, where
    # exp((c - a) * vertex / 4) would overflow: the vertex bound must reject
    # the row before the exponential is taken.
    (math.exp(100), 1.0, math.exp(-100.001)),
    # A vertex 0.42 bins out whose intensity rounds past the largest float.
    (1e308, 1.79e308, 1.7e308),
], ids=["far-vertex", "infinite-intensity"])
def test_gaussian_rejects_a_far_vertex_and_an_infinite_intensity(bins):
    row = np.array([[0.0, *bins, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (vertex,), (intensity,) = peaks._gaussian_fits(row)
    assert math.isnan(vertex) and math.isnan(intensity)


def test_gaussian_skips_zero_floored_bins():
    # Zeroed bins inside the window have no logarithm; the remaining bins
    # still lie on the exact log-parabola.
    center = 400.3 * BIN_WIDTH
    f = bin_frequencies(WP, 2048)
    mags = 2.5 * np.exp(-((f - center) ** 2) / (2 * (2.0 * BIN_WIDTH) ** 2))
    mags[[397, 402, 405]] = 0.0
    est = _interpolate(mags, 400, GAUSSIAN)
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
    est = _estimate(mags, GAUSSIAN)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - center) < 1e-9 * BIN_WIDTH
    assert est.intensity == pytest.approx(amplitude, rel=1e-9)


@given(
    offset=st.floats(-0.5, 0.5),
    width=st.floats(1.0, 4.0),
    amplitude=st.floats(1e-3, 1e6),
    background=st.sampled_from(["zeros", "noise", "second peak"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(offset=0.3, width=2.0, amplitude=1.0, background="noise", seed=1)
@example(offset=-0.2, width=2.5, amplitude=10.0, background="second peak", seed=2)
@settings(max_examples=100, deadline=None)
def test_gaussian_estimate_reads_only_its_three_peak_bins(offset, width, amplitude, background,
                                                          seed):
    # A sampled Gaussian through the center bin and its two neighbours comes
    # back to rounding, and bit for bit as from those three bins alone,
    # whatever the window's other 22 bins hold.
    rng = np.random.default_rng(seed)
    center, k = 500, np.arange(1024)
    mags = np.zeros(1024)
    if background == "noise":
        mags[center - 12 : center + 13] = rng.uniform(0.0, 0.5 * amplitude, 25)
    elif background == "second peak":
        at = center + rng.choice([-1, 1]) * rng.uniform(5.0, 10.0)
        mags += 0.5 * amplitude * np.exp(-((k - at) ** 2) / (2 * width**2))
    top = amplitude * np.exp(-((k[center - 1 : center + 2] - center - offset) ** 2)
                             / (2 * width**2))
    alone = np.zeros(1024)
    mags[center - 1 : center + 2] = alone[center - 1 : center + 2] = top
    est = _interpolate(mags, center, GAUSSIAN)
    assert est.method == GAUSSIAN
    assert abs(est.beat_frequency - FREQS[center] - offset * BIN_WIDTH) < 1e-9 * BIN_WIDTH
    assert est.intensity == pytest.approx(amplitude, rel=1e-9)
    three = _interpolate(alone, center, GAUSSIAN)
    assert (est.beat_frequency, est.intensity) == (three.beat_frequency, three.intensity)


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
        est = _interpolate(mags, center_bin, GAUSSIAN)
    assert math.isfinite(est.intensity)
    if est.valid or est.beat_frequency:
        assert FREQS[center_bin - 12] <= est.beat_frequency <= FREQS[center_bin + 12]


def _row(kind, center, width, exponents, zeroed, seed):
    """One spectrum row: a floored noisy peak, a wild window, all zeros, or a NaN."""
    rng = np.random.default_rng(seed)
    k = np.arange(1024)
    mags = np.exp(-((k - center) ** 2) / (2 * width**2)) + rng.uniform(0.0, 0.05, 1024)
    mags = np.maximum(mags - 0.03, 0.0)  # zero-floored bins, around the peak too
    if kind == "wild":  # magnitudes over 600 decades around the center
        values = 10.0 ** np.array(exponents)
        lo = max(0, min(center, 1024 - values.size))
        mags[lo : lo + values.size] = values
    elif kind == "zero":
        mags[:] = 0.0
    elif kind == "nan":
        mags[(center + 3) % 1024] = math.nan
    mags[np.array(zeroed, dtype=int)] = 0.0
    return mags


_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["peak", "wild", "zero", "nan"]),
        st.integers(0, 1023),
        st.floats(0.6, 6.0),
        st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=25),
        st.lists(st.integers(0, 1023), max_size=6),
        st.integers(0, 2**32 - 1),
    ),
    min_size=1,
    max_size=6,
)


@given(rows=_ROWS, method=st.sampled_from([GAUSSIAN, WEIGHTED_AVERAGE]),
       epsilon=st.floats(0.0, 2.0))
# Windows clipped at both spectrum edges, next to an all-zero row and a NaN row.
@example(rows=[("peak", 0, 2.0, [0.0] * 3, [], 1), ("zero", 500, 2.0, [0.0] * 3, [], 2),
               ("peak", 1023, 2.5, [0.0] * 3, [1021], 3), ("nan", 400, 2.0, [0.0] * 3, [], 4)],
         method=GAUSSIAN, epsilon=0.0)
@settings(max_examples=200, deadline=None)
def test_batched_estimate_of_a_row_ignores_its_neighbours(rows, method, epsilon):
    stack = np.stack([_row(*row) for row in rows])
    epsilons = [epsilon * (i + 1) / len(rows) for i in range(len(rows))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _estimates(stack, FREQS, epsilons, method=method)
        alone = [_estimates(stack[i : i + 1], FREQS, [eps], method=method)[0]
                 for i, eps in enumerate(epsilons)]
    # repr spells every float exactly and lets a NaN equal itself.
    assert [repr(est) for est in batched] == [repr(est) for est in alone]
    for est, row in zip(batched, rows):
        if row[0] == "zero":
            assert est == PeakEstimate(0.0, 0.0, method, valid=False)



@given(cycles=st.integers(1, 2 * STREAM_BLOCK), seed=st.integers(0, 2**32 - 1),
       method=st.sampled_from([GAUSSIAN, WEIGHTED_AVERAGE]))
@settings(max_examples=60, deadline=None)
def test_estimates_do_not_depend_on_the_height_of_the_stack(cycles, seed, method):
    # A block of cycles is one (4 * cycles, bins) stack: each cycle's four rows
    # must get the estimates they get as a (4, bins) stack of their own: no
    # step may round a row differently with the number of rows around it.
    # The Gaussian is taken per row in Python floats and the weighted average
    # by fixed-order numpy sums, with no BLAS product, so this holds on any
    # host.
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["peak", "peak", "peak", "wild", "zero"], size=4 * cycles)
    stack = np.stack([
        _row(kind, int(rng.integers(0, 1024)), float(rng.uniform(0.6, 6.0)),
             list(rng.uniform(-300.0, 300.0, 25)), list(rng.integers(0, 1024, 3)),
             int(rng.integers(0, 2**32)))
        for kind in kinds
    ])
    epsilons = list(rng.uniform(0.0, 0.5, 4 * cycles))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tall = _estimates(stack, FREQS, epsilons, method=method)
        alone = [est for c in range(0, 4 * cycles, 4)
                 for est in _estimates(stack[c : c + 4], FREQS, epsilons[c : c + 4],
                                       method=method)]
    assert [repr(est) for est in tall] == [repr(est) for est in alone]


def _per_row_peaks(rows, freqs, centers, window, method, epsilons):
    """Oracle: each row's peak from its own window, one row at a time.

    A row's window is zero-padded past the spectrum's ends.  The weighted
    average is the ``.sum()`` of ``weights * span`` over the ``.sum()`` of
    the window, its mean clamped into the window's bins with
    ``min(max(...))``, and the center bin as intensity.  The Gaussian fit of
    a row is fitted alone, on the same window, and kept when its vertex lies
    in the bins the window has.  An all-zero row has no peak under either
    method; a zero window in a nonzero row has none under the weighted
    average.
    """
    half, n_bins = window // 2, rows.shape[1]
    estimates = []
    for row, center, epsilon in zip(rows, centers, epsilons):
        lo, hi = max(0, center - half), min(n_bins, center + half + 1)
        weights, span = np.zeros(window), np.zeros(window)
        weights[lo - center + half : hi - center + half] = row[lo:hi]
        span[lo - center + half : hi - center + half] = freqs[lo:hi]
        if method == GAUSSIAN:
            (vertex,), (intensity,) = peaks._gaussian_fits(weights[None])
            if lo - center <= vertex <= hi - 1 - center:
                frequency = float(freqs[center] + vertex * (freqs[1] - freqs[0]))
                estimates.append(PeakEstimate(frequency, intensity, GAUSSIAN,
                                              _gate(intensity, epsilon)))
                continue
        total = float(weights.sum())
        if total == 0.0:
            label = method if not row.any() else WEIGHTED_AVERAGE
            estimates.append(PeakEstimate(0.0, 0.0, label, valid=False))
            continue
        frequency = float(min(max((weights * span).sum() / total, freqs[lo]), freqs[hi - 1]))
        intensity = float(row[center])
        estimates.append(PeakEstimate(frequency, intensity, WEIGHTED_AVERAGE,
                                      _gate(intensity, epsilon)))
    return estimates


def _peak_case(window, n_bins, rows, seed):
    """A floored ``(len(rows), n_bins)`` stack and one center per row.

    Row ``(kind, at)`` is floored noise with: a peak whose maximum is bin
    ``at`` (``"tie"``: and a second bin as high, so the argmax breaks the
    tie low), nothing (``"noise"``), no bin at all (``"zero-row"``), or a
    peak with its window around ``at`` zeroed (``"zero-window"``).  ``at``
    is the row's center for ``_interpolate``.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(n_bins)
    stack = np.maximum(rng.normal(0.0, 1.0, (len(rows), n_bins)) - 0.5, 0.0)
    centers = []
    for r, (kind, at) in enumerate(rows):
        at %= n_bins
        centers.append(at)
        if kind == "zero-row":
            stack[r] = 0.0
        elif kind != "noise":
            width, shift = rng.uniform(0.5, 4.0), rng.uniform(-0.5, 0.5)
            height = 10.0 ** rng.uniform(-2, 4)
            stack[r] += height * np.exp(-((k - at - shift) ** 2) / (2 * width**2))
            stack[r, at] = 1.5 * stack[r].max()
            if kind == "tie":
                stack[r, rng.integers(n_bins)] = stack[r, at]
            elif kind == "zero-window":
                stack[r, max(0, at - window // 2) : at + window // 2 + 1] = 0.0
    return stack, np.array(centers), window


#: Windows whose Gaussian vertex lands exactly on a bound of the window's bins,
#: then one float past it: ``(center, first bin, magnitudes from that bin on)``
#: in a 16-bin row, with a 5-bin window.  Center 8 has the bounds -2 and 2;
#: center 1's window is clipped at bin 0 (lower bound -1), center 14's at bin 15
#: (upper bound 1).  The package accepts every finite vertex, since a vertex
#: past one bin is a failed fit and a neighbour past the row's ends is 0; the
#: oracle :func:`_per_row_peaks` still checks the bounds, so these rows show
#: that no record depends on them.  The first eight rows lie on those bounds
#: for a weighted parabola over the whole window.  The last six put the
#: three-bin Gaussian's vertex exactly on -1 at center 1 and +1 at center 14,
#: where the clipped bound and the one-bin limit of :func:`peaks._gaussian_fits`
#: meet, and on -1 at center 8, the one-bin limit alone, each then one float
#: past, with Python's ``math.log``.  A libm that rounds otherwise can move them
#: an ulp, and the rows are then still compared with the oracle.
_ON_AND_PAST_BOUNDS = [
    (8, 6, [1.0, 0.7438930621376549, 0.30622598005804946, 0.06975808901308397,
            0.008793628879685274]),
    (8, 6, [1.0, 0.7438930621376583, 0.3062259800580522, 0.06975808901308488,
            0.008793628879685423]),
    (8, 6, [0.00879362887968497, 0.06975808901308214, 0.3062259800580442, 0.7438930621376486,
            1.0]),
    (8, 6, [0.06277702665912514, 0.21074773581840778, 0.5005531347669083, 0.8411288833576093,
            1.0]),
    (1, 0, [1.0, 0.5394075072376193, 0.08465798862252764, 0.0038659201394726462]),
    (1, 0, [1.0, 0.7438930621376457, 0.30622598005804175, 0.06975808901308134]),
    (14, 12, [0.024258013454282336, 0.19149519501466328, 0.6615146556493751, 1.0]),
    (14, 12, [0.06975808901308156, 0.3062259800580425, 0.7438930621376465, 1.0]),
    (1, 0, [1.5, 1.0, 0.2962962962962963]),
    (1, 0, [1.5, 1.0, 0.29629629629629634]),
    (14, 13, [0.2962962962962963, 1.0, 1.5]),
    (14, 13, [0.29629629629629634, 1.0, 1.5]),
    (8, 7, [1.5, 1.0, 0.2962962962962963]),
    (8, 7, [1.5, 1.0, 0.29629629629629634]),
]


def _bound_case():
    """The rows of :data:`_ON_AND_PAST_BOUNDS`, then a peak with a NaN bin, an
    all-zero row and peaks on bin 0 and bin 15, as an ``_interpolate`` case."""
    rows = np.zeros((len(_ON_AND_PAST_BOUNDS) + 4, 16))
    centers = []
    for r, (center, first, values) in enumerate(_ON_AND_PAST_BOUNDS):
        rows[r, first : first + len(values)] = values
        centers.append(center)
    rows[-4, 3:8] = [0.2, 0.6, 1.0, math.nan, 0.3]
    rows[-2, :3], rows[-1, 13:] = [1.0, 0.5, 0.1], [0.1, 0.5, 1.0]
    return rows, np.array(centers + [5, 7, 0, 15]), 5


@st.composite
def _peak_cases(draw):
    """Stacks of 1-64 rows, windows of 3-25 bins (no wider than a row), centers
    at and next to the spectrum's ends as often as anywhere else."""
    window = draw(st.sampled_from(range(3, 26, 2)))
    n_bins, half = draw(st.integers(window, 160)), window // 2
    ends = [0, half - 1, half, half + 1, n_bins - 2 - half, n_bins - 1 - half, n_bins - half,
            n_bins - 1]
    row = st.tuples(st.sampled_from(["peak", "tie", "noise", "zero-row", "zero-window"]),
                    st.sampled_from(ends) | st.integers(0, n_bins - 1))
    return _peak_case(window, n_bins, draw(st.lists(row, min_size=1, max_size=64)),
                      draw(st.integers(0, 2**32 - 1)))


@given(case=_peak_cases(), method=st.sampled_from([GAUSSIAN, WEIGHTED_AVERAGE]),
       epsilon=st.floats(0.0, 2.0))
# Peaks on both end bins of a 25-bin window: their weighted averages sum
# 25-bin windows of which only 13 bins lie in the row, the rest zero padding.
@example(case=_peak_case(25, 64, [("peak", 0), ("peak", 63), ("peak", 1), ("peak", 62)] * 4, 7),
         method=WEIGHTED_AVERAGE, epsilon=0.0)
# Gaussian vertices on and one float past each acceptance bound, a NaN row, an
# all-zero row and windows clipped at either end of the spectrum.
@example(case=_bound_case(), method=GAUSSIAN, epsilon=0.0)
@settings(max_examples=200, deadline=None)
def test_peak_stage_matches_a_per_row_loop(case, method, epsilon):
    rows, centers, window = case
    freqs = np.arange(rows.shape[1]) * BIN_WIDTH
    epsilons = [epsilon * (r % 3) for r in range(len(rows))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_centers = peaks._interpolate(rows, freqs, centers, window, method, epsilons)
        at_maxima = _estimates(rows, freqs, epsilons, window, method)
    # repr spells every float exactly and tells a bool from a numpy bool.
    assert repr(at_centers) == repr(_per_row_peaks(rows, freqs, centers, window, method,
                                                   epsilons))
    maxima = [int(np.argmax(row)) for row in rows]
    assert repr(list(at_maxima)) == repr(_per_row_peaks(rows, freqs, maxima, window, method,
                                                        epsilons))


def _vectorized_peaks(rows, freqs, centers, window, method, epsilons):
    """Oracle: the peak stage with its weighted-average tail as numpy arrays over
    all rows, the quotient by ``np.divide(..., where=)``, the clamp by
    ``np.maximum`` then ``np.minimum`` and the Gaussian rows merged by
    ``np.where``."""
    n_bins, half = rows.shape[1], window // 2
    columns = np.arange(-half, half + 1) + centers[:, None]
    weights = rows.take(columns + np.arange(0, rows.size, n_bins)[:, None], mode="clip")
    weights[(columns < 0) | (columns >= n_bins)] = 0.0
    span = freqs.take(columns, mode="clip")
    totals = np.add.reduce(weights, axis=1)
    found = totals != 0.0
    means = np.add.reduce(weights * span, axis=1)
    np.divide(means, totals, out=means, where=found)
    means = np.minimum(np.maximum(means, span[:, 0]), span[:, -1])
    intensities, used = weights[:, half], [WEIGHTED_AVERAGE] * len(rows)
    if method == GAUSSIAN:
        vertices, fit_intensities = peaks._gaussian_fits(weights)
        accepted = [not math.isnan(v) for v in vertices]
        step = float(freqs[1] - freqs[0])
        means = np.where(accepted, [f + v * step for f, v in zip(freqs[centers], vertices)],
                         means)
        intensities = np.where(accepted, fit_intensities, intensities)
        found |= accepted
        used = [GAUSSIAN if a else WEIGHTED_AVERAGE for a in accepted]
    valid = ((intensities > np.asarray(epsilons)) & (intensities > 0.0)).tolist()
    return [PeakEstimate(f, i, m, v) if peak
            else PeakEstimate(0.0, 0.0, method if not row.any() else WEIGHTED_AVERAGE, False)
            for row, f, i, m, v, peak in zip(rows, means.tolist(), intensities.tolist(), used,
                                             valid, found.tolist())]


_WILD_BIN = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308]),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.floats(-300.0, 300.0).map(lambda e: -(10.0**e)),
    st.floats(0.0, 2.0),
)


@st.composite
def _wild_stacks(draw):
    """Stacks of 4 or 64 rows of wild bins (negative, signed zeros, NaN, infinite,
    subnormal and near the largest float), with a window no wider than a row."""
    window = draw(st.sampled_from(range(3, 26, 2)))
    n_bins = draw(st.integers(window, 48))
    row = st.one_of(st.just([0.0] * n_bins),
                    st.lists(_WILD_BIN, min_size=n_bins, max_size=n_bins))
    n_rows = draw(st.sampled_from([4, 64]))
    return np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows))), window


@given(case=_wild_stacks(), method=st.sampled_from([GAUSSIAN, WEIGHTED_AVERAGE]),
       epsilon=st.floats(0.0, 2.0))
# The moments cancel to +0.0 over a negative total: the quotient -0.0 ties the
# window's first bin, 0.0, and np.maximum returns the bin where max() would not.
@example(case=(np.array([[-5.0, 2.0, -1.0]] * 4), 3), method=WEIGHTED_AVERAGE, epsilon=0.0)
@settings(max_examples=200, deadline=None)
def test_peak_stage_on_wild_rows_matches_the_vectorized_formula(case, method, epsilon):
    # The per-row tail in Python floats keeps numpy's semantics: a NaN quotient or
    # bound passes through the clamp, a tie takes the end bin, an infinite
    # window sum gives what np.divide gives, and each row's method and validity
    # are those the array formula gives.
    rows, window = case
    freqs = np.arange(rows.shape[1]) * BIN_WIDTH
    epsilons = [epsilon * (r % 3) for r in range(len(rows))]
    with np.errstate(all="ignore"):  # inf - inf and 0 * inf in both
        ours = _estimates(rows, freqs, epsilons, window, method)
        theirs = _vectorized_peaks(rows, freqs, rows.argmax(axis=1), window, method, epsilons)
    # repr spells every float exactly, -0.0 too, and tells a bool from a numpy bool.
    assert repr(list(ours)) == repr(theirs)


def test_validity_threshold_flags_weak_peaks():
    # Validity is the gate alone: a peak only twice its row's floor reads valid past
    # its gate, and a peak of 50 not at a gate of 50.
    mags = np.ones(1024)
    mags[300] = 2.0
    assert _estimate(mags, epsilon=1.5).valid
    assert not _estimate(mags, epsilon=2.0).valid
    mags[300] = 50.0
    assert _estimate(mags, epsilon=math.nextafter(50.0, 0.0)).valid
    assert not _estimate(mags, epsilon=50.0).valid


def test_validity_absolute_gate():
    mags = np.zeros(1024)
    mags[295:306] = 0.1  # residual floor around the peak
    mags[300] = 5.0
    assert _estimate(mags).valid
    assert not _estimate(mags, epsilon=10.0).valid
    # The gate is strict: an intensity equal to epsilon is not valid.
    assert _estimate(mags, epsilon=math.nextafter(5.0, 0.0)).valid
    assert not _estimate(mags, epsilon=5.0).valid


def test_window_preconditions():
    mags = _tone_spectrum(100 * BIN_WIDTH)
    with pytest.raises(ParameterError, match="odd"):
        _estimate(mags, window=4)
    with pytest.raises(ParameterError, match="the 1024 bins of a row"):
        _estimate(mags, window=1025)
    # A window as wide as an odd row is accepted, and one 2 bins wider refused.
    row = np.array([[0.0, 1.0, 2.0, 8.0, 2.0, 1.0, 0.0]])
    (peak,) = estimate_peaks(row, FREQS[:7], [0.0], 7, WEIGHTED_AVERAGE)
    assert peak.beat_frequency == pytest.approx(FREQS[3]) and peak.intensity == 8.0
    with pytest.raises(ParameterError, match="the 7 bins of a row"):
        estimate_peaks(row, FREQS[:7], [0.0], 9, WEIGHTED_AVERAGE)
    with pytest.raises(ParameterError, match="method"):
        _estimate(mags, method="parabolic")


def test_a_gate_count_unlike_the_row_count_is_refused():
    # Four rows and one gate: the zip of rows and gates once returned one estimate.
    stack = np.tile(np.array([0.0, 1.0, 2.0, 8.0, 2.0, 1.0, 0.0]), (4, 1))
    with pytest.raises(ParameterError, match=r"shape \(4, 7\) and 1 gates"):
        estimate_peaks(stack, FREQS[:7], [0.0], 3, WEIGHTED_AVERAGE)
    with pytest.raises(ParameterError, match=r"shape \(4, 7\) and 5 gates"):
        estimate_peaks(stack, FREQS[:7], [0.0] * 5, 3, WEIGHTED_AVERAGE)
    assert len(estimate_peaks(stack, FREQS[:7], [0.0] * 4, 3, WEIGHTED_AVERAGE)) == 4


def test_a_stack_that_is_not_two_dimensional_is_refused():
    # A 1-D spectrum once ended in a raw IndexError.
    row = np.array([0.0, 1.0, 2.0, 8.0, 2.0, 1.0, 0.0])
    for stack in (row, row[None, None]):
        with pytest.raises(ParameterError, match=r"a \(rows, bins\) stack"):
            estimate_peaks(stack, FREQS[:7], [0.0], 3, WEIGHTED_AVERAGE)


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
    window = np.hamming(WP.samples_per_ramp)
    noise = rng.normal(0.0, 0.3, (64, WP.samples_per_ramp))
    ref_mean = magnitude_spectra(noise.reshape(16, -1), WP, window, 2048, 0).mean(axis=0)
    errors = {GAUSSIAN: [], WEIGHTED_AVERAGE: []}
    for _ in range(150):
        f = (120 + rng.uniform()) * BIN_WIDTH
        frame = np.cos(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        frame = frame + rng.normal(0.0, 0.3, frame.size)
        # max(X - alpha mean_ref - beta sigma_ref, 0) at the defaults alpha 1, beta 0.
        spectrum = magnitude_spectra([np.tile(frame, 4)], WP, window, 2048, 0)[0]
        mags = np.maximum(spectrum - ref_mean, 0.0)
        for method in errors:
            est = _estimate(mags, method)
            errors[method].append(est.beat_frequency - f)
    var_wa = np.var(errors[WEIGHTED_AVERAGE])
    var_g = np.var(errors[GAUSSIAN])
    assert var_wa <= 1.5 * var_g
