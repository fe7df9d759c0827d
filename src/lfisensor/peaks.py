"""Beat-frequency extraction: max-bin pick plus sub-bin interpolation.

Two interpolators are provided over a window of bins around the maximum:
a Gaussian fit, solved in closed form as a weighted least-squares parabola
through the log-magnitudes (Guo's algorithm), and an intensity-weighted
average.  Spectral peaks of windowed tones span several bins and are close
to Gaussian, so either recovers the beat frequency well below one bin width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import RampSpectrum

DEFAULT_WINDOW = 25
DEFAULT_KAPPA = 3.0
GAUSSIAN_PASSES = 3  # weighted log-parabola fits per Gaussian estimate

GAUSSIAN = "gaussian"
WEIGHTED_AVERAGE = "weighted_average"
METHODS = (GAUSSIAN, WEIGHTED_AVERAGE)


@dataclass
class PeakEstimate:
    """Interpolated beat-frequency magnitude of one ramp spectrum."""

    ramp_index: int
    beat_frequency: float  # Hz >= 0; sign resolved in the solver
    intensity: float
    method: str
    valid: bool


def find_max_bin(spec: RampSpectrum):
    """Index of the globally strongest bin, or None for an all-zero spectrum.

    Ties break toward the lower frequency.
    """
    magnitudes = spec.magnitudes
    if magnitudes.size == 0:
        raise ParameterError("spectrum is empty")
    center = int(magnitudes.argmax())
    # Only a zero maximum can mean an all-zero spectrum.
    if magnitudes[center] == 0 and not magnitudes.any():
        return None
    return center


def validity_threshold(
    spec: RampSpectrum, kappa: float = DEFAULT_KAPPA, epsilon_abs: float = 0.0
) -> float:
    """Intensity a peak must exceed to count as a real detection.

    ``max(epsilon_abs, kappa * median of the nonzero bins)`` of the
    floored spectrum; a low peak intensity indicates an unreliable
    (typically blind) ramp.
    """
    nonzero = spec.magnitudes[spec.magnitudes > 0]
    return max(epsilon_abs, kappa * _median(nonzero))


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array without NaNs, bit for bit; 0 if empty.

    A partial sort in place (``values`` is consumed) skips np.median's
    generic overhead; an even count averages the middle pair as it does.
    """
    n = values.size
    if not n:
        return 0.0
    k = n // 2
    if n % 2:
        values.partition(k)
        return float(values[k])
    values.partition((k - 1, k))
    return float((values[k - 1] + values[k]) / 2)


def _window_slice(spec: RampSpectrum, center_bin: int, window: int):
    if window < 3 or window % 2 == 0:
        raise ParameterError(f"window must be odd and >= 3, got {window}")
    if not 0 <= center_bin < spec.magnitudes.size:
        raise ParameterError(
            f"center_bin {center_bin} outside spectrum of {spec.magnitudes.size} bins"
        )
    half = window // 2
    lo = max(0, center_bin - half)
    hi = min(spec.magnitudes.size, center_bin + half + 1)
    return lo, hi


def _estimate(spec, frequency, intensity, method, kappa, epsilon_abs) -> PeakEstimate:
    valid = intensity > validity_threshold(spec, kappa, epsilon_abs)
    return PeakEstimate(spec.ramp_index, frequency, intensity, method, valid)


def weighted_average_interpolate(
    spec: RampSpectrum,
    center_bin: int,
    window: int = DEFAULT_WINDOW,
    kappa: float = DEFAULT_KAPPA,
    epsilon_abs: float = 0.0,
) -> PeakEstimate:
    """Weighted-average interpolation over the window around the max bin.

    The beat estimate is the self-normalized weighted mean
    ``sum(X(k) F(k)) / sum(X(k))``; the intensity is the center-bin
    magnitude.  Zero-floored bins stay in the window with zero weight.
    """
    lo, hi = _window_slice(spec, center_bin, window)
    weights = spec.magnitudes[lo:hi]
    total = float(weights.sum())
    if total == 0.0:
        return PeakEstimate(spec.ramp_index, 0.0, 0.0, WEIGHTED_AVERAGE, valid=False)
    freqs = spec.bin_frequencies[lo:hi]
    # Rounding can carry the mean just past an end bin; it stays in the window.
    frequency = float(min(max(np.dot(weights, freqs) / total, freqs[0]), freqs[-1]))
    intensity = float(spec.magnitudes[center_bin])
    return _estimate(spec, frequency, intensity, WEIGHTED_AVERAGE, kappa, epsilon_abs)


def gaussian_interpolate(
    spec: RampSpectrum,
    center_bin: int,
    window: int = DEFAULT_WINDOW,
    kappa: float = DEFAULT_KAPPA,
    epsilon_abs: float = 0.0,
) -> PeakEstimate:
    """Closed-form Gaussian fit over the window around the max bin (Guo, 2011).

    A Gaussian is a parabola ``a + b x + c x^2`` in log-magnitude, ``x`` in
    bin offsets from ``center_bin``.  Each of :data:`GAUSSIAN_PASSES` passes
    fits it by weighted least squares to the logs of the positive bins
    (zero-floored bins have none), weighted by ``y^2``, then by the previous
    fit's ``yhat^2``.  Beat estimate: the vertex ``-b / 2c``; intensity:
    ``exp(a - b^2 / 4c)``.  Falls back to :func:`weighted_average_interpolate`
    when fewer than three bins are positive, the fit is not concave or not
    finite, or the vertex leaves the window.
    """
    lo, hi = _window_slice(spec, center_bin, window)
    values = spec.magnitudes[lo:hi]
    positive = values > 0
    if np.count_nonzero(positive) >= 3:
        x = np.arange(lo - center_bin, hi - center_bin, dtype=float)[positive]
        powers = np.vander(x, 5, increasing=True).T  # rows x^0 .. x^4
        peak = float(values.max())
        log_y = np.log(values[positive]) - math.log(peak)
        fit = log_y
        # Wild windows can overflow; a fit that is not finite fails the guard.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(GAUSSIAN_PASSES):
                weights = np.exp(2.0 * (fit - fit.max()))  # y^2, then yhat^2; max 1
                s0, s1, s2, s3, s4 = (powers @ weights).tolist()
                t0, t1, t2 = (powers[:3] @ (weights * log_y)).tolist()
                # Solve [[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]] (a, b, c) = t
                # by its symmetric adjugate m; a singular system gives NaNs.
                m00, m01, m02 = s2 * s4 - s3 * s3, s2 * s3 - s1 * s4, s1 * s3 - s2 * s2
                m11, m12, m22 = s0 * s4 - s2 * s2, s1 * s2 - s0 * s3, s0 * s2 - s1 * s1
                det = s0 * m00 + s1 * m01 + s2 * m02
                scale = 1.0 / det if det > 0 else math.nan
                a = (m00 * t0 + m01 * t1 + m02 * t2) * scale
                b = (m01 * t0 + m11 * t1 + m12 * t2) * scale
                c = (m02 * t0 + m12 * t1 + m22 * t2) * scale
                fit = a + x * (b + c * x)
            offset = -b / (2.0 * c) if c < 0 else math.nan
            intensity = peak * float(np.exp(a + 0.5 * b * offset))
        finite = math.isfinite(a + b + c + intensity)
        if finite and lo - center_bin <= offset <= hi - 1 - center_bin:
            bin_width = spec.bin_frequencies[1] - spec.bin_frequencies[0]
            frequency = float(spec.bin_frequencies[center_bin] + offset * bin_width)
            return _estimate(spec, frequency, intensity, GAUSSIAN, kappa, epsilon_abs)
    return weighted_average_interpolate(spec, center_bin, window, kappa, epsilon_abs)


def estimate_peak(
    spec: RampSpectrum,
    window: int = DEFAULT_WINDOW,
    method: str = WEIGHTED_AVERAGE,
    kappa: float = DEFAULT_KAPPA,
    epsilon_abs: float = 0.0,
) -> PeakEstimate:
    """Max-bin selection followed by the configured interpolation."""
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    center = find_max_bin(spec)
    if center is None:
        return PeakEstimate(spec.ramp_index, 0.0, 0.0, method, valid=False)
    if method == GAUSSIAN:
        return gaussian_interpolate(spec, center, window, kappa, epsilon_abs)
    return weighted_average_interpolate(spec, center, window, kappa, epsilon_abs)
