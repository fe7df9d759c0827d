"""Beat-frequency extraction: max-bin pick plus sub-bin interpolation.

Two interpolators are provided over a window of bins around the maximum:
a least-squares Gaussian fit and an intensity-weighted average.  Spectral
peaks of windowed tones span several bins and are close to Gaussian, so
either recovers the beat frequency well below one bin width.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import ParameterError
from .spectral import RampSpectrum

DEFAULT_WINDOW = 25
DEFAULT_KAPPA = 3.0

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


def _invalid(spec: RampSpectrum, method: str) -> PeakEstimate:
    return PeakEstimate(
        ramp_index=spec.ramp_index,
        beat_frequency=0.0,
        intensity=0.0,
        method=method,
        valid=False,
    )


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
        return _invalid(spec, WEIGHTED_AVERAGE)
    frequency = float(np.dot(weights, spec.bin_frequencies[lo:hi]) / total)
    intensity = float(spec.magnitudes[center_bin])
    return PeakEstimate(
        ramp_index=spec.ramp_index,
        beat_frequency=frequency,
        intensity=intensity,
        method=WEIGHTED_AVERAGE,
        valid=intensity > validity_threshold(spec, kappa, epsilon_abs),
    )


def _gaussian(x, a, b, c):
    return a * np.exp(-((x - b) ** 2) / (2.0 * c**2))


def gaussian_interpolate(
    spec: RampSpectrum,
    center_bin: int,
    window: int = DEFAULT_WINDOW,
    kappa: float = DEFAULT_KAPPA,
    epsilon_abs: float = 0.0,
) -> PeakEstimate:
    """Least-squares Gaussian fit over the window around the max bin.

    Fits ``a * exp(-(f - b)^2 / (2 c^2))``; the beat estimate is the
    fitted center ``b`` and the intensity the fitted amplitude ``a``.
    Falls back to :func:`weighted_average_interpolate` when the fit
    diverges or the center leaves the window.
    """
    lo, hi = _window_slice(spec, center_bin, window)
    values = spec.magnitudes[lo:hi]
    if not np.any(values):
        return _invalid(spec, GAUSSIAN)
    bin_width = spec.bin_frequencies[1] - spec.bin_frequencies[0]
    # Fit in bin offsets relative to the center bin for conditioning.
    x = (spec.bin_frequencies[lo:hi] - spec.bin_frequencies[center_bin]) / bin_width
    p0 = (float(values.max()), 0.0, 2.0)
    try:
        with warnings.catch_warnings():
            # Covariance is unused; flat windows make it inestimable.
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                _gaussian, x, values, p0=p0, xtol=1e-9, ftol=1e-9,
                maxfev=50 * (len(p0) + 1),
            )
    except RuntimeError:
        return weighted_average_interpolate(spec, center_bin, window, kappa, epsilon_abs)
    a_hat, b_hat = float(popt[0]), float(popt[1])
    if not (x[0] <= b_hat <= x[-1]) or not np.isfinite(a_hat) or a_hat <= 0:
        return weighted_average_interpolate(spec, center_bin, window, kappa, epsilon_abs)
    frequency = float(spec.bin_frequencies[center_bin] + b_hat * bin_width)
    return PeakEstimate(
        ramp_index=spec.ramp_index,
        beat_frequency=frequency,
        intensity=a_hat,
        method=GAUSSIAN,
        valid=a_hat > validity_threshold(spec, kappa, epsilon_abs),
    )


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
        return _invalid(spec, method)
    if method == GAUSSIAN:
        return gaussian_interpolate(spec, center, window, kappa, epsilon_abs)
    return weighted_average_interpolate(spec, center, window, kappa, epsilon_abs)
