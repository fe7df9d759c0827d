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
from functools import lru_cache

import numpy as np

from .errors import ParameterError

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


def validity_thresholds(rows, epsilons, scratch) -> list:
    """Intensity a peak must exceed to count as a real detection, per row.

    ``max(epsilons[r], DEFAULT_KAPPA * median of the positive bins)`` of each row of
    a floored ``(rows, bins)`` stack (0 for the median of no bins); a low
    intensity marks an unreliable (typically blind) ramp.  One sort of a copy
    (into ``scratch``, an array of the stack's shape) puts each row's
    nonpositive bins first and its NaNs last, so the positive bins are one
    span and the median is ``np.median``'s, bit for bit.
    """
    np.copyto(scratch, rows)
    scratch.sort(axis=1)
    thresholds = []
    for row, epsilon in zip(scratch, epsilons):
        lo = int(row.searchsorted(0.0, side="right"))
        hi = int(row.searchsorted(math.inf, side="right"))
        k = (lo + hi) // 2
        if lo == hi:
            median = 0.0
        elif (hi - lo) % 2:
            median = float(row[k])
        else:  # np.median's mean of the middle pair; Python floats overflow quietly
            median = (float(row[k - 1]) + float(row[k])) / 2
        thresholds.append(max(epsilon, DEFAULT_KAPPA * median))
    return thresholds


@lru_cache(maxsize=16)
def _window_tables(window: int):
    """The bin offsets ``x`` in a window, as ints and floats, and their
    ``(window, 5)`` powers ``x^0 .. x^4`` (cached and shared: do not modify)."""
    x = np.arange(-(window // 2), window // 2 + 1)
    return x, x.astype(float), np.vander(x.astype(float), 5, increasing=True)


def _gaussian_fits(block: np.ndarray) -> tuple:
    """Guo's closed-form Gaussian fit to each row of a ``(rows, window)`` block.

    A Gaussian is a parabola ``a + b x + c x^2`` in log-magnitude, ``x`` the
    bin offset from the window's middle.  Each of :data:`GAUSSIAN_PASSES`
    passes fits it by weighted least squares to the logs of the positive
    bins (zero-floored bins have none), weighted by ``y^2``, then by the
    previous fit's ``yhat^2``.  Returns each row's vertex offset ``-b / 2c``
    and intensity ``exp(a - b^2 / 4c)``, as two lists; the offset is NaN
    when fewer than three bins are positive or the fit is not concave or
    finite.
    """
    n_rows = len(block)
    _, x, powers = _window_tables(block.shape[1])
    positive = block > 0
    peak = block.max(axis=1)
    # Wild windows can overflow; a fit that is not finite fails the guard.
    with np.errstate(all="ignore"):
        log_y = np.log(np.where(positive, block, 1.0)) - np.log(peak)[:, None]
        fit = np.where(positive, log_y, -np.inf)
        for done in range(1, GAUSSIAN_PASSES + 1):
            # y^2, then yhat^2, each scaled by its row's largest; the first
            # pass's largest fit is log(peak) - log(peak) = 0, so it is not taken.
            if done > 1:
                fit -= fit.max(axis=1, keepdims=True)
            weights = np.exp(2.0 * fit)
            sums = (np.concatenate([weights, weights * log_y]) @ powers).tolist()
            abc = []
            for (s0, s1, s2, s3, s4), (t0, t1, t2, _, _) in zip(sums, sums[n_rows:]):
                # Solve [[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]] (a, b, c) = t
                # by its symmetric adjugate m; a singular system gives NaNs.
                m00, m01, m02 = s2 * s4 - s3 * s3, s2 * s3 - s1 * s4, s1 * s3 - s2 * s2
                m11, m12, m22 = s0 * s4 - s2 * s2, s1 * s2 - s0 * s3, s0 * s2 - s1 * s1
                det = s0 * m00 + s1 * m01 + s2 * m02
                scale = 1.0 / det if det > 0 else math.nan
                abc.append(((m00 * t0 + m01 * t1 + m02 * t2) * scale,
                            (m01 * t0 + m11 * t1 + m12 * t2) * scale,
                            (m02 * t0 + m12 * t1 + m22 * t2) * scale))
            if done < GAUSSIAN_PASSES:
                # Elementwise, not a matmul, so that no row's fit depends on another's.
                a, b, c = np.array(abc).T[:, :, None]
                fit = np.where(positive, a + x * (b + c * x), -np.inf)
    vertices, intensities = [], []
    for (a, b, c), top, n in zip(abc, peak.tolist(), positive.sum(axis=1).tolist()):
        offset = -b / (2.0 * c) if c < 0 else math.nan
        try:
            intensity = top * math.exp(a + 0.5 * b * offset)
        except OverflowError:  # where np.exp would give inf
            intensity = math.inf
        finite = math.isfinite(a + b + c + intensity)
        vertices.append(offset if n >= 3 and finite else math.nan)
        intensities.append(intensity)
    return vertices, intensities


def _interpolate(rows, bin_freqs, centers, window, method, epsilons, scratch) -> list:
    """Each row's peak interpolated around its center bin: the batched core.

    Every step covers all rows at once, except the weighted average of a
    row whose window reaches bin 0 or the last bin (a peak near DC or
    Nyquist, which is rare).  That row sums its own slice: a zero-padded
    window would regroup the sum and the dot product and so move the record
    by rounding, and at bin 0 ``np.maximum`` would clamp a ``-0.0`` mean
    differently from ``max``.
    """
    n_bins, half = rows.shape[1], window // 2
    center_list = centers.tolist()
    if not center_list:
        return []
    lowest, highest = min(center_list), max(center_list)
    thresholds = validity_thresholds(rows, epsilons, scratch)
    edges = lowest <= half or highest >= n_bins - 1 - half
    columns = _window_tables(window)[0] + centers[:, None]
    # Each row's window and its bin frequencies; an edge row's are redone below.
    weights = rows.take(columns + np.arange(0, rows.size, n_bins)[:, None], mode="clip")
    freqs = bin_freqs.take(columns, mode="clip")
    if method == GAUSSIAN:
        if edges:  # bins outside their row read as 0, so they drop out as floored bins do
            weights[(columns < 0) | (columns >= n_bins)] = 0.0
        vertices, fit_intensities = _gaussian_fits(weights)
        vertices = np.array(vertices)
        # A vertex must stay in the window's bins; a failed fit's NaN does not.
        if edges:
            accepted = ((vertices >= np.maximum(centers - half, 0) - centers)
                        & (vertices <= np.minimum(centers + half, n_bins - 1) - centers))
        else:
            accepted = np.abs(vertices) <= half
        fitted = freqs[:, half] + vertices * (bin_freqs[1] - bin_freqs[0])
        if accepted.all():
            return [PeakEstimate(r % 4, f, i, GAUSSIAN, bool(i > t)) for r, (f, i, t)
                    in enumerate(zip(fitted.tolist(), fit_intensities, thresholds))]
    # The weighted average, for every row the Gaussian fit does not cover.
    totals = weights.sum(axis=1)
    found = totals != 0.0  # a window with no weight has no peak
    # One BLAS ddot per row, as np.dot of the two windows makes.
    dots = np.matmul(weights[:, None, :], freqs[:, :, None])[:, 0, 0]
    means = np.divide(dots, totals, out=dots, where=found)
    # Rounding can carry the mean just past an end bin; it stays in the window.
    means = np.minimum(np.maximum(means, freqs[:, 0]), freqs[:, -1])
    for r, center in enumerate(center_list if edges else ()):
        if half < center < n_bins - 1 - half:
            continue
        lo, hi = max(0, center - half), min(n_bins, center + half + 1)
        window_r, freqs_r = rows[r, lo:hi], bin_freqs[lo:hi]
        total = float(window_r.sum())
        found[r] = total != 0.0
        if found[r]:
            means[r] = min(max(np.dot(window_r, freqs_r) / total, freqs_r[0]), freqs_r[-1])
    intensities, used = weights[:, half], [WEIGHTED_AVERAGE] * len(rows)
    if method == GAUSSIAN:
        means = np.where(accepted, fitted, means)
        intensities = np.where(accepted, fit_intensities, intensities)
        found |= accepted
        used = [GAUSSIAN if a else WEIGHTED_AVERAGE for a in accepted.tolist()]
    valid = intensities > np.asarray(thresholds)
    # An all-zero row has no peak under either method.
    return [PeakEstimate(r % 4, f, i, m, v) if peak
            else PeakEstimate(r % 4, 0.0, 0.0, method if not rows[r].any() else WEIGHTED_AVERAGE,
                              valid=False)
            for r, (f, i, m, v, peak) in enumerate(zip(
                means.tolist(), intensities.tolist(), used, valid.tolist(), found.tolist()))]


def estimate_peaks(rows, bin_freqs, epsilons, window, method, scratch) -> tuple:
    """Max-bin selection and interpolation, batched over a ``(rows, bins)`` stack.

    Row ``r`` is ramp ``r % 4``, as :func:`~.spectral.magnitude_spectra` lays
    the stack out, gated by ``epsilons[r]``, and gets the estimate it would
    get alone.  The weighted average is ``sum(X(k) F(k)) / sum(X(k))`` over
    the window, with the center bin as intensity; the Gaussian fit
    (:func:`_gaussian_fits`) falls back to it when it fails or its vertex
    leaves the window.  An all-zero row has no peak.  The threshold sort
    overwrites ``scratch``, an array of the stack's shape.
    """
    if method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if window < 3 or window % 2 == 0 or window > rows.shape[1]:
        raise ParameterError(
            f"window must be odd, >= 3 and <= the {rows.shape[1]} bins of a row, got {window}")
    # The strongest bin of each row; ties break toward the lower frequency.
    return tuple(_interpolate(rows, bin_freqs, rows.argmax(axis=1), window, method, epsilons,
                              scratch))
