"""Beat-frequency extraction: max-bin pick plus sub-bin interpolation.

Two interpolators are provided around the maximum: a Gaussian through the
three top bins, in closed form as the parabola through their
log-magnitudes, and an intensity-weighted average over a window of bins.
Spectral peaks of windowed tones span several bins and are close to
Gaussian, so either recovers the beat frequency well below one bin width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, check_integer

DEFAULT_WINDOW = 25

GAUSSIAN = "gaussian"
WEIGHTED_AVERAGE = "weighted_average"
METHODS = (GAUSSIAN, WEIGHTED_AVERAGE)


@dataclass
class PeakEstimate:
    """Interpolated beat-frequency magnitude of one ramp spectrum."""

    beat_frequency: float  # Hz >= 0; sign resolved in the solver
    intensity: float
    method: str
    valid: bool


def check_interpolation(window: int, method: str, bins: int) -> None:
    """Refuse a ``method`` not in :data:`METHODS`, or a ``window`` not odd, >= 3 and <= ``bins``."""
    if method not in METHODS:
        raise ParameterError(f"interp_method must be one of {METHODS}, got {method!r}")
    check_integer("interp_window", window)
    if window < 3 or window % 2 == 0 or window > bins:
        raise ParameterError(f"interp_window must be odd, >= 3 and <= the {bins} bins of a row "
                             f"(fft_bins // 2), got {window}")


@lru_cache(maxsize=16)
def _gather_offsets(n_rows: int, n_bins: int, window: int) -> tuple:
    """A window's bin offsets and the rows' first flat indices, a column (shared: do not modify)."""
    return (np.arange(-(window // 2), window // 2 + 1),
            np.arange(0, n_rows * n_bins, n_bins)[:, None])


def _gaussian_fits(block: np.ndarray) -> tuple:
    """The Gaussian through the three middle bins of each row of a ``(rows,
    window)`` block, in closed form (Gasior and Gonzalez, AIP Conf. Proc. 732,
    2004).

    A Gaussian is a parabola in log-magnitude.  With ``a`` and ``c`` the logs
    of the outer bins less the log of the middle one, the parabola's vertex
    lies ``(a - c) / (2 (a + c))`` bins from the middle, with intensity
    ``middle * exp((c - a) * vertex / 4)``.  Returns each row's vertex offset
    and intensity, as two lists; both are NaN unless the three bins are
    positive, the parabola is concave, the intensity is finite and the vertex
    lies within one bin of the middle.  The other bins are not read.
    """
    half = block.shape[1] // 2
    vertices, intensities = [], []
    for lo, mid, hi in block[:, half - 1 : half + 2].tolist():
        vertex = intensity = math.nan
        # Separate logs: a quotient of wild bins can overflow or underflow.
        if lo > 0.0 and mid > 0.0 and hi > 0.0:
            log_mid = math.log(mid)
            a, c = math.log(lo) - log_mid, math.log(hi) - log_mid
            # |offset| <= 1 bounds the exponent by |a - c| / 4 < 364 for finite bins
            # (an infinite bin fails the test), so exp cannot overflow.
            if a + c < 0.0 and abs(offset := (a - c) / (2.0 * (a + c))) <= 1.0:
                peak = mid * math.exp((c - a) * offset / 4.0)
                if math.isfinite(peak):
                    vertex, intensity = offset, peak
        vertices.append(vertex)
        intensities.append(intensity)
    return vertices, intensities


def _interpolate(rows, bin_freqs, centers, window, method, epsilons) -> list:
    """Each row's peak interpolated around its center bin: the batched core.

    Every numpy step covers all rows at once, and each row's own arithmetic
    on what they give is in Python floats.  A row's window is gathered with its
    bins outside the row (a peak near DC or Nyquist) set to 0, so they drop
    out as floored bins do, and both methods see the same zero-padded
    window.  The weighted average sums each window with ``np.add.reduce``
    in one fixed order for every row and calls no BLAS routine, so its
    bits depend neither on the other rows nor on the BLAS kernel.
    """
    n_bins, half = rows.shape[1], window // 2
    center_list = centers.tolist()
    if not center_list:
        return []
    offsets, starts = _gather_offsets(len(center_list), n_bins, window)
    columns = offsets + centers[:, None]
    # Each row's window (the end bins' past the ends); only one reaching past an end has any.
    weights = rows.take(columns + starts, mode="clip")
    if min(center_list) < half or max(center_list) > n_bins - 1 - half:
        weights[(columns < 0) | (columns >= n_bins)] = 0.0
    found = [None] * len(center_list)  # each row's (frequency, intensity, method)
    if method == GAUSSIAN:
        vertices, intensities = _gaussian_fits(weights)
        # A fit is accepted unless it failed (a NaN vertex).  A finite vertex is
        # within one bin of a center whose neighbours are positive, so inside
        # the row: a neighbour past its ends was set to 0 above.
        step = float(bin_freqs[1] - bin_freqs[0])
        found = [None if math.isnan(v) else (f + v * step, i, GAUSSIAN)
                 for f, v, i in zip(bin_freqs.take(centers).tolist(), vertices, intensities)]
    if None in found:
        # The weighted average, for every row the Gaussian fit does not cover, over
        # each window's bin frequencies (the end bins' past the ends): the two sums
        # in numpy, each row's quotient and clamp in Python floats.
        freqs = bin_freqs.take(columns, mode="clip")
        totals = np.add.reduce(weights, axis=1).tolist()
        moments = np.add.reduce(weights * freqs, axis=1).tolist()
        for r, (fit, total, moment, low, high, center) in enumerate(zip(
                found, totals, moments, freqs[:, 0].tolist(), freqs[:, -1].tolist(),
                weights[:, half].tolist())):
            if fit is None and total != 0.0:  # a window with no weight has no peak
                # Rounding can carry the mean just past an end bin; it stays in the
                # window.  As np.maximum, then np.minimum: a NaN passes, and a tie
                # takes the end bin.
                f = moment / total
                f = f if f > low or f != f else low
                found[r] = (f if f < high or f != f else high, center, WEIGHTED_AVERAGE)
            elif fit is None:  # an all-zero row has no peak under either method; no gate passes 0
                found[r] = (0.0, 0.0, method if not rows[r].any() else WEIGHTED_AVERAGE)
    # Valid past the gate and 0; bool(): a numpy epsilon would make a numpy bool.
    return [PeakEstimate(f, i, m, bool(i > e) and i > 0.0)
            for (f, i, m), e in zip(found, epsilons)]


def estimate_peaks(rows, bin_freqs, epsilons, window, method) -> tuple:
    """Max-bin selection and interpolation, batched over a ``(rows, bins)`` stack.

    Row ``r`` is ramp ``r % 4``, as :func:`~.spectral.magnitude_spectra` lays
    the stack out, gated by ``epsilons[r]``, and gets the estimate it would
    get alone.  The weighted average is ``sum(X(k) F(k)) / sum(X(k))`` over
    the window, its bins past the spectrum's ends taken as 0, with the
    center bin as intensity.  The Gaussian (:func:`_gaussian_fits`) reads
    only the center bin and its two neighbours, so ``window`` is the
    weighted average's alone; the Gaussian falls back to it when its fit
    fails.  An all-zero row has no peak.  :func:`check_interpolation` refuses
    a bad ``window`` or ``method``.  An estimate is valid, a real detection, when its
    intensity exceeds both ``epsilons[r]`` and 0; a low intensity marks an unreliable
    (typically blind) ramp.
    """
    check_interpolation(window, method, rows.shape[1])
    # The strongest bin of each row; ties break toward the lower frequency.
    return tuple(_interpolate(rows, bin_freqs, rows.argmax(axis=1), window, method, epsilons))
