"""Ramp slicing, magnitude spectra, the no-target calibration and floor removal.

Each stage takes a stack of ramps, one row per ramp: Hamming window,
zero-pad and FFT magnitude, then (after the pipeline's sliding average over
recent cycles) adaptive spectral subtraction against the calibrated
no-target reference, floored at zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import CalibrationError, FramingError, ParameterError
from .modulation import WorkingPoint, write_atomic

DEFAULT_FFT_BINS = 2048
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 0.0
CALIBRATION_FORMAT_VERSION = 2
MIN_CALIBRATION_CYCLES = 16


@dataclass
class Calibration:
    """Per-bin mean and sigma of the no-target spectra, ramp i in row i.

    ``reference_mean`` and ``reference_sigma`` have shape
    ``(4, n_bins // 2)``; ``n_cycles`` no-target cycles went into them.
    """

    reference_mean: np.ndarray
    reference_sigma: np.ndarray
    n_cycles: int
    sampling_rate: float
    samples_per_ramp: int

    def __post_init__(self):
        if self.n_cycles < 1:
            raise CalibrationError(f"cycles must be >= 1, got {self.n_cycles}")
        for name in ("reference_mean", "reference_sigma"):
            rows = getattr(self, name)
            if rows.ndim != 2 or len(rows) != 4:
                raise CalibrationError(f"{name} must be 4 rows, got shape {rows.shape}")
            if not np.all(np.isfinite(rows) & (rows >= 0)):
                raise CalibrationError(f"{name} must be finite and nonnegative")
        if self.reference_mean.shape != self.reference_sigma.shape:
            raise CalibrationError("reference mean and sigma must have the same shape")

    def __eq__(self, other):
        """Value equality: the same arrays, element for element, and the same scalars."""
        return type(other) is Calibration and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @property
    def n_bins(self) -> int:
        """FFT size of the calibrated spectra: twice their one-sided length."""
        return 2 * self.reference_mean.shape[1]

    def check_compatible(self, wp: WorkingPoint, fft_bins: int) -> None:
        """Refuse a calibration that does not match the active working point."""
        if self.n_bins != fft_bins:
            raise CalibrationError(
                f"calibration FFT size {self.n_bins} != configured {fft_bins}"
            )
        if self.sampling_rate != wp.sampling_rate:
            raise CalibrationError(
                f"calibration sampling rate {self.sampling_rate} != working point "
                f"{wp.sampling_rate}"
            )
        if self.samples_per_ramp != wp.samples_per_ramp:
            raise CalibrationError(
                f"calibration frame length {self.samples_per_ramp} != working point "
                f"{wp.samples_per_ramp}"
            )

    def save(self, path) -> None:
        payload = {
            "format_version": CALIBRATION_FORMAT_VERSION,
            "cycles": self.n_cycles,
            "sampling_rate_hz": self.sampling_rate,
            "samples_per_ramp": self.samples_per_ramp,
            "reference_mean": self.reference_mean.tolist(),
            "reference_sigma": self.reference_sigma.tolist(),
        }
        write_atomic(path, json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path) -> "Calibration":
        """Read a :meth:`save` file; any defect raises CalibrationError naming it."""
        try:
            payload = json.loads(Path(path).read_text())
            version = payload.get("format_version")
            if type(version) is not int or version != CALIBRATION_FORMAT_VERSION:
                raise CalibrationError(
                    f"unsupported calibration format version {version!r}"
                )
            mean = np.asarray(payload["reference_mean"], dtype=float)
            sigma = np.asarray(payload["reference_sigma"], dtype=float)
            n_cycles = payload["cycles"]
            rate = payload["sampling_rate_hz"]
            n = payload["samples_per_ramp"]
            # bool is an int to Python; a count or rate is neither a bool nor truncated.
            if type(n_cycles) is not int or type(n) is not int:
                raise TypeError(
                    f"cycles and samples_per_ramp must be integers, got {(n_cycles, n)}"
                )
            if type(rate) not in (int, float):
                raise TypeError(f"sampling_rate_hz must be a number, got {rate!r}")
            return cls(reference_mean=mean, reference_sigma=sigma, n_cycles=n_cycles,
                       sampling_rate=float(rate), samples_per_ramp=n)
        except KeyError as exc:
            raise CalibrationError(f"calibration {path} has no key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise CalibrationError(f"calibration {path} is malformed: {exc}") from None


def slice_cycle(samples, wp: WorkingPoint) -> np.ndarray:
    """Split one cycle of ADC samples into its four ramp frames.

    Returns a ``(4, samples_per_ramp)`` view whose rows partition the
    input exactly: no overlap, no gap.
    """
    samples = np.asarray(samples)
    n = wp.samples_per_ramp
    if samples.ndim != 1 or samples.size != 4 * n:
        raise FramingError(
            f"expected one cycle of {4 * n} samples, got shape {samples.shape}"
        )
    return samples.reshape(4, n)


@lru_cache(maxsize=16)
def hamming(length: int) -> np.ndarray:
    """Hamming window of a frame length (cached and shared: do not modify)."""
    return np.hamming(length)


def check_fft_bins(fft_bins: int, frame_length: int) -> None:
    """Refuse an FFT size that is not a power of two or is shorter than a frame."""
    if fft_bins < frame_length:
        raise ParameterError(
            f"fft_bins ({fft_bins}) must be >= frame length ({frame_length})"
        )
    if fft_bins & (fft_bins - 1):
        raise ParameterError(f"fft_bins must be a power of two, got {fft_bins}")


def magnitude_spectra(frames, window: np.ndarray, fft_bins: int) -> np.ndarray:
    """Windowed, zero-padded one-sided FFT magnitudes along the last axis.

    ``frames`` is one frame or a stack of them (a whole cycle is one
    ``(4, samples_per_ramp)`` call); ``window`` is the Hamming window of
    the frame length.  Each row equals its own single-frame transform bit
    for bit.
    """
    return np.abs(np.fft.rfft(frames * window, n=fft_bins, axis=-1)[..., : fft_bins // 2])


@lru_cache(maxsize=16)
def _bin_frequencies(sampling_rate: float, fft_bins: int) -> np.ndarray:
    return np.arange(fft_bins // 2) * (sampling_rate / fft_bins)


def bin_frequencies(wp: WorkingPoint, fft_bins: int = DEFAULT_FFT_BINS) -> np.ndarray:
    """Center frequencies of the one-sided bins."""
    return _bin_frequencies(wp.sampling_rate, fft_bins)


def calibrate(
    cycles,
    wp: WorkingPoint,
    fft_bins: int = DEFAULT_FFT_BINS,
    min_cycles: int = MIN_CALIBRATION_CYCLES,
) -> Calibration:
    """Build per-ramp reference spectra from no-target cycles.

    For each ramp index the reference is the per-bin mean and sample
    standard deviation over all supplied cycles.
    """
    check_fft_bins(fft_bins, wp.samples_per_ramp)
    window = hamming(wp.samples_per_ramp)
    spectra = [magnitude_spectra(slice_cycle(c, wp), window, fft_bins) for c in cycles]
    n_cycles = len(spectra)
    if n_cycles < min_cycles:
        raise CalibrationError(
            f"calibration needs >= {min_cycles} no-target cycles, got {n_cycles}"
        )
    stack = np.stack(spectra)  # (cycle, ramp, bin)
    return Calibration(
        reference_mean=stack.mean(axis=0),
        reference_sigma=stack.std(axis=0, ddof=1),
        n_cycles=n_cycles,
        sampling_rate=wp.sampling_rate,
        samples_per_ramp=wp.samples_per_ramp,
    )


def remove_floor(magnitudes, scaled_mean, scaled_sigma, out=None) -> np.ndarray:
    """``max(X - scaled_mean - scaled_sigma, 0)`` per bin, in that order.

    The scaled references are ``alpha * mean_ref`` and ``beta * sigma_ref``;
    the pipeline computes them once per configuration; ``out`` may be ``magnitudes``.
    """
    cleaned = np.subtract(magnitudes, scaled_mean, out=out)
    cleaned -= scaled_sigma
    return np.maximum(cleaned, 0.0, out=cleaned)
