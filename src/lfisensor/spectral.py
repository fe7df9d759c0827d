"""Magnitude spectra, the no-target calibration and floor removal.

Each stage takes a stack of ramps, one row per ramp: Hamming window,
zero-pad and FFT magnitude (processing and calibration alike), then, after
the pipeline's sliding average over recent cycles, adaptive spectral
subtraction against the calibrated no-target reference, floored at zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import (CalibrationError, ParameterError, check_integer, check_sync_offset,
                     check_work, is_real)
from .modulation import WorkingPoint, decode_fields, read_json_object, write_atomic
from .simulator import STREAM_BLOCK, check_block, cycle_blocks

DEFAULT_FFT_BINS = 2048
DEFAULT_ALPHA = 1.0
DEFAULT_BETA = 0.0
CALIBRATION_FORMAT_VERSION = 3
#: No-target cycles a calibration needs (its sample sigma takes at least two).
MIN_CALIBRATION_CYCLES = 16
#: The calibration file's key of each scalar field of :class:`Calibration`.
_CALIBRATION_SCALARS = {"n_cycles": "cycles", "sampling_rate": "sampling_rate_hz",
                        "samples_per_ramp": "samples_per_ramp",
                        "sync_offset_samples": "sync_offset_samples"}


@dataclass
class Calibration:
    """Per-bin mean and sigma of the no-target spectra, ramp i in row i.

    ``reference_mean`` and ``reference_sigma`` have shape
    ``(4, n_bins // 2)``; ``n_cycles`` no-target cycles went into them, read
    from a stream that starts ``sync_offset_samples`` samples in.
    """

    reference_mean: np.ndarray
    reference_sigma: np.ndarray
    n_cycles: int
    sampling_rate: float
    samples_per_ramp: int
    sync_offset_samples: int

    def __post_init__(self):
        for name in ("n_cycles", "samples_per_ramp"):
            check_integer(name, getattr(self, name))
        if not is_real(self.sampling_rate):
            raise CalibrationError(f"sampling_rate must be real, got {self.sampling_rate!r}")
        if self.n_cycles < MIN_CALIBRATION_CYCLES:  # fewer than calibrate() writes
            raise CalibrationError(f"cycles must be >= {MIN_CALIBRATION_CYCLES}, "
                                   f"got {self.n_cycles}")
        check_sync_offset(self.sync_offset_samples, 4 * self.samples_per_ramp)
        for name in ("reference_mean", "reference_sigma"):
            rows = getattr(self, name)
            if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "f"):
                raise CalibrationError(f"{name} must be a real float ndarray, got "
                                       f"{getattr(rows, 'dtype', type(rows).__name__)}")
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

    def check_compatible(self, wp: WorkingPoint, fft_bins: int, sync_offset: int) -> None:
        """Refuse a calibration that does not match the active working point and front end."""
        for what, mine, unit, other, theirs in (
                ("FFT size", self.n_bins, "", "configured", fft_bins),
                ("sampling rate", self.sampling_rate, "", "working point", wp.sampling_rate),
                ("frame length", self.samples_per_ramp, "", "working point", wp.samples_per_ramp),
                ("sync offset", self.sync_offset_samples, " samples", "configured", sync_offset)):
            if mine != theirs:
                raise CalibrationError(f"calibration {what} {mine}{unit} != {other} {theirs}")

    def save(self, path) -> None:
        payload = {
            "format_version": CALIBRATION_FORMAT_VERSION,
            **{key: getattr(self, name) for name, key in _CALIBRATION_SCALARS.items()},
            "reference_mean": self.reference_mean.tolist(),
            "reference_sigma": self.reference_sigma.tolist(),
        }
        write_atomic(path, json.dumps(payload, sort_keys=True))

    @classmethod
    def load(cls, path) -> "Calibration":
        """Read a :meth:`save` file; any defect raises CalibrationError naming it."""
        return read_json_object(path, ("reference_mean", "reference_sigma",
                                       *_CALIBRATION_SCALARS.values()), cls._decode,
                                CalibrationError, "calibration", CALIBRATION_FORMAT_VERSION)

    @classmethod
    def _decode(cls, payload: dict) -> "Calibration":
        rows = payload["reference_mean"], payload["reference_sigma"]
        # numpy would read false and "0" as 0.0: a bin holds a JSON number, nothing else.
        other = {t for row in (*rows[0], *rows[1]) for t in set(map(type, row))} - {int, float}
        if other:
            raise TypeError(f"a reference bin must be a number, not {other.pop().__name__}")
        scalars = {key: payload[key] for key in _CALIBRATION_SCALARS.values()}
        return cls(*(np.asarray(array, dtype=float) for array in rows),
                   **decode_fields(cls, scalars, _CALIBRATION_SCALARS))


def check_fft_bins(fft_bins: int, frame_length: int) -> None:
    """Refuse an FFT size that is not an integer power of two, is shorter than a frame, or
    needs more than :data:`MAX_WORK_BYTES` of FFT work arrays for a block."""
    check_integer("fft_bins", fft_bins)
    if fft_bins < frame_length:
        raise ParameterError(
            f"fft_bins ({fft_bins}) must be >= frame length ({frame_length})"
        )
    if fft_bins & (fft_bins - 1):
        raise ParameterError(f"fft_bins must be a power of two, got {fft_bins}")
    _check_fft_work(fft_bins, STREAM_BLOCK, f"fft_bins ({fft_bins})")


def _check_fft_work(fft_bins: int, cycles: int, what: str) -> None:
    """Refuse ``what`` if the FFT work arrays of ``cycles`` cycles pass :data:`MAX_WORK_BYTES`."""
    # Per frame, each block allocates anew: the windowed float frame (at most fft_bins
    # samples), its complex rfft and the magnitudes, which it returns.
    work = 4 * cycles * (8 * fft_bins + 16 * (fft_bins // 2 + 1) + 8 * (fft_bins // 2))
    check_work(work, f"{what} needs {work} bytes of FFT work arrays")


def magnitude_spectra(block, wp: WorkingPoint, window, fft_bins: int,
                      first_cycle: int) -> np.ndarray:
    """Hamming-windowed (``window``), zero-padded FFT magnitudes of a block of whole cycles.

    Ramp ``r`` of cycle ``c`` is row ``4 c + r`` of the new ``(4 * cycles, fft_bins // 2)``
    result, the caller's to change, bit for bit its own frame's transform.  A block that
    fails :func:`~.simulator.check_block` (cycles counted from ``first_cycle``) raises
    :class:`FramingError`, and one whose FFT work arrays would pass :data:`MAX_WORK_BYTES`
    :class:`ParameterError`, before any of them is allocated.
    """
    block = check_block(block, wp, "input", first_cycle)
    _check_fft_work(fft_bins, len(block), f"a block of {len(block)} cycles at fft_bins {fft_bins}")
    frames = block.reshape(4 * len(block), len(window)) * window
    return np.abs(np.fft.rfft(frames, fft_bins, axis=-1)[:, : fft_bins // 2])


def bin_frequencies(wp: WorkingPoint, fft_bins: int) -> np.ndarray:
    """Center frequencies of the one-sided bins."""
    return np.arange(fft_bins // 2) * (wp.sampling_rate / fft_bins)


def calibrate(cycles, wp: WorkingPoint, fft_bins: int = DEFAULT_FFT_BINS,
              offset: int = 0) -> Calibration:
    """Build per-ramp reference spectra from no-target cycles, any iterable of them.

    One pass, a block (:func:`~.simulator.cycle_blocks`) at a time through the pipeline's
    :func:`magnitude_spectra`, in constant memory: per bin, the mean is a running sum over the
    count (``np.mean`` of the stack, bit for bit) and the sample sigma is Welford's one-pass
    update.  ``offset``, the sync offset the cycles' source skipped, is only recorded.
    """
    check_fft_bins(fft_bins, wp.samples_per_ramp)
    check_sync_offset(offset, wp.samples_per_cycle)
    window, n_cycles = np.hamming(wp.samples_per_ramp), 0
    total, mean, m2 = np.zeros((3, 4, fft_bins // 2))
    for block in cycle_blocks(cycles):
        spectra = magnitude_spectra(block, wp, window, fft_bins, n_cycles)
        for s in spectra.reshape(len(block), 4, -1):
            n_cycles += 1
            total += s
            delta = s - mean
            mean += delta / n_cycles
            m2 += delta * (s - mean)
    if n_cycles < MIN_CALIBRATION_CYCLES:
        raise CalibrationError(
            f"calibration needs >= {MIN_CALIBRATION_CYCLES} no-target cycles, got {n_cycles}"
        )
    return Calibration(
        reference_mean=total / n_cycles,
        reference_sigma=np.sqrt(m2 / (n_cycles - 1)),
        n_cycles=n_cycles,
        sampling_rate=wp.sampling_rate,
        samples_per_ramp=wp.samples_per_ramp,
        sync_offset_samples=offset,
    )


def row_medians(a) -> list:
    """``np.median`` of each row of a 2-D array of finite floats, bit for bit: the middle
    element, or the mean ``(a + b) / 2`` of the middle pair, in Python floats, where a sum
    past the largest float is inf with no warning.  ``a`` is partitioned in place, so a caller
    whose array outlives the call passes a copy: the upper middle element goes where a sort
    would put it, and the lower one is the largest before it.  (``np.median``'s NaN check
    imports ``numpy.ma``, which every command would pay for at start-up.)"""
    half = a.shape[1] // 2
    a.partition(half, axis=1)
    if a.shape[1] % 2:
        return a[:, half].tolist()
    return [(low + high) / 2 for low, high in zip(a[:, :half].max(axis=1).tolist(),
                                                   a[:, half].tolist())]


def remove_floor(stack, scaled_mean, scaled_sigma) -> None:
    """Replace ``stack`` by ``max(stack - scaled_mean - scaled_sigma, 0)`` per bin, in that order.

    The scaled references are ``alpha * mean_ref`` and ``beta * sigma_ref``;
    the pipeline computes them once per configuration.  A ``scaled_sigma`` of
    None stands for zeros and subtracts nothing.
    """
    stack -= scaled_mean
    if scaled_sigma is not None:
        stack -= scaled_sigma
    np.maximum(stack, 0.0, out=stack)
