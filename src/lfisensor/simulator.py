"""Synthetic per-ramp sensor signals from ground-truth distance and velocity.

The forward model is the exact algebraic inverse of the two-ramp solver:
``f_signed = (2 R slope + f_e v) / c``, so that solving any ramp pair
recovers (R, v) up to rounding.  Each ramp is a single cosine at the beat
magnitude plus white Gaussian noise, passed through the hardware
high-pass model that creates blind regions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (AliasingError, FramingError, ParameterError, check_integer, check_levels,
                     check_sync_offset)
from .modulation import (SPEED_OF_LIGHT, WorkingPoint, open_atomic, ramp_slopes,
                         read_json_object, write_atomic)

FRAME_FORMAT_VERSION = 2

#: Cycles per block of :func:`cycle_blocks`, the one grouping of frame-file I/O,
#: ``spectral.calibrate`` and ``pipeline.run_stream`` (README: "Block hot path").
STREAM_BLOCK = 16

#: Largest magnitude of a float32 sample, the export dtype.
_FLOAT32_MAX = np.finfo(np.float32).max


@dataclass(frozen=True)
class GroundTruth:
    """True target state: distance in meters, line-of-sight velocity in m/s."""

    distance_R: float
    velocity_v: float

    def __post_init__(self):
        if not (math.isfinite(self.distance_R) and math.isfinite(self.velocity_v)):
            raise ParameterError(
                f"distance_R and velocity_v must be finite, got {self.distance_R, self.velocity_v}"
            )
        if self.distance_R < 0:
            raise ParameterError(
                f"distance_R must be >= 0 (negative R is the mirrored invalid "
                f"solution), got {self.distance_R}"
            )


def signed_beat(wp: WorkingPoint, slope, distance, velocity):
    """Signed beat frequency of a ramp of signed ``slope`` for a target at
    ``distance`` moving at ``velocity``; arrays broadcast."""
    return (2.0 * distance * slope + wp.emitted_frequency * velocity) / SPEED_OF_LIGHT


def cycle_blocks(cycles):
    """Lists of up to :data:`STREAM_BLOCK` consecutive cycles, drawn from any
    iterable of them as each block is needed."""
    source = iter(cycles)
    while block := list(islice(source, STREAM_BLOCK)):
        yield block


def _biquad_pass(x, b0: float, a1: float, a2: float) -> np.ndarray:
    """Run the biquad along the last axis (direct form II transposed).

    It starts in the steady state of a constant input equal to the first
    sample; the DC gain is 0, so that state is ``[-b0, b2] x[0]``.
    """
    # Time first, so each step is one row; b = b0 [1, -2, 1] makes every
    # feed-forward term a multiple of u = b0 x.
    u = b0 * np.ascontiguousarray(np.moveaxis(x, -1, 0))
    y = np.empty_like(u)
    z0, z1 = -u[0], u[0]
    for t in range(len(u)):
        y[t] = yt = u[t] + z0
        z0 = -2.0 * u[t] - a1 * yt + z1
        z1 = u[t] - a2 * yt
    return np.moveaxis(y, 0, -1)


def highpass(samples, wp: WorkingPoint) -> np.ndarray:
    """Apply the hardware high-pass model (zero-phase Butterworth, order 2).

    The designed filter has its -3 dB point at ``wp.hp_cutoff``; applied
    forward-backward the effective response is the squared magnitude,
    about -25 dB at half the cutoff and -0.5 dB at twice the cutoff.
    A zero cutoff bypasses the filter, and so does a signal of no samples.
    """
    x = np.asarray(samples, dtype=float)
    if wp.hp_cutoff == 0.0 or not x.size:
        return x.copy()
    # The biquad b = b0 [1, -2, 1], a = [1, a1, a2]: the bilinear transform
    # of the analog Butterworth prototype, prewarped to the cutoff.
    k = math.tan(math.pi * wp.hp_cutoff / wp.sampling_rate)
    s = 1.0 + math.sqrt(2.0) * k + k * k
    coeffs = 1.0 / s, 2.0 * (k * k - 1.0) / s, (1.0 - math.sqrt(2.0) * k + k * k) / s
    # Odd extension at both ends damps the edge transients.
    pad = min(27, x.shape[-1] - 1)
    left = 2.0 * x[..., :1] - x[..., pad:0:-1]
    right = 2.0 * x[..., -1:] - x[..., -2 : -pad - 2 : -1]
    y = _biquad_pass(np.concatenate([left, x, right], axis=-1), *coeffs)
    y = _biquad_pass(y[..., ::-1], *coeffs)[..., ::-1]
    return y[..., pad : y.shape[-1] - pad]


@lru_cache(maxsize=4)
def _highpass_matrix(wp: WorkingPoint) -> np.ndarray:
    """Time-major ``M``: ``M @ x == highpass(x.T, wp).T`` for ramps in columns.

    Column ``i`` is the filter's response to a unit impulse at sample ``i``;
    synthesis filters ramps in columns, ``(n, n) @ (n, 4 * STREAM_BLOCK)``.
    """
    m = np.ascontiguousarray(highpass(np.eye(wp.samples_per_ramp), wp).T)
    m.flags.writeable = False
    return m


def check_synthesis(amplitude: float, noise_sigma: float, **integers) -> None:
    """Refuse a level that is not a number, finite and >= 0, or a seed, cycle index or
    count (``integers``, by name) that is not a non-negative integer."""
    check_levels(amplitude=amplitude, noise_sigma=noise_sigma)
    for name, value in integers.items():  # numpy would refuse these its own way
        check_integer(name, value, least=0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused before the cast
def synthesize_block(wp: WorkingPoint, truths, amplitude: float, noise_sigma: float,
                     seed: int, cycle_index: int) -> np.ndarray:
    """Synthesize cycles ``cycle_index``, ``cycle_index + 1``, ... at targets
    ``truths``, one little-endian float32 row each (the export dtype).

    Ramp r is ``amplitude * cos(2 pi |f_signed| t + phi_r)`` plus white Gaussian
    noise; cycle k draws its four phases, then its ``(4, n)`` noise (row r for ramp
    r) from ``default_rng((seed, k))``, one generator per cycle.  Each aligned
    group of :data:`STREAM_BLOCK` cycles is filtered by one C-contiguous ``(n, n) @
    (n, 4 * STREAM_BLOCK)`` product, cycle k in columns ``4 * (k % STREAM_BLOCK)`` on
    and zeros in the others: a product's float64 bits depend on its width, so a fixed
    width and column make cycle k's bytes depend on k alone, not on its block.  Zero
    amplitude gives a no-target cycle; levels past float32 raise ParameterError.
    """
    check_synthesis(amplitude, noise_sigma, seed=seed, cycle_index=cycle_index)
    n, count = wp.samples_per_ramp, len(truths)
    targets = np.array([(gt.distance_R, gt.velocity_v) for gt in truths]).reshape(count, 2)
    beats = signed_beat(wp, np.array(ramp_slopes(wp)), targets[:, :1], targets[:, 1:])
    if (over := np.abs(beats).max(axis=1, initial=0.0) >= wp.nyquist).any():
        raise AliasingError(f"beat frequency {max(beats[over.argmax()], key=abs):.6g} Hz is at "
                            f"or above Nyquist ({wp.nyquist:.6g} Hz)")
    rngs = [np.random.default_rng((seed, k)) for k in range(cycle_index, cycle_index + count)]
    phases = np.array([rng.uniform(0.0, 2.0 * np.pi, 4) for rng in rngs]).reshape(count, 4, 1)
    # Slot s holds cycle cycle_index - first + s; the slots fill whole groups.
    first = cycle_index % STREAM_BLOCK if count else 0
    slots = np.zeros((-(-(first + count) // STREAM_BLOCK) * STREAM_BLOCK, 4, n))
    cycles = slots[first : first + count]
    t = np.arange(n) / wp.sampling_rate
    cycles[...] = amplitude * np.cos(2.0 * np.pi * np.abs(beats)[..., None] * t + phases)
    if noise_sigma > 0:  # sigma 0 would add zeros: the phases are drawn first
        for cycle, rng in zip(cycles, rngs):
            cycle += rng.normal(0.0, noise_sigma, (4, n))
    for group in slots.reshape(-1, 4 * STREAM_BLOCK, n):
        group[...] = (_highpass_matrix(wp) @ np.ascontiguousarray(group.T)).T
    if not (within := np.abs(cycles) <= _FLOAT32_MAX).all():  # False at a NaN
        cycle, ramp = divmod(int(within.argmin()) // n, 4)
        raise ParameterError(f"amplitude {amplitude} and noise_sigma {noise_sigma} put cycle "
                             f"{cycle_index + cycle}, ramp {ramp} beyond the float32 range")
    return cycles.astype("<f4").reshape(count, 4 * n)


def synthesize_cycle(wp: WorkingPoint, gt: GroundTruth, amplitude: float, noise_sigma: float,
                     seed: int, cycle_index: int) -> np.ndarray:
    """:func:`synthesize_block` of one cycle: its samples, a float32 row."""
    return synthesize_block(wp, [gt], amplitude, noise_sigma, seed, cycle_index)[0]


def write_frames(stem, cycles, wp: WorkingPoint) -> None:
    """Export cycles, an iterable of ``wp.samples_per_cycle``-sample rows,
    as ``<stem>.f32``, raw little-endian float32, and then a sidecar
    ``<stem>.json`` holding the format version, the working point and the
    cycle count.

    Rows are drawn, checked (:func:`check_block`), cast to float32 and
    written a block (:func:`cycle_blocks`) at a time, so a generator is exported
    in constant memory.  A bad block raises :class:`FramingError`, as
    :func:`read_frames` would, and leaves neither file written.
    """
    raw_path, sidecar_path = _frame_paths(stem)
    n_cycles = 0
    with open_atomic(raw_path) as fh:
        for block in cycle_blocks(cycles):
            fh.write(check_block(block, wp, raw_path, n_cycles).astype("<f4", copy=False))
            n_cycles += len(block)
    sidecar = {
        "format_version": FRAME_FORMAT_VERSION,
        "working_point": wp.to_dict(),
        "cycles": n_cycles,
    }
    write_atomic(sidecar_path, json.dumps(sidecar, sort_keys=True, indent=1))


def _frame_paths(stem):
    stem = Path(stem)
    return stem.with_name(stem.name + ".f32"), stem.with_name(stem.name + ".json")


def read_frames(stem, wp: WorkingPoint, skip: int):
    """Open a :func:`write_frames` export of working point ``wp`` as a cycle iterator.

    The sidecar and the raw file's length are checked now; any defect raises
    :class:`FramingError` naming the file, and a sidecar of another working point raises
    :class:`ParameterError`.  The iterator then skips ``skip`` samples (the sync offset, less
    than a cycle) and the partial cycle they leave at the end, unread, and yields each whole
    cycle as a read-only float32 row, reading :data:`STREAM_BLOCK` at a time.  Each block is
    checked when it is read: a NaN or infinite sample raises :class:`FramingError` naming its
    cycle and ramp, counted from the first whole cycle, before that block yields a cycle.
    A ``skip`` that is no integer in ``[0, wp.samples_per_cycle)`` raises ParameterError first.
    """
    check_sync_offset(skip, wp.samples_per_cycle)
    raw_path, sidecar_path = _frame_paths(stem)
    file_wp, n_cycles = read_json_object(sidecar_path, ("working_point", "cycles"),
                                         _decode_sidecar, FramingError, "frame sidecar",
                                         FRAME_FORMAT_VERSION)
    size = raw_path.stat().st_size
    if size != 4 * n_cycles * file_wp.samples_per_cycle:
        raise FramingError(
            f"{raw_path} has {size} bytes, not the {n_cycles} cycles its sidecar declares"
        )
    if file_wp != wp:
        raise ParameterError("replay file working point differs from the configured working point")
    return _read_blocks(raw_path, n_cycles - (skip > 0), wp, skip)


def _decode_sidecar(sidecar):
    n_cycles = sidecar["cycles"]
    if type(n_cycles) is not int or n_cycles < 0:
        raise ValueError(f"'cycles' must be a count, got {n_cycles!r}")
    return WorkingPoint.from_dict(sidecar["working_point"]), n_cycles


def _read_blocks(raw_path, n_cycles: int, wp: WorkingPoint, skip: int):
    n = wp.samples_per_cycle
    with open(raw_path, "rb") as fh:
        fh.seek(4 * skip)
        for first in range(0, n_cycles, STREAM_BLOCK):
            count = min(STREAM_BLOCK, n_cycles - first)
            block = np.fromfile(fh, dtype="<f4", count=count * n)
            if len(block) != count * n:
                raise FramingError(f"{raw_path} ended before the cycles its sidecar declares")
            block = check_block(block.reshape(count, n), wp, raw_path, first)
            block.flags.writeable = False
            yield from block


def check_block(block, wp: WorkingPoint, source, first_cycle: int) -> np.ndarray:
    """``block``, cycles in rows, as an array once checked.

    Rows that differ in length or are not one cycle, samples that are not real
    numbers (ints and bools are) and a NaN, infinite or finite sample beyond the
    float32 range, the export dtype, raise :class:`FramingError` naming
    ``source``; for a sample, also its cycle (counted from ``first_cycle``) and ramp.
    """
    n = wp.samples_per_cycle
    try:
        block = np.asarray(block)
    except ValueError:
        block = None
    if block is None or block.dtype.kind not in "biuf" or block.shape[1:] != (n,):
        got = ("cycles that differ in length" if block is None
               else f"a block of {block.dtype} in shape {block.shape}")
        raise FramingError(f"{source} has {got}; expected cycles of {n} samples, "
                           "each a real number")
    # A NaN fails both comparisons; the mask is built only to name the sample.
    if block.size and not (np.minimum.reduce(block, axis=None) >= -_FLOAT32_MAX
                           and np.maximum.reduce(block, axis=None) <= _FLOAT32_MAX):
        first = int((np.abs(block) <= _FLOAT32_MAX).argmin())
        cycle, ramp = divmod(first // wp.samples_per_ramp, 4)
        what = ("a non-finite sample" if not np.isfinite(block.flat[first])
                else "a sample beyond the float32 range")
        raise FramingError(f"{source} has {what} in cycle {first_cycle + cycle}, ramp {ramp}")
    return block
