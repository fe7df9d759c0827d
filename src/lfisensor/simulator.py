"""Synthetic per-ramp sensor signals from ground-truth distance and velocity.

The forward model is the exact algebraic inverse of the two-ramp solver:
``f_signed = (2 R slope + f_e v) / c``, so that solving any ramp pair
recovers (R, v) up to rounding.  Frames are a single cosine at the beat
magnitude plus white Gaussian noise, passed through the hardware
high-pass model that creates blind regions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import AliasingError, FramingError, ParameterError
from .modulation import SPEED_OF_LIGHT, RampDescriptor, WorkingPoint, write_atomic

FRAME_FORMAT_VERSION = 2


@dataclass(frozen=True)
class GroundTruth:
    """True target state: distance in meters, line-of-sight velocity in m/s."""

    distance_R: float
    velocity_v: float

    def __post_init__(self):
        if self.distance_R < 0:
            raise ParameterError(
                f"distance_R must be >= 0 (negative R is the mirrored invalid "
                f"solution), got {self.distance_R}"
            )


@dataclass
class SyntheticFrame:
    """One ramp's synthesized ADC samples plus test-oracle bookkeeping."""

    ramp: RampDescriptor
    samples: np.ndarray  # float32, length round(duration * sampling_rate)
    true_signed_beat: float
    blind: bool


def signed_beat(wp: WorkingPoint, ramp: RampDescriptor, gt: GroundTruth) -> float:
    """Signed beat frequency of one ramp for a given target state."""
    return (
        2.0 * gt.distance_R * ramp.slope + wp.emitted_frequency * gt.velocity_v
    ) / SPEED_OF_LIGHT


@lru_cache(maxsize=32)
def _highpass_sos(cutoff: float, fs: float):
    # scipy.signal takes about a second to import; only synthesis needs it.
    from scipy.signal import butter

    return butter(2, cutoff, btype="highpass", fs=fs, output="sos")


def highpass(samples, wp: WorkingPoint) -> np.ndarray:
    """Apply the hardware high-pass model (zero-phase Butterworth, order 2).

    The designed filter has its -3 dB point at ``wp.hp_cutoff``; applied
    forward-backward the effective response is the squared magnitude,
    about -25 dB at half the cutoff and -0.5 dB at twice the cutoff.
    A zero cutoff bypasses the filter.
    """
    x = np.asarray(samples, dtype=float)
    if wp.hp_cutoff == 0.0:
        return x.copy()
    from scipy.signal import sosfiltfilt

    sos = _highpass_sos(wp.hp_cutoff, wp.sampling_rate)
    padlen = min(27, x.shape[-1] - 1)
    return sosfiltfilt(sos, x, padlen=padlen)


def synthesize_frame(
    wp: WorkingPoint,
    ramp: RampDescriptor,
    gt: GroundTruth,
    amplitude: float,
    noise_sigma: float,
    seed,
) -> SyntheticFrame:
    """Synthesize one ramp frame deterministically for a given seed.

    Samples are ``amplitude * cos(2 pi |f_signed| t + phi)`` plus white
    Gaussian noise, then high-pass filtered and stored as little-endian
    float32 (the export dtype).  The phase is drawn once per frame from
    the seeded generator.  Zero amplitude gives a no-target frame.
    """
    if amplitude < 0:
        raise ParameterError(f"amplitude must be >= 0, got {amplitude}")
    if noise_sigma < 0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    f = signed_beat(wp, ramp, gt)
    if abs(f) >= wp.nyquist:
        raise AliasingError(
            f"beat frequency {f:.6g} Hz is at or above Nyquist ({wp.nyquist:.6g} Hz)"
        )
    n = int(round(ramp.duration * wp.sampling_rate))
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(n) / wp.sampling_rate
    samples = amplitude * np.cos(2.0 * np.pi * abs(f) * t + phase)
    if noise_sigma > 0:
        samples = samples + rng.normal(0.0, noise_sigma, n)
    samples = highpass(samples, wp).astype("<f4")
    return SyntheticFrame(
        ramp=ramp,
        samples=samples,
        true_signed_beat=f,
        blind=abs(f) < wp.hp_cutoff,
    )


def synthesize_cycle(
    wp: WorkingPoint,
    gt: GroundTruth,
    amplitude: float,
    noise_sigma: float,
    seed: int,
    cycle_index: int = 0,
):
    """Synthesize the samples of one cycle: its four frames, end to end.

    Per-frame seeds are derived from (seed, cycle_index, ramp index) so
    cycles and ramps can be generated independently and reproducibly.
    """
    from .modulation import build_cycle

    frames = [
        synthesize_frame(
            wp, ramp, gt, amplitude, noise_sigma, (seed, cycle_index, ramp.index)
        )
        for ramp in build_cycle(wp)
    ]
    return np.concatenate([fr.samples for fr in frames])


def write_frames(stem, cycles, wp: WorkingPoint) -> None:
    """Export ``(N, wp.samples_per_cycle)`` cycles as ``<stem>.f32``, raw
    little-endian float32, and then a sidecar ``<stem>.json`` holding the
    format version, the working point and N.
    """
    cycles = np.asarray(cycles, dtype="<f4")
    # An empty list is an export of zero cycles.
    if len(cycles) and cycles.shape[1:] != (wp.samples_per_cycle,):
        raise FramingError(
            f"cycles must be rows of {wp.samples_per_cycle} samples, got shape {cycles.shape}"
        )
    raw_path, sidecar_path = _frame_paths(stem)
    sidecar = {
        "format_version": FRAME_FORMAT_VERSION,
        "working_point": wp.to_dict(),
        "cycles": len(cycles),
    }
    write_atomic(raw_path, cycles.tobytes())
    write_atomic(sidecar_path, json.dumps(sidecar, sort_keys=True, indent=1))


def _frame_paths(stem):
    stem = Path(stem)
    return stem.with_name(stem.name + ".f32"), stem.with_name(stem.name + ".json")


def read_frames(stem):
    """Read a :func:`write_frames` export as (working point, read-only cycles).

    Any defect of the sidecar or of the raw file's length raises
    :class:`FramingError` naming the file.
    """
    raw_path, sidecar_path = _frame_paths(stem)
    try:
        sidecar = json.loads(sidecar_path.read_text())
        if not isinstance(sidecar, dict):
            raise ValueError("not a JSON object")
        version = sidecar.get("format_version")
        if version != FRAME_FORMAT_VERSION:
            raise ValueError(f"unsupported frame format version {version!r}")
        wp = WorkingPoint.from_dict(sidecar["working_point"])
        n_cycles = sidecar["cycles"]
        if type(n_cycles) is not int or n_cycles < 0:
            raise ValueError(f"'cycles' must be a count, got {n_cycles!r}")
    except json.JSONDecodeError as exc:
        raise FramingError(f"frame sidecar {sidecar_path} is not JSON: {exc}") from None
    except KeyError as exc:
        raise FramingError(f"frame sidecar {sidecar_path} has no key {exc}") from None
    except ValueError as exc:
        raise FramingError(f"frame sidecar {sidecar_path}: {exc}") from None
    data = raw_path.read_bytes()
    if len(data) != 4 * n_cycles * wp.samples_per_cycle:
        raise FramingError(
            f"{raw_path} has {len(data)} bytes, not the {n_cycles} cycles its sidecar declares"
        )
    return wp, np.frombuffer(data, dtype="<f4").reshape(n_cycles, wp.samples_per_cycle)
