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
from .modulation import SPEED_OF_LIGHT, RampDescriptor, WorkingPoint

FRAME_FORMAT_VERSION = 1


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
    """Synthesize the four frames of one cycle.

    Per-frame seeds are derived from (seed, cycle_index, ramp index) so
    cycles and ramps can be generated independently and reproducibly.
    Returns (concatenated samples, list of frames).
    """
    from .modulation import build_cycle

    frames = [
        synthesize_frame(
            wp, ramp, gt, amplitude, noise_sigma, (seed, cycle_index, ramp.index)
        )
        for ramp in build_cycle(wp)
    ]
    return np.concatenate([fr.samples for fr in frames]), frames


def write_frames(stem, frames, wp: WorkingPoint, extra=None) -> None:
    """Export frames as raw little-endian float32 plus a JSON sidecar.

    ``stem`` names the pair ``<stem>.f32`` / ``<stem>.json``.  ``extra``
    is an optional per-frame list of JSON-serializable dicts (seed,
    ground truth, ...) merged into the sidecar entries.
    """
    raw_path, sidecar_path = _frame_paths(stem)
    if extra is not None and len(extra) != len(frames):
        raise FramingError("extra metadata list must match the frame count")
    raw = bytearray()
    entries = []
    for i, frame in enumerate(frames):
        data = np.ascontiguousarray(frame.samples, dtype="<f4")
        raw += data.tobytes()
        entry = {
            "ramp_index": frame.ramp.index,
            "slope_hz_per_s": frame.ramp.slope,
            "start_time_s": frame.ramp.start_time,
            "duration_s": frame.ramp.duration,
            "n_samples": int(data.size),
            "signed_beat_hz": frame.true_signed_beat,
            "blind": frame.blind,
        }
        if extra is not None:
            entry.update(extra[i])
        entries.append(entry)
    sidecar = {
        "format_version": FRAME_FORMAT_VERSION,
        "dtype": "<f4",
        "working_point": wp.to_dict(),
        "frames": entries,
    }
    raw_path.write_bytes(bytes(raw))
    sidecar_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1))


def _frame_paths(stem):
    stem = Path(stem)
    return stem.with_name(stem.name + ".f32"), stem.with_name(stem.name + ".json")


def read_frames(stem):
    """Read frames written by :func:`write_frames`.

    Returns (working point, list of frames, list of sidecar entries).
    """
    raw_path, sidecar_path = _frame_paths(stem)
    try:
        sidecar = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as exc:
        raise FramingError(f"frame sidecar {sidecar_path} is not JSON: {exc}") from None
    if sidecar.get("format_version") != FRAME_FORMAT_VERSION:
        raise FramingError(
            f"unsupported frame format version {sidecar.get('format_version')!r}"
        )
    wp = WorkingPoint.from_dict(sidecar["working_point"])
    raw = np.frombuffer(raw_path.read_bytes(), dtype="<f4")
    frames = []
    offset = 0
    for entry in sidecar["frames"]:
        n = int(entry["n_samples"])
        if offset + n > raw.size:
            raise FramingError("raw frame file shorter than sidecar declares")
        ramp = RampDescriptor(
            index=int(entry["ramp_index"]),
            slope=float(entry["slope_hz_per_s"]),
            start_time=float(entry["start_time_s"]),
            duration=float(entry["duration_s"]),
        )
        frames.append(
            SyntheticFrame(
                ramp=ramp,
                samples=raw[offset : offset + n].copy(),
                true_signed_beat=float(entry["signed_beat_hz"]),
                blind=bool(entry["blind"]),
            )
        )
        offset += n
    if offset != raw.size:
        raise FramingError("raw frame file longer than sidecar declares")
    return wp, frames, sidecar["frames"]
