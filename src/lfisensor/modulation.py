"""Four-ramp modulation pattern: working-point parameters, per-ramp slopes and timing.

A modulation cycle is two triangles of different steepness, giving four
linear ramps with pairwise distinct slopes (+S, -S, +rt*S, -rt*S).  All
types here are immutable values and all functions are pure.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ParameterError

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0

#: Average emitted optical frequency of an 848 nm source, in Hz.
EMITTED_FREQUENCY_848NM = SPEED_OF_LIGHT / 848e-9

#: Key of each working-point field in the flat config format, in file order.
WORKING_POINT_KEYS = {
    "ramp_duration": "ramp_duration_s",
    "steep_slope": "steep_slope_hz_per_s",
    "ratio_rt": "ratio_rt",
    "emitted_frequency": "emitted_frequency_hz",
    "hp_cutoff": "hp_cutoff_hz",
    "sampling_rate": "sampling_rate_hz",
}


@dataclass(frozen=True)
class WorkingPoint:
    """Modulation geometry plus the hardware high-pass threshold.

    Parameters
    ----------
    ramp_duration : float
        Duration of one ramp in seconds (the associated ramp rate is
        ``1 / ramp_duration``).
    steep_slope : float
        Optical-frequency slope of the steeper triangle, Hz/s (magnitude).
    ratio_rt : float
        Ratio of the shallow to the steep triangle slope, in (0, 1).
    sampling_rate : float
        ADC rate in Hz for synthesized or ingested time series.
    emitted_frequency : float
        Average emitted optical frequency in Hz (defaults to 848 nm).
    hp_cutoff : float
        Hardware high-pass threshold in Hz below which beats are
        unmeasurable; 0 disables the high-pass model.
    """

    ramp_duration: float
    steep_slope: float
    ratio_rt: float
    sampling_rate: float
    emitted_frequency: float = EMITTED_FREQUENCY_848NM
    hp_cutoff: float = 0.0

    def __post_init__(self):
        if not self.ramp_duration > 0:
            raise ParameterError(f"ramp_duration must be > 0, got {self.ramp_duration}")
        if not self.steep_slope > 0:
            raise ParameterError(f"steep_slope must be > 0, got {self.steep_slope}")
        if not 0.0 < self.ratio_rt < 1.0:
            raise ParameterError(f"ratio_rt must be in (0, 1), got {self.ratio_rt}")
        if not self.emitted_frequency > 0:
            raise ParameterError(
                f"emitted_frequency must be > 0, got {self.emitted_frequency}"
            )
        if self.hp_cutoff < 0:
            raise ParameterError(f"hp_cutoff must be >= 0, got {self.hp_cutoff}")
        if not self.sampling_rate > 0:
            raise ParameterError(f"sampling_rate must be > 0, got {self.sampling_rate}")
        if self.sampling_rate <= 2.0 * self.hp_cutoff:
            raise ParameterError(
                f"sampling_rate ({self.sampling_rate} Hz) must exceed twice the "
                f"high-pass cutoff ({self.hp_cutoff} Hz)"
            )
        if self.samples_per_ramp < 1:
            raise ParameterError(
                f"ramp_duration {self.ramp_duration} s holds no sample at {self.sampling_rate} Hz"
            )

    @property
    def cycle_duration(self) -> float:
        """Duration of one full four-ramp cycle in seconds."""
        return 4.0 * self.ramp_duration

    @property
    def measurement_rate(self) -> float:
        """Measurement output rate: one (R, v) sample per cycle."""
        return 1.0 / self.cycle_duration

    @property
    def ramp_rate(self) -> float:
        """Reciprocal ramp duration in Hz (noise-model regressor)."""
        return 1.0 / self.ramp_duration

    @property
    def nyquist(self) -> float:
        return 0.5 * self.sampling_rate

    @property
    def samples_per_ramp(self) -> int:
        return int(round(self.ramp_duration * self.sampling_rate))

    @property
    def samples_per_cycle(self) -> int:
        return 4 * self.samples_per_ramp

    def to_dict(self) -> dict:
        """Flat key-value form using the documented config keys."""
        return {key: getattr(self, name) for name, key in WORKING_POINT_KEYS.items()}

    @classmethod
    def from_dict(cls, values: dict) -> "WorkingPoint":
        """Inverse of :meth:`to_dict`; every key is required."""
        return cls(**decode_fields(cls, values, WORKING_POINT_KEYS))


@dataclass(frozen=True)
class RampDescriptor:
    """One ramp of the cycle: position, signed slope and timing."""

    index: int
    slope: float
    start_time: float
    duration: float


def build_cycle(wp: WorkingPoint) -> tuple[RampDescriptor, ...]:
    """Return the four ramps of one cycle in fixed order.

    Order is steep-up, steep-down, shallow-up, shallow-down with slopes
    (+S, -S, +rt*S, -rt*S); start times are contiguous and each ramp
    lasts ``wp.ramp_duration``.
    """
    s = wp.steep_slope
    slopes = (s, -s, wp.ratio_rt * s, -wp.ratio_rt * s)
    return tuple(
        RampDescriptor(
            index=i,
            slope=slope,
            start_time=i * wp.ramp_duration,
            duration=wp.ramp_duration,
        )
        for i, slope in enumerate(slopes)
    )


@lru_cache(maxsize=64)
def ramp_slopes(wp: WorkingPoint) -> tuple[float, ...]:
    """Signed slopes of the four ramps by ramp index, cached per working point."""
    return tuple(r.slope for r in build_cycle(wp))


def frequency_offset(wp: WorkingPoint, t):
    """Instantaneous optical frequency offset (Hz) of the modulation at time t.

    Piecewise linear, continuous, periodic in the cycle duration, and zero
    at every cycle boundary (both triangles share the baseline).  Accepts
    scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    period = wp.cycle_duration
    tau = np.mod(t, period)
    seg = np.clip(np.floor(tau / wp.ramp_duration).astype(int), 0, 3)
    local = tau - seg * wp.ramp_duration
    s = wp.steep_slope
    r = wp.ratio_rt * s
    remain = wp.ramp_duration - local
    out = np.select(
        [seg == 0, seg == 1, seg == 2, seg == 3],
        [s * local, s * remain, r * local, r * remain],
    )
    return out if out.ndim else float(out)


def modulation_waveform(wp: WorkingPoint, n_samples: int) -> np.ndarray:
    """Sample the cycle's frequency offset at n_samples uniform points.

    Requires at least 4 samples per ramp (16 total) so every linear
    segment is represented.
    """
    if n_samples < 16:
        raise ParameterError(
            f"n_samples must be >= 16 (4 per ramp), got {n_samples}"
        )
    t = np.arange(n_samples) * (wp.cycle_duration / n_samples)
    return frequency_offset(wp, t)


def read_flat_config(path) -> dict:
    """Parse a flat ``key = value`` text file into a string dict.

    Blank lines and ``#`` comments are ignored.  Duplicate keys are
    rejected.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


#: Casts of the field types a flat config or JSON file may set.  The
#: package's modules postpone annotations, so a field's type is its name.
_CASTS = {"int": int, "float": float, "str": str}


def decode_fields(cls, values, keys: dict | None = None, defaults: bool = False) -> dict:
    """Cast key-value ``values`` to keyword arguments of the dataclass ``cls``.

    The keys are the names of the ``int``, ``float`` and ``str`` init
    fields of ``cls``, or their entries in ``keys`` (field name to key).
    Each value is cast to its field's type.  A key absent from ``values``
    takes its field's default when ``defaults`` is true and the field has
    one; otherwise it is missing.  A key that is unknown, missing or
    cannot be cast raises :class:`ParameterError` naming it.
    """
    if not isinstance(values, dict):
        raise ParameterError(
            f"{cls.__name__}: expected key-value pairs, got {type(values).__name__}"
        )
    keys = keys or {}
    known = {keys.get(f.name, f.name): f for f in fields(cls) if f.init and f.type in _CASTS}
    unknown = set(values) - set(known)
    if unknown:
        raise ParameterError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    decoded, missing = {}, []
    for key, f in known.items():
        if key in values:
            try:
                decoded[f.name] = _CASTS[f.type](values[key])
            except (TypeError, ValueError):
                raise ParameterError(f"{key}: cannot read {values[key]!r} as {f.type}") from None
        elif defaults and f.default is not MISSING:
            decoded[f.name] = f.default
        else:
            missing.append(key)
    if missing:
        raise ParameterError(f"missing {cls.__name__} keys: {sorted(missing)}")
    return decoded


def write_atomic(path, data) -> None:
    """Replace ``path`` by ``data`` (str or bytes) through a renamed temporary file."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        # mkstemp creates the file private; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_working_point(path) -> WorkingPoint:
    """Load a working point from a flat key-value file (strict key set)."""
    return WorkingPoint.from_dict(read_flat_config(path))


def save_working_point(wp: WorkingPoint, path) -> None:
    lines = [f"{key} = {value!r}" for key, value in wp.to_dict().items()]
    write_atomic(path, "\n".join(lines) + "\n")
