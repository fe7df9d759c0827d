"""Four-ramp modulation pattern: working-point parameters and per-ramp slopes.

A modulation cycle is two triangles of different steepness, giving four
linear ramps with pairwise distinct slopes (+S, -S, +rt*S, -rt*S).  The
working point is an immutable value, and ``ramp_slopes`` and ``decode_fields``
are pure.  The module also holds the package's file I/O: the flat config and
JSON readers (``read_flat_config``, ``read_json_object``), the atomic writers
(``open_atomic``, ``write_atomic``) and ``save_working_point``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ParameterError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in ("ramp_duration", "steep_slope", "emitted_frequency", "sampling_rate"):
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.ratio_rt < 1.0:
            raise ParameterError(f"ratio_rt must be in (0, 1), got {self.ratio_rt}")
        if self.hp_cutoff < 0:
            raise ParameterError(f"hp_cutoff must be >= 0, got {self.hp_cutoff}")
        if self.sampling_rate <= 2.0 * self.hp_cutoff:
            raise ParameterError(
                f"sampling_rate ({self.sampling_rate} Hz) must exceed twice the "
                f"high-pass cutoff ({self.hp_cutoff} Hz)"
            )
        if not math.isfinite(self.ramp_duration * self.sampling_rate):
            raise ParameterError(
                f"ramp_duration {self.ramp_duration} s at {self.sampling_rate} Hz holds "
                "more samples than a float can count"
            )
        if self.samples_per_ramp < 1:
            raise ParameterError(
                f"ramp_duration {self.ramp_duration} s holds no sample at {self.sampling_rate} Hz"
            )
        slopes = ramp_slopes(self)
        if len(set(slopes)) != 4:  # +rt*S rounds to +S, or to 0 and -0
            raise ParameterError(f"the four ramp slopes must differ, got {slopes}")
        for i, j in itertools.combinations(range(4), 2):  # the solver divides by each
            if self.emitted_frequency * (slopes[i] - slopes[j]) == 0.0:
                raise ParameterError(
                    f"ramps {i} and {j} cannot be solved as a pair: emitted_frequency "
                    f"{self.emitted_frequency} times their slope difference "
                    f"{slopes[i] - slopes[j]} underflows to 0")

    @property
    def cycle_duration(self) -> float:
        """Duration of one full four-ramp cycle in seconds."""
        return 4.0 * self.ramp_duration

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
    def from_dict(cls, values: dict, text: bool = False) -> "WorkingPoint":
        """Inverse of :meth:`to_dict`; every key is required.  The values are
        JSON numbers, or strings of a flat config file when ``text`` is true."""
        return cls(**decode_fields(cls, values, WORKING_POINT_KEYS, text=text))


def ramp_slopes(wp: WorkingPoint) -> tuple[float, ...]:
    """Signed slopes of the four ramps by ramp index.

    Order is steep-up, steep-down, shallow-up, shallow-down:
    (+S, -S, +rt*S, -rt*S); each ramp lasts ``wp.ramp_duration``.
    """
    s = wp.steep_slope
    return (s, -s, wp.ratio_rt * s, -wp.ratio_rt * s)


def read_flat_config(path) -> dict:
    """Parse a flat ``key = value`` text file into a string dict.

    Blank lines and ``#`` comments are ignored.  A line with no ``=`` or no
    key before it, duplicate keys and a file that is not UTF-8 text are
    rejected.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not (sep and key):
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key in values:
            raise ParameterError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


#: Casts of the field types a flat config or JSON file may set.  The
#: package's modules postpone annotations, so a field's type is its name.
_CASTS = {"int": int, "float": float, "str": str}
#: The JSON types each field type takes, matched exactly: a bool is an int
#: to Python, and a string is not a number.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def decode_fields(cls, values, keys: dict | None = None, defaults: bool = False,
                  text: bool = False) -> dict:
    """Cast key-value ``values`` to keyword arguments of the dataclass ``cls``.

    The keys are the names of the ``int``, ``float`` and ``str`` init
    fields of ``cls``, or their entries in ``keys`` (field name to key).
    The values are JSON values of their field's type (an ``int`` may stand
    for a ``float``), or, when ``text`` is true, the strings of a flat
    config file, parsed as their field's type.  A key absent from ``values``
    takes its field's default when ``defaults`` is true and the field has
    one; otherwise it is missing.  A key that is unknown, missing or of
    the wrong type raises :class:`ParameterError` naming it.
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
            value = values[key]
            if not text and type(value) not in _JSON_TYPES[f.type]:
                raise ParameterError(f"{key}: cannot read {value!r} as {f.type}")
            try:
                decoded[f.name] = _CASTS[f.type](value)
            except (ValueError, OverflowError):  # not a number; an int too large for a float
                raise ParameterError(f"{key}: cannot read {value!r} as {f.type}") from None
        elif defaults and f.default is not MISSING:
            decoded[f.name] = f.default
        else:
            missing.append(key)
    if missing:
        raise ParameterError(f"missing {cls.__name__} keys: {sorted(missing)}")
    return decoded


def read_json_object(path, keys, decode, error, what: str, version: int | None = None):
    """``decode`` of the JSON object in file ``path``, which holds exactly ``keys`` and,
    with a ``version``, a ``format_version`` int equal to it.  Any other content, and a
    ``ValueError`` (the package's errors among them), ``TypeError`` or ``OverflowError``
    of ``decode``, raises ``error`` naming ``what`` and ``path``."""
    try:
        values = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8 text, or nested too deep
        raise error(f"{what} {path} is not JSON: {exc}") from None
    try:
        if not isinstance(values, dict):
            raise ValueError(f"not a JSON object but {type(values).__name__}")
        keys = [*keys] if version is None else ["format_version", *keys]
        unknown = set(values) - set(keys)
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown)}")
        missing = [key for key in keys if key not in values]
        if missing:
            raise ValueError(f"has no key {', '.join(map(repr, missing))}")
        if version is not None and not (type(values["format_version"]) is int
                                        and values["format_version"] == version):
            raise ValueError(f"unsupported format version {values['format_version']!r}")
        return decode(values)
    except (OverflowError, TypeError, ValueError) as exc:
        raise error(f"{what} {path} is malformed: {exc}") from None


@contextmanager
def open_atomic(path):
    """Binary file whose contents replace ``path`` when the ``with`` block ends.

    The bytes go to a temporary file beside ``path``, renamed into place on
    success; on any exception the temporary file is removed and ``path``
    is left as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        # mkstemp creates the file private; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_atomic(path, data) -> None:
    """Replace ``path`` by ``data`` (str, or bytes-like such as a contiguous
    array) through :func:`open_atomic`."""
    with open_atomic(path) as fh:
        fh.write(data.encode() if isinstance(data, str) else data)


def save_working_point(wp: WorkingPoint, path) -> None:
    lines = [f"{key} = {value!r}" for key, value in wp.to_dict().items()]
    write_atomic(path, "\n".join(lines) + "\n")
