"""Exception types and the setting checks shared across the sensor-processing package."""

import numpy as np

#: The most bytes a setting may ask for in one work array set: the FFT arrays of a
#: block of ``STREAM_BLOCK`` cycles (:func:`~.spectral.magnitude_spectra`), the
#: pipeline's sliding-average ring, or a blind map's grid.  Larger settings are refused
#: before anything is allocated, by :func:`check_work` alone.
MAX_WORK_BYTES = 1 << 30


class LfiError(ValueError):
    """A bad input or setting: the base of every error the package raises."""


class ParameterError(LfiError):
    """A parameter or working-point invariant was violated."""


class AliasingError(ParameterError):
    """A requested beat frequency is at or above the Nyquist limit."""


class FramingError(LfiError):
    """Sample buffers or spectra do not have the expected shape."""


class CalibrationError(LfiError):
    """Calibration data is missing, too short, or incompatible."""


class DegeneratePairError(LfiError):
    """Two ramps with equal slopes cannot be solved as a pair."""


class FitError(LfiError):
    """The noise-model design matrix is rank deficient or unusable."""


def check_integer(name: str, value, least=None) -> None:
    """Refuse ``name`` unless it is an ``int`` or numpy integer, not a bool, and >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ParameterError(f"{name} must be >= {least}, got {value}")


def is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def check_levels(**levels) -> None:
    """Refuse each level, by name, unless it is a real number (:func:`is_real`), finite and
    >= 0."""
    for name, value in levels.items():
        if not (is_real(value) and 0 <= value < np.inf):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


def check_sync_offset(offset: int, cycle_length: int) -> None:
    """Refuse a sync offset that is not an integer sample of one cycle."""
    check_integer("sync_offset_samples", offset)
    if not 0 <= offset < cycle_length:
        raise ParameterError(f"sync_offset_samples must be in [0, {cycle_length}), got {offset}")


def check_work(nbytes: int, what: str) -> None:
    """Refuse ``what``, a message naming the ``nbytes`` it needs, past :data:`MAX_WORK_BYTES`."""
    if nbytes > MAX_WORK_BYTES:
        raise ParameterError(f"{what}, more than MAX_WORK_BYTES ({MAX_WORK_BYTES})")
