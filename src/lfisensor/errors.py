"""Exception types shared across the sensor-processing package."""


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
