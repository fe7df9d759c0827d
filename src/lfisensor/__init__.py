"""Short-range FMCW laser-feedback-interferometry sensor processing.

Synthetic sensor simulation plus the full distance/velocity extraction
chain: four-ramp modulation, spectral denoising, peak interpolation,
sign disambiguation, blind-region analysis and a fitted noise model.
"""

__version__ = "0.1.0"

from .analysis import (
    BlindMap,
    NoiseModelCoefficients,
    NoiseObservation,
    blind_map,
    fit_noise_model,
    min_reliable_distance,
    predict_sigma_fb,
)
from .errors import (
    AliasingError,
    CalibrationError,
    DegeneratePairError,
    FitError,
    FramingError,
    LfiError,
    ParameterError,
)
from .modulation import (
    EMITTED_FREQUENCY_848NM,
    SPEED_OF_LIGHT,
    WorkingPoint,
    ramp_slopes,
    save_working_point,
)
from .peaks import PeakEstimate, estimate_peaks
from .pipeline import (
    CycleRecord,
    PipelineConfig,
    PipelineState,
    process_block,
    process_cycle,
    run_stream,
    synthetic_cycles,
)
from .simulator import (
    GroundTruth,
    highpass,
    read_frames,
    signed_beat,
    synthesize_cycle,
    write_frames,
)
from .solver import (
    Measurement,
    baseline_measurement,
    disambiguate,
    pair_solution,
    propagate_noise,
)
from .spectral import Calibration, calibrate, magnitude_spectra
