"""End-to-end streaming processor: slice, FFT, average, denoise, solve.

One stateful worker per sensor stream; the sliding-average window is the
only state.  Records are immutable once emitted.  Cycle sources come in
two flavors: seeded synthetic cycles and replay of exported frame files.

Everything that depends only on the configuration and the calibration
(window, bin grid, scaled reference spectra, noise gates) is computed
once when :class:`PipelineConfig` is built, and each cycle runs
one FFT over its four frames.  Records are the same, bit for bit, as
those of the per-ramp layer functions composed by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .analysis import NoiseModelCoefficients, predict_sigma_fb
from .errors import ParameterError
from .modulation import (
    WORKING_POINT_KEYS,
    WorkingPoint,
    decode_fields,
    ramp_slopes,
    read_flat_config,
)
from .peaks import DEFAULT_WINDOW, METHODS, WEIGHTED_AVERAGE, estimate_peak
from .simulator import read_frames, synthesize_cycle
from .solver import STATUS_INVALID, Measurement, disambiguate, propagate_noise
from .spectral import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_FFT_BINS,
    Calibration,
    RampSpectrum,
    bin_frequencies,
    check_fft_bins,
    hamming,
    magnitude_spectra,
    remove_floor,
    slice_cycle,
)

#: Validity gate in units of the calibrated per-bin sigma; rejects the
#: residual maxima of pure-noise spectra after subtraction.
DEFAULT_NOISE_GATE = 6.0


@dataclass(frozen=True)
class PipelineConfig:
    """Processing parameters for one sensor stream.

    Frozen: the per-configuration constants below are derived once, when
    the config is built, and every cycle reads them.  The ``int``,
    ``float`` and ``str`` fields are the pipeline keys of the config file.
    """

    working_point: WorkingPoint
    calibration: Calibration
    fft_bins: int = DEFAULT_FFT_BINS
    interp_window: int = DEFAULT_WINDOW
    interp_method: str = WEIGHTED_AVERAGE
    n_avg: int = 1
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    sync_offset_samples: int = 0
    noise_model: NoiseModelCoefficients | None = None
    #: Hamming window of one frame and the one-sided bin frequencies.
    frame_window: np.ndarray = field(init=False, repr=False, compare=False)
    bin_frequencies: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``alpha * reference_mean`` and ``beta * reference_sigma``, (4, bins).
    scaled_mean: np.ndarray = field(init=False, repr=False, compare=False)
    scaled_sigma: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``DEFAULT_NOISE_GATE * median(reference_sigma)`` per ramp, before the
    #: ``sqrt(n_window)`` of the averaging.
    noise_gates: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wp = self.working_point
        if self.n_avg < 1:
            raise ParameterError(f"n_avg must be >= 1, got {self.n_avg}")
        if self.interp_method not in METHODS:
            raise ParameterError(
                f"interp_method must be one of {METHODS}, got {self.interp_method!r}"
            )
        if self.interp_window < 3 or self.interp_window % 2 == 0:
            raise ParameterError(
                f"interp_window must be odd and >= 3, got {self.interp_window}"
            )
        for name in ("alpha", "beta"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        check_fft_bins(self.fft_bins, wp.samples_per_ramp)
        if not 0 <= self.sync_offset_samples < wp.samples_per_cycle:
            raise ParameterError(
                f"sync_offset_samples must be in [0, {wp.samples_per_cycle}), "
                f"got {self.sync_offset_samples}"
            )
        self.calibration.check_compatible(wp, self.fft_bins)

        cal = self.calibration
        derived = {
            "frame_window": hamming(wp.samples_per_ramp),
            "bin_frequencies": bin_frequencies(wp, self.fft_bins),
            "scaled_mean": self.alpha * cal.reference_mean,
            "scaled_sigma": self.beta * cal.reference_sigma,
            "noise_gates": tuple(
                (DEFAULT_NOISE_GATE * np.median(cal.reference_sigma, axis=1)).tolist()
            ),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass
class PipelineState:
    """Sliding-average window of one stream worker: the last ``n_avg`` spectra per ramp.

    ``ring`` has shape ``(4, 2 * n_avg, bins)``.  Cycle ``t`` is written to
    slots ``t % n_avg`` and ``t % n_avg + n_avg``, so the window, oldest
    first, is always one contiguous slice of slots.  Averaging that slice
    adds the spectra in the same order as ``np.mean`` over a list of them,
    so the result is the same to the bit.
    """

    ring: np.ndarray
    cycles_seen: int = 0

    @classmethod
    def for_config(cls, cfg: PipelineConfig) -> "PipelineState":
        return cls(ring=np.zeros((4, 2 * cfg.n_avg, cfg.fft_bins // 2)))

    @property
    def n_window(self) -> int:
        """Spectra per ramp in the current window."""
        return min(self.cycles_seen, self.ring.shape[1] // 2)

    def copy(self) -> "PipelineState":
        return PipelineState(ring=self.ring.copy(), cycles_seen=self.cycles_seen)

    def push(self, spectra: np.ndarray) -> np.ndarray:
        """Add one cycle's ``(4, bins)`` spectra; return the window mean per ramp."""
        n_avg = self.ring.shape[1] // 2
        slot = self.cycles_seen % n_avg
        self.ring[:, slot] = spectra
        self.ring[:, slot + n_avg] = spectra
        self.cycles_seen += 1
        start = (self.cycles_seen - self.n_window) % n_avg
        return self.ring[:, start : start + self.n_window].mean(axis=1)


@dataclass
class CycleRecord:
    """Per-cycle output: the four peak estimates and the solved measurement."""

    cycle_index: int
    timestamp: float
    peaks: tuple
    measurement: Measurement
    warmup: bool


def _attach_sigmas(
    measurement: Measurement, peaks, cfg: PipelineConfig, n_window: int
) -> Measurement:
    """Fill sigma_R/sigma_v from the noise model at the measured point.

    The beat sigmas of the steepest selected ramp pair are propagated.
    """
    slopes = ramp_slopes(cfg.working_point)
    try:
        sigma_fb = {
            idx: predict_sigma_fb(
                cfg.noise_model,
                f_ramp_rate=cfg.working_point.ramp_rate,
                slope_S=abs(slopes[idx]),
                beat_f_b=peaks[idx].beat_frequency,
                velocity_v=abs(measurement.velocity_v),
                distance_R=measurement.distance_R,
                n_avg=n_window,
            )
            for idx in measurement.selected_ramps
        }
    except ParameterError:
        return measurement
    i, j = max(
        combinations(measurement.selected_ramps, 2),
        key=lambda ij: abs(slopes[ij[0]] - slopes[ij[1]]),
    )
    sigma_r, sigma_v = propagate_noise(
        sigma_fb[i], sigma_fb[j], slopes[i], slopes[j], cfg.working_point.emitted_frequency
    )
    return replace(measurement, sigma_R=sigma_r, sigma_v=sigma_v)


def process_cycle(samples, state: PipelineState, cfg: PipelineConfig) -> CycleRecord:
    """Run one cycle of ADC samples through the full chain.

    Slice, window/FFT, sliding average, spectral subtraction, peak
    interpolation, sign disambiguation.  Mutates ``state`` by adding this
    cycle's spectra; deterministic given (samples, state, config).
    """
    wp = cfg.working_point
    samples = np.asarray(samples)
    if cfg.sync_offset_samples:
        samples = np.roll(samples, -cfg.sync_offset_samples)
    spectra = magnitude_spectra(slice_cycle(samples, wp), cfg.frame_window, cfg.fft_bins)
    cleaned = remove_floor(state.push(spectra), cfg.scaled_mean, cfg.scaled_sigma)
    n_window = state.n_window
    root_n = math.sqrt(n_window)
    peaks = tuple(
        estimate_peak(
            RampSpectrum(i, cfg.bin_frequencies, cleaned[i]),
            window=cfg.interp_window,
            method=cfg.interp_method,
            epsilon_abs=cfg.noise_gates[i] / root_n,
        )
        for i in range(4)
    )
    cycle_index = state.cycles_seen - 1
    measurement = disambiguate(peaks, wp)
    if cfg.noise_model is not None and measurement.status != STATUS_INVALID:
        measurement = _attach_sigmas(measurement, peaks, cfg, n_window)
    return CycleRecord(
        cycle_index=cycle_index,
        timestamp=cycle_index * wp.cycle_duration,
        peaks=peaks,
        measurement=measurement,
        warmup=state.cycles_seen < cfg.n_avg,
    )


def run_stream(source, cfg: PipelineConfig, state: PipelineState | None = None):
    """Fold :func:`process_cycle` over a cycle iterator, yielding records."""
    if state is None:
        state = PipelineState.for_config(cfg)
    for samples in source:
        yield process_cycle(samples, state, cfg)


def synthetic_cycles(
    wp: WorkingPoint,
    ground_truth,
    amplitude: float,
    noise_sigma: float,
    seed: int,
    n_cycles: int,
):
    """Seeded synthetic cycle source.

    ``ground_truth`` is either a fixed :class:`GroundTruth` or a callable
    mapping the cycle index to one (for step/trajectory tests).  Samples
    are float32, the frame-export dtype, so a replayed export reproduces
    this source exactly.
    """
    for cycle_index in range(n_cycles):
        if callable(ground_truth):
            gt = ground_truth(cycle_index)
        else:
            gt = ground_truth
        yield synthesize_cycle(wp, gt, amplitude, noise_sigma, seed, cycle_index=cycle_index)


def replay_cycles(stem, expected_wp: WorkingPoint | None = None):
    """Cycle source over an exported frame file's rows, read and checked now."""
    wp, cycles = read_frames(stem)
    if expected_wp is not None and wp != expected_wp:
        raise ParameterError(
            "replay file working point differs from the configured working point"
        )
    return iter(cycles)


def read_config_file(path):
    """Parse a flat config file into (working point, pipeline settings).

    The file holds the working-point keys plus optional pipeline keys; a
    pipeline setting the file omits takes its :class:`PipelineConfig`
    default.  Unknown keys are rejected to catch typos.
    """
    values = read_flat_config(path)
    wp_keys = WORKING_POINT_KEYS.values()
    settings = decode_fields(
        PipelineConfig, {k: v for k, v in values.items() if k not in wp_keys}, defaults=True
    )
    wp = WorkingPoint.from_dict({k: v for k, v in values.items() if k in wp_keys})
    return wp, settings


def config_from_file(
    path,
    calibration: Calibration,
    noise_model: NoiseModelCoefficients | None = None,
) -> PipelineConfig:
    """Build a :class:`PipelineConfig` from a config file and a calibration."""
    wp, settings = read_config_file(path)
    return PipelineConfig(wp, calibration, noise_model=noise_model, **settings)
