"""End-to-end streaming processor: slice, FFT, average, denoise, solve.

One stateful worker per sensor stream; the sliding-average window is the
only state.  Records are immutable once emitted.  A cycle source is any
iterable of cycles: seeded synthetic cycles (:func:`synthetic_cycles`) or
the replay of an exported frame file (:func:`~.simulator.read_frames`).

Everything that depends only on the configuration and the calibration (window, bin
grid, scaled reference spectra, noise gates) is computed once, when :class:`PipelineConfig`
is built, and none of it grows with ``n_avg``; a cycle divides each gate by the root of
its window's count and scales it by its noise level.
A block of cycles runs one FFT, floor subtraction and peak stage over one ``(4 * cycles,
bins)`` stack of its frames, which the sliding average and the floor subtraction change in
place.  Each record is the one its cycle gets in a block of its own, bit for bit.  The
sliding average is a two-stacks window sum in ``n_avg`` slots: four array operations a
cycle, whatever ``n_avg``, plus a chunk's ``n_avg - 2`` in-place adds, half on its last
cycle and half on the next chunk's first (:class:`PipelineState`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import NoiseModelCoefficients, predict_sigma_fb
from .errors import ParameterError, check_integer, check_levels, check_sync_offset, check_work
from .modulation import WORKING_POINT_KEYS, WorkingPoint, decode_fields, read_flat_config
from .peaks import DEFAULT_WINDOW, WEIGHTED_AVERAGE, check_interpolation, estimate_peaks
from .simulator import check_synthesis, cycle_blocks, synthesize_block
from .solver import STATUS_INVALID, Measurement, disambiguate, triple_tables
from .spectral import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_FFT_BINS,
    Calibration,
    bin_frequencies,
    check_fft_bins,
    magnitude_spectra,
    remove_floor,
    row_medians,
)

#: Validity gate in units of the calibrated per-bin sigma; rejects the
#: residual maxima of pure-noise spectra after subtraction.
DEFAULT_NOISE_GATE = 6.0
#: A Rayleigh magnitude's median, and Pearson's ``skewness * sd / 6``, over its mean.
_RAYLEIGH_MEDIAN = math.sqrt(4.0 * math.log(2.0) / math.pi)
_RAYLEIGH_SKEW = (math.pi - 3.0) / (3.0 * (4.0 - math.pi))


def check_settings(wp: WorkingPoint, fft_bins: int, interp_window: int, interp_method: str,
                   n_avg: int, alpha: float, beta: float, sync_offset_samples: int) -> None:
    """Refuse pipeline settings (the :class:`PipelineConfig` keys of a config file)
    that no calibration could make valid at the working point ``wp``."""
    check_integer("n_avg", n_avg, least=1)
    check_fft_bins(fft_bins, wp.samples_per_ramp)
    ring = 8 * math.prod(_ring_shape(n_avg, fft_bins))  # PipelineState.ring, float64
    check_work(ring, f"n_avg ({n_avg}) needs {ring} bytes of sliding-average ring at "
                     f"fft_bins {fft_bins}")
    check_interpolation(interp_window, interp_method, fft_bins // 2)
    check_levels(alpha=alpha, beta=beta)
    check_sync_offset(sync_offset_samples, wp.samples_per_cycle)


def _ring_shape(n_avg: int, fft_bins: int) -> tuple:
    """:attr:`PipelineState.ring`'s shape: ``n_avg`` slots of ``(4, bins)``, none at 1."""
    return (n_avg if n_avg > 1 else 0, 4, fft_bins // 2)


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
    #: ``alpha * reference_mean`` and ``beta * reference_sigma``, (4, bins);
    #: the latter is None at ``beta`` 0.
    scaled_mean: np.ndarray = field(init=False, repr=False, compare=False)
    scaled_sigma: np.ndarray | None = field(init=False, repr=False, compare=False)
    #: ``DEFAULT_NOISE_GATE * median(reference_sigma)`` per ramp, before ``/ sqrt(n_window)``.
    noise_gates: tuple = field(init=False, repr=False, compare=False)
    #: The median of ``scaled_mean + scaled_sigma`` per ramp: the floor at a gate.
    floor_levels: tuple = field(init=False, repr=False, compare=False)
    #: ``1 / reference_mean`` of every 4th bin, 0 where the mean is (about) 0, ``(4, bins // 4)``.
    inverse_mean: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wp, cal = self.working_point, self.calibration
        for name, kinds in (("working_point", (WorkingPoint,)), ("calibration", (Calibration,)),
                            ("noise_model", (NoiseModelCoefficients, type(None)))):
            if not isinstance(getattr(self, name), kinds):
                raise ParameterError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}")
        check_settings(wp, self.fft_bins, self.interp_window, self.interp_method, self.n_avg,
                       self.alpha, self.beta, self.sync_offset_samples)
        cal.check_compatible(wp, self.fft_bins, self.sync_offset_samples)

        gates = tuple(DEFAULT_NOISE_GATE * m for m in row_medians(cal.reference_sigma.copy()))
        means, floor = cal.reference_mean[:, ::4], self.alpha * cal.reference_mean
        derived = {
            "frame_window": np.hamming(wp.samples_per_ramp),
            "bin_frequencies": bin_frequencies(wp, self.fft_bins),
            "scaled_mean": self.alpha * cal.reference_mean,
            # x - (+-0.0) is x but at x = -0.0, which magnitudes less a nonnegative
            # mean never give, so beta 0 skips the sigma with no bit changed.
            "scaled_sigma": self.beta * cal.reference_sigma if self.beta else None,
            "noise_gates": gates,
            "floor_levels": tuple(row_medians(floor + self.beta * cal.reference_sigma)),
            # A mean below any that float32 samples give counts as 0: x / mean stays finite.
            "inverse_mean": np.divide(1.0, means, out=np.zeros_like(means), where=means > 1e-200),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


@dataclass
class PipelineState:
    """Sliding-average window of one stream worker: the last ``n_avg`` spectra per ramp.

    The window sum is a two-stacks sliding-window aggregation: it only adds,
    so no error builds up.  ``ring`` has ``n = n_avg`` slots of ``(4, bins)``,
    or none at ``n_avg`` 1, where every window is one spectrum; slots come
    first, so each is one contiguous block, and the ring's length is the
    state's ``n_avg``.  Cycle ``t`` is spectrum ``j = t % n`` of chunk ``t // n``.
    Slot 0 holds the current chunk's running sum, oldest first, and slot
    ``j > 0`` takes spectrum ``j``.  Slots ``n - 2`` down to 1 then each add the
    next slot in place, so slot ``i`` holds the chunk's suffix sum from spectrum
    ``i`` on, added newest to oldest: slots ``n - 2`` to ``n // 2`` on the chunk's
    last cycle, the rest on the next chunk's first, so both make as many array
    operations, or the last, with the warmer slots, one more.  After spectrum ``j``
    of the next chunk, the window sum is slot ``j + 1``, which no other cycle
    reads, plus the running sum, added in place there; in the first chunk and at
    ``j = n - 1`` it is the running sum alone.  No slot is read before the stream
    writes it.

    Warm-up windows, one-chunk windows and every window at ``n_avg`` 2 add in
    ``np.mean``'s order, oldest first, so their mean is ``np.mean``'s to the
    bit.  Other windows add the same spectra in another order.  For
    nonnegative spectra both means are within ``n_window·2⁻⁵³`` of the exact
    mean, relative (the ``(n_window - 1)·2⁻⁵³`` of a sum in any order and the
    division's rounding; to first order, and plus 2⁻¹⁰⁷⁵ where the mean is
    subnormal), so they differ by at most twice that.
    """

    ring: np.ndarray
    cycles_seen: int = 0

    @classmethod
    def for_config(cls, cfg: PipelineConfig) -> "PipelineState":
        return cls(np.zeros(_ring_shape(cfg.n_avg, cfg.fft_bins)))

    def push(self, spectra: np.ndarray) -> int:
        """Add one cycle's ``(4, bins)`` spectra, then overwrite them with the window mean.

        Returns the window's count of spectra.  The division is ``np.mean``'s; by a power
        of two, a cheaper multiply by its exact reciprocal gives the same double for every
        input, NaNs included.  A window of one spectrum leaves ``spectra`` as they are.  At
        ``n_avg`` 1 every window is one spectrum, and there is no ring.
        """
        n, t = len(self.ring) or 1, self.cycles_seen
        j = t % n
        self.cycles_seen = t + 1
        n_window = min(t + 1, n)
        if n == 1:
            return n_window
        ring = self.ring
        ring[j] = spectra
        window = ring[0]
        if j:
            window += spectra
        elif t >= n:  # the rest of the previous chunk's suffix sums, down to slot 1
            for i in range(n // 2 - 1, 0, -1):
                ring[i] += ring[i + 1]
        if j == n - 1:  # the chunk is complete: its suffix sums from slot n - 2 to n // 2
            for i in range(n - 2, n // 2 - 1, -1):
                ring[i] += ring[i + 1]
        elif t >= n:  # the previous chunk's suffix sum from j + 1 plus the running sum
            window = ring[j + 1]
            window += ring[0]
        if n_window & (n_window - 1):
            np.divide(window, n_window, out=spectra)
        else:  # a window of one, the stream's first cycle, multiplies by 1.0
            np.multiply(window, 1.0 / n_window, out=spectra)
        return n_window


@dataclass(slots=True)
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

    Each selected ramp's beat sigma, one :func:`~.analysis.predict_sigma_fb` call at its
    ramp rate, |slope| and beat, the measured |v| and R and ``n_window``, is put through the
    weights of the reported R and v, the least-squares line through the selected beats, on
    those beats (one :func:`~.solver.triple_tables` lookup gives the signed slopes and the
    weights): ``sigma_R = sqrt(sum((w_R,k sigma_k)**2))``, and the same for v.  Nothing of
    the model is cached per configuration.  A selected ramp the model cannot predict
    (:class:`ParameterError`) leaves both sigmas NaN.
    """
    m, nm, wp = measurement, cfg.noise_model, cfg.working_point
    (a, b, c), _, _, ((r0, r1, r2), (v0, v1, v2)) = triple_tables(wp)[m.selected_ramps]
    i, j, k = m.selected_ramps
    rate, speed, distance = wp.ramp_rate, abs(m.velocity_v), m.distance_R
    try:  # three calls, not a comprehension, whose call and zip cost about 0.8 µs a record
        s0 = predict_sigma_fb(nm, rate, abs(a), peaks[i].beat_frequency, speed, distance, n_window)
        s1 = predict_sigma_fb(nm, rate, abs(b), peaks[j].beat_frequency, speed, distance, n_window)
        s2 = predict_sigma_fb(nm, rate, abs(c), peaks[k].beat_frequency, speed, distance, n_window)
    except ParameterError:
        return m
    sigma_r, sigma_v = math.hypot(r0 * s0, r1 * s1, r2 * s2), math.hypot(v0 * s0, v1 * s1, v2 * s2)
    return Measurement(m.distance_R, m.velocity_v, sigma_r, sigma_v, m.sign_combo,
                       m.selected_ramps, m.cluster_spread, m.status)


def _noise_levels(stack, inverse_mean, n_windows) -> list:
    """Each cycle's noise level ``g``, 1 on no-target noise as strong as the calibration's:
    the median of ``x / reference_mean`` over every 4th bin of its four averaged rows (the 4x
    zero padding leaves neighbours nearly redundant) over its null value ``c0(n)`` for a
    window of ``n`` spectra.  ``c0(1)`` is a Rayleigh bin's median over its mean,
    ``sqrt(4 ln 2 / pi)`` = 0.9394; a mean of ``n`` bins is nearly normal, and Pearson's
    ``skewness * sd / 6`` puts ``c0(n)`` at ``1 - (pi - 3) / (3 (4 - pi) n)``, ``1 - 0.055/n``.
    """
    ratios = stack.reshape(-1, 4, stack.shape[1])[:, :, ::4] * inverse_mean
    return [m / (_RAYLEIGH_MEDIAN if n == 1 else 1.0 - _RAYLEIGH_SKEW / n) for m, n in
            zip(row_medians(ratios.reshape(len(n_windows), inverse_mean.size)), n_windows)]


def process_block(block, state: PipelineState, cfg: PipelineConfig) -> list:
    """Run whole cycles, the rows of ``block``, through the full chain; one record each.

    The FFT, the floor subtraction and the peak stage each cover all frames at once, one
    magnitude stack that the average and the floor change in place; the average and the solver
    go cycle by cycle, so a record is the one its cycle gets alone, bit for bit.  A peak is valid
    past ``g (gate / sqrt(n_window) + F) - F``, the gate that a floor ``F`` and gate scaled by
    the cycle's level ``g`` (:func:`_noise_levels`) would set; the floor is not scaled.  A NaN,
    infinite or beyond-float32 sample raises :class:`FramingError` (:func:`~.simulator.check_block`,
    one sum of squares for a block in range), and a state unlike
    ``PipelineState.for_config(cfg)``'s :class:`ParameterError`, before ``state`` changes.
    """
    seen, ring = state.cycles_seen, state.ring
    check_integer("the state's cycles_seen", seen, least=0)
    shape = _ring_shape(cfg.n_avg, cfg.fft_bins)
    if (type(ring) is not np.ndarray or ring.shape != shape
            or ring.dtype.char != "d" or not ring.flags.writeable):  # "d": float64, either order
        raise ParameterError(f"the state was built for another configuration, not for n_avg "
                             f"{cfg.n_avg} and a writeable float64 ring of shape {shape}")
    wp = cfg.working_point
    stack = magnitude_spectra(block, wp, cfg.frame_window, cfg.fft_bins, seen)
    n_windows = [state.push(stack[c : c + 4]) for c in range(0, len(stack), 4)]
    levels = _noise_levels(stack, cfg.inverse_mean, n_windows)
    remove_floor(stack.reshape(-1, 4, stack.shape[1]), cfg.scaled_mean, cfg.scaled_sigma)
    epsilons = [g * (gate / math.sqrt(n) + floor) - floor for n, g in zip(n_windows, levels)
                for gate, floor in zip(cfg.noise_gates, cfg.floor_levels)]
    peaks = estimate_peaks(stack, cfg.bin_frequencies, epsilons, cfg.interp_window,
                           cfg.interp_method)
    records = []
    for c, n_window in enumerate(n_windows):
        index, cycle_peaks = seen + c, peaks[4 * c : 4 * c + 4]
        measurement = disambiguate(cycle_peaks, wp)
        if cfg.noise_model is not None and measurement.status != STATUS_INVALID:
            measurement = _attach_sigmas(measurement, cycle_peaks, cfg, n_window)
        records.append(CycleRecord(index, index * wp.cycle_duration, cycle_peaks, measurement,
                                   warmup=n_window < cfg.n_avg))
    return records


def process_cycle(samples, state: PipelineState, cfg: PipelineConfig) -> CycleRecord:
    """:func:`process_block` of one cycle, for callers that cannot wait for a block."""
    return process_block(np.asarray(samples)[None], state, cfg)[0]


def run_stream(source, cfg: PipelineConfig, state: PipelineState | None = None):
    """Fold :func:`process_block` over a cycle iterator, one block of
    :func:`~.simulator.cycle_blocks` at a time, yielding its records."""
    if state is None:
        state = PipelineState.for_config(cfg)
    for block in cycle_blocks(source):
        yield from process_block(block, state, cfg)


def synthetic_cycles(
    wp: WorkingPoint,
    ground_truth,
    amplitude: float,
    noise_sigma: float,
    seed: int,
    n_cycles: int,
):
    """Seeded synthetic cycle source: :func:`~.simulator.synthesize_block` of each
    block of :func:`~.simulator.cycle_blocks`, made when it is needed.

    ``ground_truth`` is either a fixed :class:`GroundTruth` or a callable
    mapping the cycle index to one (for step/trajectory tests).  Samples are
    float32, the frame-export dtype, so a replayed export reproduces this
    source exactly.  The levels, seed and count are checked at the call, as
    :func:`~.simulator.read_frames` checks its file, before a cycle is drawn.
    """
    check_synthesis(amplitude, noise_sigma, seed=seed, n_cycles=n_cycles)
    truth = ground_truth if callable(ground_truth) else lambda k: ground_truth
    return (cycle for block in cycle_blocks(range(n_cycles)) for cycle in synthesize_block(
        wp, [truth(k) for k in block], amplitude, noise_sigma, seed, block[0]))


def read_config_file(path):
    """Parse a flat config file into (working point, pipeline settings).

    The file holds the working-point keys plus optional pipeline keys; a
    pipeline setting the file omits takes its :class:`PipelineConfig`
    default.  Unknown keys are rejected to catch typos, and settings that
    :func:`check_settings` refuses are refused here, for every command.
    """
    values = read_flat_config(path)
    wp_keys = WORKING_POINT_KEYS.values()
    settings = decode_fields(
        PipelineConfig, {k: v for k, v in values.items() if k not in wp_keys}, defaults=True,
        text=True,
    )
    wp = WorkingPoint.from_dict({k: v for k, v in values.items() if k in wp_keys}, text=True)
    check_settings(wp, **settings)
    return wp, settings

