import copy
import itertools
import math
import pickle
import sys
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lfisensor import (
    CalibrationError,
    FramingError,
    GroundTruth,
    LfiError,
    Measurement,
    NoiseModelCoefficients,
    ParameterError,
    PipelineConfig,
    PipelineState,
    calibrate,
    disambiguate,
    estimate_peaks,
    predict_sigma_fb,
    process_block,
    process_cycle,
    read_frames,
    run_stream,
    signed_beat,
    synthesize_cycle,
    synthetic_cycles,
    write_frames,
)
from lfisensor import errors, pipeline, spectral
from lfisensor.modulation import read_flat_config
from lfisensor.peaks import WEIGHTED_AVERAGE, PeakEstimate, _gather_offsets
from lfisensor.pipeline import _attach_sigmas, check_settings, read_config_file
from lfisensor.simulator import STREAM_BLOCK
from lfisensor.solver import triple_tables
from lfisensor.spectral import MIN_CALIBRATION_CYCLES, Calibration, bin_frequencies

from conftest import (C, estimate_weights, make_wp, poke_raw, true_beats, true_slopes,
                      write_offset_export)
from test_spectral import _push, _window


def _config(wp, cal, **overrides):
    return PipelineConfig(working_point=wp, calibration=cal, **overrides)


def _at_offset(cal, offset):
    """``cal``'s reference spectra, labelled as made at sync offset ``offset``."""
    return replace(cal, sync_offset_samples=offset)


def test_clean_cycle_recovers_ground_truth(wp, quiet_cal):
    gt = GroundTruth(0.04, 0.03)
    cfg = _config(wp, quiet_cal)
    state = PipelineState.for_config(cfg)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=2, cycle_index=0)
    record = process_cycle(samples, state, cfg)
    m = record.measurement
    assert m.status == "ok"
    assert m.distance_R == pytest.approx(gt.distance_R, rel=5e-3)
    assert m.velocity_v == pytest.approx(gt.velocity_v, rel=5e-3)
    assert not record.warmup
    assert record.timestamp == 0.0


def test_pure_noise_cycles_are_invalid(wp, noisy_cal):
    cfg = _config(wp, noisy_cal)
    source = synthetic_cycles(
        wp, GroundTruth(0.0, 0.0), 0.0, noise_sigma=0.3, seed=99, n_cycles=25
    )
    records = list(run_stream(source, cfg))
    assert all(r.measurement.status == "invalid" for r in records)
    assert all(not p.valid for r in records for p in r.peaks)


#: Noise-only ramps that read valid on a no-target stream as noisy as its calibration,
#: per ramp, at n_avg 1: the larger of the two interpolators' rates over 40,000 ramps of
#: 10 calibration and stream seed pairs (n_avg 16 reads about a tenth of it).
_MATCHED_FALSE_ALARM_RATE = 1e-3


def _poisson_ceiling(mean, tail=1e-3) -> int:
    """The least ``k`` with ``P(X > k) < tail`` for a Poisson count ``X`` of ``mean``."""
    k = 0
    term = below = math.exp(-mean)
    while 1.0 - below >= tail:
        k += 1
        term *= mean / k
        below += term
    return k


@pytest.mark.parametrize("n_avg", [1, 16])
def test_a_stream_noisier_than_its_calibration_passes_few_noise_peaks(wp, noisy_cal, n_avg):
    # The gate follows the stream's own noise level: on a no-target stream 1.5x as
    # noisy as the calibration, noise-only ramps read valid at no more than twice the
    # matched rate, with a Poisson margin: at most 7 of 768.  A gate fixed at
    # calibration passes most of them at n_avg 1.
    n_cycles = 192
    source = synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 1.5 * 0.3, seed=42,
                              n_cycles=n_cycles)
    records = run_stream(source, _config(wp, noisy_cal, n_avg=n_avg))
    ceiling = _poisson_ceiling(2 * _MATCHED_FALSE_ALARM_RATE * 4 * n_cycles)
    assert sum(p.valid for r in records for p in r.peaks) <= ceiling


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_the_noise_level_of_averaged_rayleigh_bins_is_one(n):
    # c0(n), the level's null value in closed form, is the median of a mean of n
    # Rayleigh bins over their mean: 100 cycles of 4 x 1024 independent bins of mean 1.
    rng = np.random.default_rng(n)
    bins = sum(rng.rayleigh(math.sqrt(2 / math.pi), (400, 1024)) for _ in range(n)) / n
    levels = pipeline._noise_levels(bins, np.ones((4, 256)), [n] * 100)
    assert abs(np.mean(levels) - 1.0) < 0.005


def test_the_level_scales_with_the_stream_and_a_zero_reference_counts_as_zero(wp, noisy_cal,
                                                                             quiet_cal):
    stack = np.abs(np.fft.rfft(_stream(wp, 4).reshape(16, -1), 2048))[:, :1024]
    inverse = _config(wp, noisy_cal).inverse_mean
    assert inverse.shape == (4, 256)
    levels = pipeline._noise_levels(stack, inverse, [1] * 4)
    assert pipeline._noise_levels(2.0 * stack, inverse, [1] * 4) == pytest.approx(
        [2.0 * g for g in levels], rel=1e-15)
    # The all-zero reference of a noise-free calibration: every level and gate is 0.
    cfg = _config(wp, quiet_cal)
    assert not cfg.inverse_mean.any() and cfg.noise_gates == cfg.floor_levels == (0.0,) * 4
    assert pipeline._noise_levels(stack, cfg.inverse_mean, [1] * 4) == [0.0] * 4
    # A mean below any float32 samples give (a subnormal, 1e-300) counts as 0 too, with no
    # overflow of its reciprocal or of x / mean (the suite turns warnings into errors).
    tiny = copy.deepcopy(noisy_cal)
    tiny.reference_mean[0, [0, 4]] = [5e-324, 1e-300]
    cfg = _config(wp, tiny)
    assert cfg.inverse_mean[0, :2].tolist() == [0.0, 0.0] and np.isfinite(cfg.inverse_mean).all()
    samples = synthesize_cycle(wp, GroundTruth(0.05, 0.02), 1e30, 0.0, seed=1, cycle_index=0)
    assert process_cycle(samples, PipelineState.for_config(cfg), cfg).measurement.status == "ok"


def test_identical_cycles_average_to_single_cycle_result(wp, quiet_cal):
    gt = GroundTruth(0.05, -0.02)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=4, cycle_index=0)
    one = _config(wp, quiet_cal, n_avg=1)
    record_one = process_cycle(samples.copy(), PipelineState.for_config(one), one)
    two = _config(wp, quiet_cal, n_avg=2)
    state = PipelineState.for_config(two)
    first = process_cycle(samples.copy(), state, two)
    second = process_cycle(samples.copy(), state, two)
    assert first.warmup and not second.warmup
    assert second.measurement == record_one.measurement
    assert second.peaks == record_one.peaks


def test_stream_preserves_rate_and_indices(wp, quiet_cal):
    cfg = _config(wp, quiet_cal)
    source = synthetic_cycles(wp, GroundTruth(0.03, 0.0), 1.0, 0.0, 5, n_cycles=7)
    records = list(run_stream(source, cfg))
    assert len(records) == 7
    assert [r.cycle_index for r in records] == list(range(7))
    assert [r.timestamp for r in records] == [
        pytest.approx(i * wp.cycle_duration) for i in range(7)
    ]


def test_step_change_converges_within_window(wp, quiet_cal):
    step_at = 6
    n_avg = 3

    def gt(cycle_index):
        return GroundTruth(0.03 if cycle_index < step_at else 0.06, 0.0)

    cfg = _config(wp, quiet_cal, n_avg=n_avg)
    source = synthetic_cycles(wp, gt, 1.0, 0.0, seed=6, n_cycles=step_at + n_avg + 3)
    records = list(run_stream(source, cfg))
    for record in records[step_at + n_avg :]:
        assert record.measurement.distance_R == pytest.approx(0.06, rel=5e-3)
    # Before the step the old value holds (after warm-up).
    for record in records[n_avg : step_at]:
        assert record.measurement.distance_R == pytest.approx(0.03, rel=5e-3)


def test_determinism_bit_identical(wp, quiet_cal):
    cfg = _config(wp, quiet_cal, n_avg=2)

    def run():
        source = synthetic_cycles(wp, GroundTruth(0.042, 0.017), 1.0, 0.1, 12, 5)
        return list(run_stream(source, cfg))

    a, b = run(), run()
    for ra, rb in zip(a, b):
        assert ra.measurement == rb.measurement
        assert ra.peaks == rb.peaks


@pytest.mark.parametrize("method", ["weighted_average", "gaussian"])
def test_composition_identity(wp, noisy_cal, method):
    # End-to-end equals the stages written out with numpy: Hamming window,
    # zero-padded rfft magnitude, the mean over a one-cycle window, the cycle's
    # noise level, the floor formula, then the peak stage on the cleaned (4, bins)
    # stack, gated by the floor and the gate scaled by the level, less the floor.
    gt = GroundTruth(0.035, 0.05)
    samples = synthesize_cycle(wp, gt, 1.0, 0.3, seed=9, cycle_index=0)
    cfg = _config(wp, noisy_cal, interp_method=method, beta=1.0)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    frames = samples.reshape(4, wp.samples_per_ramp)
    bins = cfg.fft_bins // 2
    spectra = np.abs(np.fft.rfft(frames * np.hamming(wp.samples_per_ramp), cfg.fft_bins))
    averaged = np.mean([spectra[:, :bins]], axis=0)
    mean, sigma = noisy_cal.reference_mean, noisy_cal.reference_sigma
    cleaned = np.maximum(averaged - cfg.alpha * mean - cfg.beta * sigma, 0.0)
    gates = pipeline.DEFAULT_NOISE_GATE * np.median(sigma, axis=1)
    assert cfg.noise_gates == tuple(gates.tolist())  # bit for bit
    level = np.median(averaged[:, ::4] / mean[:, ::4]) / math.sqrt(4 * math.log(2) / math.pi)
    floors = np.median(cfg.alpha * mean + cfg.beta * sigma, axis=1)
    epsilons = level * (gates + floors) - floors
    manual = estimate_peaks(cleaned, bin_frequencies(wp, cfg.fft_bins), epsilons.tolist(),
                            cfg.interp_window, cfg.interp_method)
    assert [repr(p) for p in manual] == [repr(p) for p in record.peaks]
    assert {p.method for p in record.peaks} == {method}


def test_state_snapshot_reproduces_record(wp, quiet_cal):
    cfg = _config(wp, quiet_cal, n_avg=3)
    state = PipelineState.for_config(cfg)
    cycles = list(synthetic_cycles(wp, GroundTruth(0.05, 0.01), 1.0, 0.05, 3, 4))
    for samples in cycles[:-1]:
        process_cycle(samples, state, cfg)
    snapshot = copy.deepcopy(state)
    first = process_cycle(cycles[-1], state, cfg)
    again = process_cycle(cycles[-1], snapshot, cfg)
    assert first.measurement == again.measurement
    assert first.peaks == again.peaks


def test_replay_matches_synthetic_run(wp, quiet_cal, tmp_path):
    gt = GroundTruth(0.045, -0.06)
    cycles = [synthesize_cycle(wp, gt, 1.0, 0.2, seed=31, cycle_index=k) for k in range(4)]
    stem = tmp_path / "stream"
    write_frames(stem, cycles, wp)
    cfg = _config(wp, quiet_cal, n_avg=2)
    direct = list(
        run_stream(synthetic_cycles(wp, gt, 1.0, 0.2, seed=31, n_cycles=4), cfg)
    )
    replayed = list(run_stream(read_frames(stem, wp, 0), cfg))
    assert len(direct) == len(replayed) == 4
    for a, b in zip(direct, replayed):
        assert a.measurement == b.measurement
        assert a.peaks == b.peaks


def test_replay_across_blocks_matches_synthetic_run(wp, quiet_cal, tmp_path):
    # A replay is read one block at a time; its cycles and records do not
    # depend on where the blocks end.
    gt = GroundTruth(0.045, -0.06)
    n = 2 * STREAM_BLOCK + 5
    stem = tmp_path / "stream"
    write_frames(stem, synthetic_cycles(wp, gt, 1.0, 0.2, seed=31, n_cycles=n), wp)
    cfg = _config(wp, quiet_cal, n_avg=2)
    direct = list(run_stream(synthetic_cycles(wp, gt, 1.0, 0.2, seed=31, n_cycles=n), cfg))
    replayed = list(run_stream(read_frames(stem, wp, 0), cfg))
    assert len(direct) == len(replayed) == n
    for a, b in zip(direct, replayed):
        assert a.cycle_index == b.cycle_index
        assert a.measurement == b.measurement
        assert a.peaks == b.peaks


def test_replay_rejects_other_working_point(wp, tmp_path):
    samples = synthesize_cycle(wp, GroundTruth(0.03, 0.0), 1.0, 0.0, seed=1, cycle_index=0)
    stem = tmp_path / "frames"
    write_frames(stem, [samples], wp)
    other = make_wp(steep_slope=2e15)
    # Refused when the source is built, before any cycle is drawn.
    with pytest.raises(ParameterError, match="working point"):
        read_frames(stem, other, 0)


def _propagated(wp, triple, sigmas):
    """Oracle: ``sqrt(sum((w sigma)**2))`` of R and of v over the ramps of ``triple``,
    with :func:`conftest.estimate_weights`."""
    weights = estimate_weights(wp, triple)
    return tuple(math.sqrt(sum((w[q] * sigma) ** 2 for w, sigma in zip(weights, sigmas)))
                 for q in (0, 1))


def test_noise_model_fills_sigmas(wp, quiet_cal):
    nm = NoiseModelCoefficients(a1=0.0, a2=0.0, a3=0.5, a4=0.0, a5=0.0, b=-1.0,
                                fit_residual=0.0)
    cfg = _config(wp, quiet_cal, noise_model=nm)
    samples = synthesize_cycle(wp, GroundTruth(0.04, 0.02), 1.0, 0.0, seed=8, cycle_index=0)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    m = record.measurement
    assert m.status == "ok"
    assert math.isfinite(m.sigma_R) and m.sigma_R > 0
    assert math.isfinite(m.sigma_v) and m.sigma_v > 0
    # Oracle: every selected ramp's model sigma through the estimate's own weights.
    sigmas = [10 ** (0.5 * math.log10(record.peaks[i].beat_frequency) - 1.0)
              for i in m.selected_ramps]
    expected = _propagated(wp, m.selected_ramps, sigmas)
    assert (m.sigma_R, m.sigma_v) == pytest.approx(expected, rel=1e-12)


def test_sigma_attachment_weighs_every_selected_ramp(wp, quiet_cal, monkeypatch):
    beats = true_beats(wp, 0.05, 0.02)
    sigma_by_beat = dict(zip(np.abs(beats).tolist(), (40.0, 60.0, 20.0, 30.0)))
    monkeypatch.setattr(
        pipeline, "predict_sigma_fb", lambda coeffs, rate, slope, beat, *rest: sigma_by_beat[beat]
    )
    intensities = [10.0, 9.0, 8.0, 7.0]  # keeps 0, 1, 2
    peaks = tuple(
        PeakEstimate(abs(beats[i]), intensities[i], "weighted_average", True)
        for i in range(4)
    )
    nm = NoiseModelCoefficients(0.0, 0.0, 0.5, 0.0, 0.0, -1.0, 0.0)
    cfg = _config(wp, quiet_cal, noise_model=nm)
    measurement = disambiguate(peaks, wp)
    m = _attach_sigmas(measurement, peaks, cfg, n_window=1)
    assert m.selected_ramps == (0, 1, 2)
    # Ramp 2, outside the steepest pair (0, 1), weighs in as well.
    expected = _propagated(wp, (0, 1, 2), (40.0, 60.0, 20.0))
    assert (m.sigma_R, m.sigma_v) == pytest.approx(expected, rel=1e-12)
    assert repr(replace(m, sigma_R=math.nan, sigma_v=math.nan)) == repr(measurement)


def test_a_selected_ramp_outside_the_model_domain_leaves_the_sigmas_nan(wp, quiet_cal):
    # Ramp 2 is selected, so its beat at 0 Hz, outside the noise model's log
    # domain, leaves both sigmas NaN and the rest of the measurement as it is.
    beats = [abs(f) for f in true_beats(wp, 0.05, 0.02)]
    beats[2] = 0.0
    peaks = tuple(
        PeakEstimate(beats[i], intensity, "weighted_average", True)
        for i, intensity in enumerate([10.0, 9.0, 8.0, 7.0])
    )
    nm = NoiseModelCoefficients(0.0, 0.0, 0.5, 0.0, 0.0, -1.0, 0.0)
    cfg = _config(wp, quiet_cal, noise_model=nm)
    measurement = disambiguate(peaks, wp)
    assert measurement.selected_ramps == (0, 1, 2)
    assert repr(_attach_sigmas(measurement, peaks, cfg, n_window=1)) == repr(measurement)
    assert math.isnan(measurement.sigma_R) and math.isnan(measurement.sigma_v)


def test_record_sigmas_match_the_scatter_of_the_records(wp, noisy_cal, monkeypatch):
    """Each ramp's empirical beat std, put through the pipeline's sigma attachment,
    gives every record a sigma; their RMS matches the records' empirical std of R
    and of v, at four targets with every ramp clear of the cutoff.

    Tolerance from the sample size: each side is a sample std over the N records,
    of relative standard error ``1 / sqrt(2 (N - 1))`` for normal scatter.  Taken
    as independent (they share the records, which only narrows their ratio), the
    ratio's relative standard error is at most ``1 / sqrt(N - 1)``; 4 of those are
    allowed.  Propagating the steepest selected pair alone reads 0.72-0.81 here.
    """
    cfg, by_beat = _config(wp, noisy_cal), {}
    # Any model: the patched prediction below stands in for every ramp's.
    modelled = replace(cfg, noise_model=NoiseModelCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    monkeypatch.setattr(pipeline, "predict_sigma_fb",
                        lambda coeffs, rate, slope, beat, *rest: by_beat[beat])
    for k, (r, v) in enumerate([(0.03, 0.02), (0.05, -0.04), (0.07, 0.06), (0.04, -0.08)]):
        records = list(run_stream(synthetic_cycles(wp, GroundTruth(r, v), 1.0, 0.3,
                                                   seed=500 + k, n_cycles=600), cfg))
        signs = np.sign(true_beats(wp, r, v))
        assert all(x.measurement.status == "ok" and x.measurement.sign_combo
                   == tuple(signs[list(x.measurement.selected_ramps)]) for x in records)
        stds = np.std([[p.beat_frequency for p in x.peaks] for x in records], axis=0).tolist()
        sigmas = []
        for x in records:
            by_beat = {p.beat_frequency: std for p, std in zip(x.peaks, stds)}
            m = _attach_sigmas(x.measurement, x.peaks, modelled, n_window=1)
            sigmas.append((m.sigma_R, m.sigma_v))
        rms = np.sqrt(np.mean(np.square(sigmas), axis=0))
        scatter = np.std([(x.measurement.distance_R, x.measurement.velocity_v)
                          for x in records], axis=0)
        assert rms / scatter == pytest.approx([1.0, 1.0], abs=4.0 / math.sqrt(len(records) - 1))


def _reference_sigmas(cfg, m, peaks, n_window):
    """Oracle: the public ``predict_sigma_fb`` of each selected ramp through the weights
    of ``triple_tables``, with ``math.hypot``; both NaN when one prediction fails."""
    wp = cfg.working_point
    slopes, _, _, (w_r, w_v) = triple_tables(wp)[m.selected_ramps]
    try:
        sigmas = [predict_sigma_fb(cfg.noise_model, wp.ramp_rate, abs(s),
                                   peaks[i].beat_frequency, abs(m.velocity_v), m.distance_R,
                                   n_window)
                  for i, s in zip(m.selected_ramps, slopes)]
    except ParameterError:
        return math.nan, math.nan
    return tuple(math.hypot(*[w * s for w, s in zip(weights, sigmas)]) for weights in (w_r, w_v))


_SMALL = st.floats(-4.0, 4.0)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.tuples(*[_SMALL] * 6),
       # One coefficient in three is anywhere in the float range: (index, value), none
       # at an index past 5.
       wild=st.tuples(st.integers(0, 17), st.floats(allow_nan=False, allow_infinity=False)),
       triple=st.sampled_from(list(itertools.combinations(range(4), 3))),
       distance=st.floats(1e-4, 1.0),
       velocity=st.floats(-1.0, 1.0),
       zeroed=st.sampled_from([None] * 4 + [0, 1, 2, 3]),
       n_avg=st.integers(1, 32), n_window=st.integers(1, 32))
@example(coeffs=(0.0,) * 6, wild=(5, 400.0), triple=(0, 1, 2), distance=0.05, velocity=0.02,
         zeroed=None, n_avg=16, n_window=16).via("overflow")
@example(coeffs=(0.0,) * 6, wild=(5, -400.0), triple=(0, 1, 2), distance=0.05, velocity=0.02,
         zeroed=None, n_avg=16, n_window=16).via("underflow")
@example(coeffs=(0.0,) * 6, wild=(0, 1.5e308), triple=(0, 1, 3), distance=0.05, velocity=0.02,
         zeroed=None, n_avg=4, n_window=2).via("overflowing exponent sum")
@example(coeffs=(0.3, -0.6, 0.2, 0.4, 0.5, -3.2), wild=(6, 0.0), triple=(1, 2, 3),
         distance=0.05, velocity=0.0, zeroed=None, n_avg=16, n_window=16).via("|v| = 0")
@example(coeffs=(0.3, -0.6, 0.2, 0.4, 0.5, -3.2), wild=(6, 0.0), triple=(0, 2, 3),
         distance=0.05, velocity=0.02, zeroed=2, n_avg=16, n_window=3).via(
             "a selected beat of 0 Hz")
def test_record_sigmas_are_the_public_prediction_bit_for_bit(
        wp, quiet_cal, coeffs, wild, triple, distance, velocity, zeroed, n_avg, n_window):
    # Each sigma equals the public prediction's, NaN for NaN, at coefficients up to
    # the float limit, in and out of the model's log domain, warm-up windows included.
    coeffs = list(coeffs)
    if wild[0] < 6:
        coeffs[wild[0]] = wild[1]
    cfg = _config(wp, quiet_cal, n_avg=n_avg, noise_model=NoiseModelCoefficients(*coeffs, 0.0))
    n_window = min(n_window, n_avg)
    beats = np.abs(true_beats(wp, distance, velocity)).tolist()
    if zeroed is not None:
        beats[zeroed] = 0.0
    peaks = tuple(PeakEstimate(f, 1.0, WEIGHTED_AVERAGE, True) for f in beats)
    measurement = Measurement(distance, velocity, math.nan, math.nan, (1, 1, 1), triple, 0.0,
                              "ok")
    m = _attach_sigmas(measurement, peaks, cfg, n_window)
    expected = _reference_sigmas(cfg, measurement, peaks, n_window)
    event("NaN sigmas" if math.isnan(expected[0]) else "finite sigmas")
    for got, want in zip((m.sigma_R, m.sigma_v), expected):
        assert got == want or (math.isnan(got) and math.isnan(want))
    assert repr(replace(m, sigma_R=math.nan, sigma_v=math.nan)) == repr(measurement)


def _two_stacks_mean(pushed, t, n_avg):
    """Mean of the window that ends at cycle ``t``, ramp by ramp, added in the
    order :class:`PipelineState` documents: the current chunk's spectra oldest
    first, then the previous chunk's later ones, added newest to oldest, plus
    that sum."""
    start, first = t - t % n_avg, max(0, t + 1 - n_avg)  # current chunk, window
    rows = []
    for ramp in range(4):
        total = pushed[start][ramp]
        for spectra in pushed[start + 1 : t + 1]:
            total = total + spectra[ramp]
        older = [spectra[ramp] for spectra in pushed[first:start]]
        if older:
            suffix = older[-1]
            for row in reversed(older[:-1]):
                suffix = row + suffix
            total = suffix + total
        rows.append(total / (t + 1 - first))
    return np.stack(rows)


def _in_np_mean_order(t, n_avg):
    """The window ending at cycle ``t`` adds oldest first, as ``np.mean`` does:
    in warm-up, when it is one chunk, and at ``n_avg`` 1 or 2."""
    return n_avg <= 2 or t < n_avg or t % n_avg == n_avg - 1


@pytest.mark.parametrize("n_avg", [1, 2, 16])
def test_window_average_equals_mean_of_last_spectra(wp, quiet_cal, n_avg):
    cfg = _config(wp, quiet_cal, n_avg=n_avg)
    rng = np.random.default_rng(n_avg)
    pushed = [
        rng.random((4, cfg.fft_bins // 2)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
        for _ in range(3 * n_avg + 3)
    ]

    def expected(t):  # mean of the last n_avg spectra up to cycle t, per ramp
        if not _in_np_mean_order(t, n_avg):
            return _two_stacks_mean(pushed, t, n_avg)
        window = pushed[max(0, t + 1 - n_avg) : t + 1]
        return np.stack([np.mean([s[i] for s in window], axis=0) for i in range(4)])

    state = PipelineState.for_config(cfg)
    mid_wrap = n_avg + n_avg // 2
    for t, spectra in enumerate(pushed):
        if t == mid_wrap:
            snapshot = copy.deepcopy(state)
        average = _push(state, spectra)
        assert np.array_equal(average, expected(t))
        # The caller owns the average, a one-spectrum window's too.
        assert not np.shares_memory(average, state.ring)
    # The copy is independent of the state it was taken from.
    for t in range(mid_wrap, len(pushed)):
        assert np.array_equal(_push(snapshot, pushed[t]), expected(t))
    assert snapshot.cycles_seen == state.cycles_seen == len(pushed)


@pytest.mark.parametrize("n_avg", [2, 3, 16])
def test_no_slot_is_read_before_the_stream_writes_it(n_avg):
    # The averages never depend on for_config's zeros: a ring that starts full of NaN
    # gives the same bytes, in warm-up and after it.
    rng = np.random.default_rng(n_avg)
    fresh, poisoned = _window(n_avg, 8), _window(n_avg, 8)
    poisoned.ring[...] = math.nan
    for _ in range(3 * n_avg + 1):
        spectra = rng.random((4, 8))
        assert _push(poisoned, spectra).tobytes() == _push(fresh, spectra).tobytes()


class _CountingRing(np.ndarray):
    """A ring that logs each in-place add into one of its slots: ``(slot, other)``,
    ``other`` the slot added, or None for a cycle's spectra."""

    def __iadd__(self, other):
        ring, size = self.base, self.base[0].nbytes
        slot = (self.ctypes.data - ring.ctypes.data) // size
        theirs = (other.ctypes.data - ring.ctypes.data) // size if isinstance(
            other, _CountingRing) else None
        ring.adds.append((slot, theirs))
        return super().__iadd__(other)


@pytest.mark.parametrize("n_avg", [3, 4, 16, 17])
def test_no_cycle_builds_more_than_half_of_a_chunks_suffix_sums(n_avg):
    # A chunk's n_avg - 2 suffix sums (slot i adds slot i + 1, newest to oldest) are
    # split between its last cycle and the next chunk's first, so that no cycle pays
    # for all of them: ceil((n_avg - 2) / 2) on the last, whose slots are warmer, and
    # the rest on the first.
    rng, state = np.random.default_rng(n_avg), _window(n_avg, 8)
    state.ring = _CountingRing(state.ring.shape)
    state.ring[...], state.ring.adds = 0.0, []
    suffix_adds = []
    for _ in range(4 * n_avg + 1):
        state.ring.adds.clear()
        _push(state, rng.random((4, 8)))
        suffix_adds.append([i for i, other in state.ring.adds if other == i + 1])
    half = -(-(n_avg - 2) // 2)
    assert max(map(len, suffix_adds)) == half
    assert not any(suffix_adds[: n_avg - 1])
    for last in range(n_avg - 1, 4 * n_avg, n_avg):  # each chunk's last cycle
        assert len(suffix_adds[last]) == half
        assert suffix_adds[last] + suffix_adds[last + 1] == list(range(n_avg - 2, 0, -1))
        assert not any(suffix_adds[last + 2 : last + n_avg])


_U = Fraction(1, 2**53)
_HALF_SUBNORMAL = Fraction(1, 2**1075)


def _within_bound(mean, exact, n_window):
    """``mean`` is within ``n_window·2⁻⁵³`` of the exact mean, relative: the
    ``(n_window - 1)·2⁻⁵³`` of a sum of nonnegative terms in any order, the
    division's rounding and its second-order term, or half a subnormal step."""
    return abs(Fraction(mean) - exact) <= n_window * _U * (1 + _U) * exact + _HALF_SUBNORMAL


@st.composite
def _pushes(draw):
    """``n_avg``, the spectra of a run of cycles (magnitudes from 0 through
    the subnormals to 1e300) and the cycle before which a copy is taken."""
    n_avg = draw(st.integers(1, 33))
    n_cycles = draw(st.integers(1, 3 * n_avg + 2))
    spectra = draw(arrays(np.float64, (n_cycles, 4, 2), elements=st.floats(0, 1e300)))
    return n_avg, spectra, draw(st.integers(0, n_cycles - 1))


#: At ``n_avg`` 3, cycle 4's window sum is ``x2 + (x3 + x4)``, np.mean's is
#: ``(x2 + x3) + x4``; found by a random search for the largest difference.
_REORDERED = (3, np.array([1.0, 1.0, 0.06131998975133801, 0.9636746503425668,
                           0.05213233052257038])[:, None, None] * np.ones((4, 2)), 1)


def _copied_mid_chain(n_avg):
    """A run of ``3·n_avg + 2`` cycles and a copy taken after the second chunk's last
    cycle, which builds only the suffix sums from slot ``n_avg // 2`` on."""
    rng = np.random.default_rng(n_avg)
    scales = 10.0 ** rng.uniform(-3, 3, (3 * n_avg + 2, 4, 1))
    return n_avg, rng.random((3 * n_avg + 2, 4, 2)) * scales, 2 * n_avg


@given(case=_pushes())
@example(case=_REORDERED)
@example(case=_copied_mid_chain(3))
@example(case=_copied_mid_chain(4))
@example(case=_copied_mid_chain(16))
@settings(max_examples=150, deadline=None)
def test_window_means_follow_the_documented_order_within_the_bound(case):
    n_avg, pushed, copy_at = case
    state, averages, exact = _window(n_avg, 2), [], np.zeros((4, 2), dtype=object)
    for t, spectra in enumerate(pushed):
        if t == copy_at:
            snapshot = copy.deepcopy(state)
        averages.append(_push(state, spectra))
        n_window = min(t + 1, n_avg)
        exact += np.vectorize(Fraction)(spectra)
        if t >= n_avg:
            exact -= np.vectorize(Fraction)(pushed[t - n_avg])
        mean = np.mean(pushed[t + 1 - n_window : t + 1], axis=0)
        assert averages[t].tobytes() == _two_stacks_mean(pushed, t, n_avg).tobytes()
        if _in_np_mean_order(t, n_avg):
            assert averages[t].tobytes() == mean.tobytes()
        for ours, theirs, total in zip(averages[t].flat, mean.flat, exact.flat):
            assert _within_bound(ours, total / n_window, n_window)
            assert _within_bound(theirs, total / n_window, n_window)
    # A copy taken mid-chunk, or before a chunk completes, goes on as the state did.
    for t in range(copy_at, len(pushed)):
        assert _push(snapshot, pushed[t]).tobytes() == averages[t].tobytes()


@pytest.mark.parametrize("n_avg", [3, 4, 16])
def test_a_state_pickled_mid_chain_goes_on_bit_for_bit(n_avg):
    # Between a chunk's last cycle and the next chunk's first, slots 1 to
    # n_avg // 2 - 1 still hold their spectra; the pickle carries them as they are.
    n_avg, pushed, copy_at = _copied_mid_chain(n_avg)
    state = _window(n_avg, 2)
    for spectra in pushed[:copy_at]:
        _push(state, spectra)
    for i in range(1, n_avg // 2):
        assert state.ring[i].tobytes() == pushed[copy_at - n_avg + i].tobytes()
    restored = pickle.loads(pickle.dumps(state))
    assert restored.cycles_seen == copy_at
    for t in range(copy_at, len(pushed)):
        expected = _two_stacks_mean(pushed, t, n_avg).tobytes()
        assert _push(restored, pushed[t]).tobytes() == _push(state, pushed[t]).tobytes() == expected


def test_two_orders_of_a_window_differ_by_more_than_the_bound_on_each():
    # Why the bound is against the exact mean: here the two means differ by
    # 4.2·2⁻⁵³ of np.mean's, while each is within 3·2⁻⁵³ of the exact mean.
    n_avg, pushed, _ = _REORDERED
    state = _window(n_avg, 2)
    ours = [_push(state, spectra) for spectra in pushed][4][0, 0]
    theirs = np.mean(pushed[2:5, 0, 0])
    assert abs(ours - theirs) > 3 * 2.0**-53 * theirs
    exact = sum(map(Fraction, pushed[2:5, 0, 0])) / 3
    assert _within_bound(ours, exact, 3) and _within_bound(theirs, exact, 3)


@pytest.mark.parametrize("n_avg", [2, 3, 4, 8, 16, 17])
def test_window_means_of_wild_bins_are_the_division_to_the_byte(n_avg):
    # A window of a power-of-two count is scaled by its exact reciprocal and any
    # other by a division; both must give the division's bytes for the bins
    # _pushes never draws: signed zeros, subnormals, sums past the largest float,
    # infinities and NaNs.
    rng = np.random.default_rng(n_avg)
    wild = np.array([0.0, -0.0, 5e-324, 3e-310, -2.5e-308, 1.7e308, -1.6e308, math.inf,
                     -math.inf, math.nan, 1.0, 3.0, -7.5])
    pushed = rng.choice(wild, (3 * n_avg + 2, 4, 16))
    state = _window(n_avg, 16)
    with np.errstate(all="ignore"):  # inf - inf and overflowing sums, in both
        for t, spectra in enumerate(pushed):
            assert _push(state, spectra).tobytes() == _two_stacks_mean(pushed, t, n_avg).tobytes()


def test_without_noise_model_sigmas_are_nan(wp, quiet_cal):
    cfg = _config(wp, quiet_cal)
    samples = synthesize_cycle(wp, GroundTruth(0.04, 0.0), 1.0, 0.0, seed=8, cycle_index=0)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    assert math.isnan(record.measurement.sigma_R)
    assert math.isnan(record.measurement.sigma_v)


def test_one_blind_ramp_still_recovers(wp, quiet_cal):
    # Put the shallow-up beat inside the blind band.
    slopes = true_slopes(wp).tolist()
    r = 0.03
    v = -2.0 * r * slopes[2] / wp.emitted_frequency  # shallow-up beat = 0
    gt = GroundTruth(r, v)
    blind = [abs(signed_beat(wp, slope, r, v)) < wp.hp_cutoff for slope in slopes]
    assert blind == [False, False, True, False]
    cfg = _config(wp, quiet_cal)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=14, cycle_index=0)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    m = record.measurement
    assert 2 not in m.selected_ramps
    assert m.distance_R == pytest.approx(r, rel=5e-3)
    assert m.velocity_v == pytest.approx(v, rel=5e-3)


def test_config_file_round_trip(wp, quiet_cal, tmp_path):
    path = tmp_path / "pipeline.cfg"
    lines = [f"{k} = {v!r}" for k, v in wp.to_dict().items()]
    lines += ["n_avg = 4", "alpha = 1.0", "beta = 0.5", "interp_method = gaussian"]
    path.write_text("\n".join(lines) + "\n")
    parsed_wp, settings = read_config_file(path)
    assert parsed_wp == wp
    assert settings["n_avg"] == 4 and settings["beta"] == 0.5
    cfg = PipelineConfig(parsed_wp, quiet_cal, **settings)
    assert cfg.n_avg == 4
    assert cfg.interp_method == "gaussian"
    assert cfg.fft_bins == 2048  # cited default
    assert cfg.interp_window == 25
    assert cfg.alpha == 1.0 and cfg.beta == 0.5


def test_config_unknown_key_rejected(tmp_path, wp):
    path = tmp_path / "pipeline.cfg"
    lines = [f"{k} = {v!r}" for k, v in wp.to_dict().items()] + ["navg = 2"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParameterError, match="navg"):
        read_config_file(path)


def test_readme_config_block_lists_every_key_with_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "sensor.cfg"
    path.write_text(block)
    wp, settings = read_config_file(path)
    assert set(read_flat_config(path)) == set(wp.to_dict()) | set(settings)
    defaults = {f.name: f.default for f in fields(PipelineConfig) if f.name in settings}
    assert settings == defaults


def test_config_invariants(wp, quiet_cal):
    with pytest.raises(ParameterError, match="n_avg"):
        _config(wp, quiet_cal, n_avg=0)
    with pytest.raises(ParameterError, match="interp_method"):
        _config(wp, quiet_cal, interp_method="cubic")
    other = make_wp(sampling_rate=4e6)
    with pytest.raises(CalibrationError):
        PipelineConfig(working_point=other, calibration=quiet_cal)


def _flat_calibration(wp, fft_bins):
    """All-zero calibration on any FFT grid, built directly so nothing checks it."""
    zeros = np.zeros((4, fft_bins // 2))
    return Calibration(zeros, zeros, 16, wp.sampling_rate, wp.samples_per_ramp, 0)


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"interp_window": 24}, "interp_window"),
        ({"interp_window": 1}, "interp_window"),
        ({"alpha": -0.5}, "alpha"),
        ({"alpha": math.nan}, "alpha"),
        ({"beta": -1e-3}, "beta"),
        ({"sync_offset_samples": -1}, "sync_offset"),
        ({"sync_offset_samples": 2000}, "sync_offset"),
        ({"interp_window": 1025}, "interp_window"),  # wider than the 1024 one-sided bins
        ({"interp_window": 2049}, "interp_window"),
        ({"alpha": math.inf}, "alpha"),
        ({"beta": math.inf}, "beta"),
        ({"n_avg": 32769}, "n_avg"),  # a ring of 1 GiB and 32 kB, past MAX_WORK_BYTES
        # Settings of the wrong type: a float integer, a bool (which passes as an
        # int), and values with no arithmetic.
        ({"interp_window": 25.0}, "interp_window"),
        ({"interp_window": np.float64(25)}, "interp_window"),
        ({"n_avg": 2.0}, "n_avg"),
        ({"n_avg": True}, "n_avg"),
        ({"fft_bins": 2048.0}, "fft_bins"),
        ({"sync_offset_samples": True}, "sync_offset"),
        ({"alpha": "1"}, "alpha"),
        ({"beta": None}, "beta"),
        ({"noise_model": "x"}, "noise_model"),
        ({"alpha": True}, "alpha"),
    ],
)
def test_config_rejects_bad_settings_at_construction(wp, quiet_cal, overrides, name):
    with pytest.raises(ParameterError, match=name):
        _config(wp, quiet_cal, **overrides)


def test_config_refuses_a_working_point_or_calibration_of_another_type(wp, quiet_cal):
    # Each used to end in a raw AttributeError from the first attribute read.
    with pytest.raises(ParameterError, match="^calibration must be Calibration$"):
        _config(wp, "cal")
    with pytest.raises(ParameterError, match="^working_point must be WorkingPoint$"):
        _config("wp", None)
    with pytest.raises(ParameterError, match="^working_point must be WorkingPoint$"):
        _config(quiet_cal, wp)


# Not a power of two; < 500 samples; FFT work arrays of 1.5 GiB for a block.
@pytest.mark.parametrize("fft_bins", [1000, 256, 2**20])
def test_config_rejects_bad_fft_bins_at_construction(wp, fft_bins):
    with pytest.raises(ParameterError, match="fft_bins"):
        _config(wp, _flat_calibration(wp, fft_bins), fft_bins=fft_bins)


def test_config_accepts_boundary_settings(wp, quiet_cal):
    last = wp.samples_per_cycle - 1
    _config(wp, _at_offset(quiet_cal, last), interp_window=3, alpha=0.0, beta=0.0,
            sync_offset_samples=last)
    _config(wp, quiet_cal, interp_window=1023)
    _config(wp, _flat_calibration(wp, 512), fft_bins=512)
    frame_512 = make_wp(ramp_duration=0.256e-3)  # an FFT no longer than the frame
    _config(frame_512, _flat_calibration(frame_512, 512), fft_bins=512)
    _config(wp, quiet_cal, n_avg=32768)  # a ring of MAX_WORK_BYTES
    _config(wp, _flat_calibration(wp, 2**19), fft_bins=2**19)  # work arrays of 768 MiB


@pytest.mark.parametrize("n_avg", [2, 3, 16, 17])
def test_the_ring_bound_counts_the_ring_for_config_allocates(wp, quiet_cal, monkeypatch,
                                                              n_avg):
    # A limit of exactly the ring's bytes admits n_avg, and one byte less refuses it.
    # The FFT work count, larger than these rings, is taken out of the way.
    cfg = _config(wp, quiet_cal, n_avg=n_avg)
    nbytes = PipelineState.for_config(cfg).ring.nbytes
    assert nbytes == 8 * n_avg * 4 * (cfg.fft_bins // 2)  # n_avg float64 slots of (4, bins)
    monkeypatch.setattr(spectral, "check_work", lambda *args: None)
    monkeypatch.setattr(errors, "MAX_WORK_BYTES", nbytes)
    _config(wp, quiet_cal, n_avg=n_avg)
    monkeypatch.setattr(errors, "MAX_WORK_BYTES", nbytes - 1)
    with pytest.raises(ParameterError, match=rf"^n_avg \({n_avg}\) needs {nbytes} bytes of "
                                             "sliding-average ring"):
        _config(wp, quiet_cal, n_avg=n_avg)


def _largest_n_avg(wp, fft_bins, window):
    """The largest ``n_avg`` that :func:`check_settings` accepts, by bisection."""
    accepted, refused = 1, 2**62
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        try:
            check_settings(wp, fft_bins, window, WEIGHTED_AVERAGE, mid, 1.0, 1.0, 0)
            accepted = mid
        except ParameterError:
            refused = mid
    return accepted


@pytest.mark.parametrize(
    "noise_model", [None, NoiseModelCoefficients(0.35, -0.6, 0.22, 0.4, 0.55, -3.2, 0.0)],
    ids=["plain", "noise-model"])
def test_config_tables_do_not_grow_with_n_avg(noise_model):
    # The largest ring a tiny frame allows is over four million spectra long; the
    # config built for it holds nothing indexed by the window count, so each of its
    # attributes but n_avg pickles to the size it has at n_avg 1 (only the ring, in
    # PipelineState, grows).
    tiny = make_wp(ramp_duration=4e-6)  # 8 samples a frame
    n_max = _largest_n_avg(tiny, 8, 3)
    assert n_max > 4_000_000
    sizes = []
    for n_avg in (1, n_max):
        cfg = _config(tiny, _flat_calibration(tiny, 8), fft_bins=8, interp_window=3,
                      n_avg=n_avg, noise_model=noise_model)
        sizes.append({name: len(pickle.dumps(value))
                      for name, value in vars(cfg).items() if name != "n_avg"})
    assert sizes[0] == sizes[1]


def test_a_float_window_is_refused_and_poisons_no_later_stream(wp, noisy_cal):
    # A float window, run, would key peaks._gather_offsets' cache with float offsets
    # under a key equal to the int window's, and every later window-25 stream would fail.
    _gather_offsets.cache_clear()
    cycles = _stream(wp, 2)
    with pytest.raises(ParameterError, match="interp_window must be an integer"):
        cfg = _config(wp, noisy_cal, interp_window=25.0)
        process_block(cycles, PipelineState.for_config(cfg), cfg)
    with pytest.raises(ParameterError, match="window must be an integer"):
        estimate_peaks(np.ones((4, 1024)), bin_frequencies(wp, 2048), [0.0] * 4, 25.0,
                       WEIGHTED_AVERAGE)
    for integer in (int, np.int64):
        cfg = _config(wp, noisy_cal, interp_window=integer(25), n_avg=integer(2),
                      fft_bins=integer(2048))
        assert len(process_block(cycles, PipelineState.for_config(cfg), cfg)) == 2
    assert _gather_offsets(4, 1024, 25)[0].dtype.kind == "i"


# ------------------------------------------------------------ block processing

_NOISE_MODEL = NoiseModelCoefficients(0.0, 0.0, 0.5, 0.0, 0.0, -1.0, 0.0)
_TARGETS = [(0.045, -0.06), (0.02, 0.01), (0.08, 0.09), (0.03, 0.0)]


def _stream(wp, n_cycles=3 * STREAM_BLOCK + 5):
    """Noisy (n_cycles, samples) cycles whose target changes every 7 cycles."""
    def gt(k):
        return GroundTruth(*_TARGETS[(k // 7) % len(_TARGETS)])

    return np.stack(list(synthetic_cycles(wp, gt, 1.0, 0.3, seed=43, n_cycles=n_cycles)))


_PER_CYCLE = {}


@pytest.mark.parametrize(
    "method,n_avg,noise,offset",
    list(itertools.product(["weighted_average", "gaussian"], [1, 4, 16], [False, True], [0, 40])),
)
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_blocks_of_any_size_give_the_per_cycle_records(wp, noisy_cal, method, n_avg, noise,
                                                       offset, data):
    # One FFT, floor subtraction and peak stage per block; the records must be
    # those of one process_cycle call per cycle, every float to the bit (repr).
    # At an offset the cycles are cut from the stream that many samples in, as a
    # replay at that offset cuts them; the front end itself no longer reads it.
    count, n = 3 * STREAM_BLOCK + 5, wp.samples_per_cycle
    cycles = _stream(wp, count + 1).ravel()[offset:][: count * n].reshape(count, n)
    cfg = _config(wp, _at_offset(noisy_cal, offset), interp_method=method, n_avg=n_avg,
                  noise_model=_NOISE_MODEL if noise else None, sync_offset_samples=offset)
    key = (method, n_avg, noise, offset)
    if key not in _PER_CYCLE:
        state = PipelineState.for_config(cfg)
        _PER_CYCLE[key] = [repr(process_cycle(c, state, cfg)) for c in cycles]
    state, records, start = PipelineState.for_config(cfg), [], 0
    while start < len(cycles):
        size = data.draw(st.integers(1, 2 * STREAM_BLOCK), label="block size")
        records += process_block(cycles[start : start + size], state, cfg)
        start += size
    assert [repr(r) for r in records] == _PER_CYCLE[key]
    assert state.cycles_seen == len(cycles)


def test_replay_through_run_stream_equals_per_cycle_processing(wp, noisy_cal, tmp_path):
    # Replay blocks and processing blocks (both STREAM_BLOCK) end at other
    # cycles than the run.
    n = 2 * STREAM_BLOCK + 5
    stem = tmp_path / "stream"
    write_frames(stem, _stream(wp, n), wp)
    cfg = _config(wp, noisy_cal, n_avg=4, noise_model=_NOISE_MODEL)
    state = PipelineState.for_config(cfg)
    expected = [repr(process_cycle(c, state, cfg)) for c in _stream(wp, n)]
    replayed = [repr(r) for r in run_stream(read_frames(stem, wp, 0), cfg)]
    assert replayed == expected


@given(skip=st.integers(1, make_wp().samples_per_cycle - 1),
       n_cycles=st.integers(1, 2 * STREAM_BLOCK + 5))
@example(skip=1, n_cycles=1)
@example(skip=40, n_cycles=STREAM_BLOCK)
@example(skip=777, n_cycles=STREAM_BLOCK + 1)
@example(skip=1999, n_cycles=2 * STREAM_BLOCK + 5)
@settings(max_examples=10, deadline=None)
def test_an_offset_replay_gives_the_records_of_the_aligned_cycles(wp, noisy_cal,
                                                                  tmp_path_factory, skip,
                                                                  n_cycles):
    # A capture that starts skip samples before its first whole cycle, replayed at that
    # sync offset: the records of the aligned cycles, every float to the bit (repr).
    aligned = _stream(wp, n_cycles + 1)
    stem = tmp_path_factory.mktemp("offset") / "frames"
    write_offset_export(stem, wp, aligned, skip)
    expected = run_stream(aligned[:n_cycles],
                          _config(wp, noisy_cal, n_avg=16, noise_model=_NOISE_MODEL))
    cfg = _config(wp, _at_offset(noisy_cal, skip), n_avg=16, noise_model=_NOISE_MODEL,
                  sync_offset_samples=skip)
    replayed = run_stream(read_frames(stem, wp, skip), cfg)
    assert [repr(r) for r in replayed] == [repr(r) for r in expected]


@pytest.mark.parametrize("where", ["head-first", "head-last", "tail-first", "tail-last"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_an_offset_replay_never_reads_the_skipped_head_or_the_dropped_tail(wp, noisy_cal,
                                                                           tmp_path, where,
                                                                           value):
    # A bad sample in what the skip leaves out ends no replay: the records are the
    # clean file's.  write_frames refuses such a sample, so it is set in the raw bytes.
    skip, n, length = 40, STREAM_BLOCK + 1, wp.samples_per_cycle
    aligned = _stream(wp, n + 1)
    index = {"head-first": 0, "head-last": skip - 1, "tail-first": skip + n * length,
             "tail-last": (n + 1) * length - 1}[where]
    cfg = _config(wp, _at_offset(noisy_cal, skip), n_avg=4, sync_offset_samples=skip)
    for name in ("clean", "poked"):
        write_offset_export(tmp_path / name, wp, aligned, skip)
    poke_raw(tmp_path / "poked.f32", index, value)
    clean, poked = ([repr(r) for r in run_stream(read_frames(tmp_path / name, wp, skip), cfg)]
                    for name in ("clean", "poked"))
    assert poked == clean and len(clean) == n


@pytest.mark.parametrize("n_rows", [0, 1])
def test_an_offset_replay_of_fewer_than_two_rows_gives_no_records(wp, quiet_cal, tmp_path,
                                                                  n_rows):
    stem = tmp_path / "frames"
    write_frames(stem, np.zeros((n_rows, wp.samples_per_cycle)), wp)
    cfg = _config(wp, _at_offset(quiet_cal, 40), sync_offset_samples=40)
    assert list(run_stream(read_frames(stem, wp, 40), cfg)) == []


def test_state_copy_in_mid_stream_owns_its_arrays(wp, noisy_cal):
    cfg = _config(wp, noisy_cal, n_avg=4, interp_method="gaussian")
    cycles = _stream(wp)
    state = PipelineState.for_config(cfg)
    process_block(cycles[: STREAM_BLOCK + 3], state, cfg)
    snapshot = copy.deepcopy(state)
    assert not np.shares_memory(snapshot.ring, state.ring)
    rest = cycles[STREAM_BLOCK + 3 :]
    first, again = process_block(rest, state, cfg), process_block(rest, snapshot, cfg)
    assert [repr(r) for r in first] == [repr(r) for r in again]
    assert snapshot.cycles_seen == state.cycles_seen == len(cycles)
    assert np.array_equal(snapshot.ring, state.ring)


def test_a_block_past_max_work_bytes_is_refused_and_leaves_the_state(wp, noisy_cal,
                                                                     monkeypatch):
    # The config bounds the work arrays of a STREAM_BLOCK block; a library
    # caller's longer block is refused before they are allocated, and the caller can go on.
    cfg = _config(wp, noisy_cal)
    cycles = _stream(wp, STREAM_BLOCK + 1)
    state, fresh = PipelineState.for_config(cfg), PipelineState.for_config(cfg)
    process_block(cycles[:STREAM_BLOCK], state, cfg)
    # _check_fft_work's count of a STREAM_BLOCK block at 2048 bins, frames counted padded.
    monkeypatch.setattr(errors, "MAX_WORK_BYTES", 4 * STREAM_BLOCK * (20 * 2048 + 16))
    for s in (state, fresh):
        seen = s.cycles_seen
        with pytest.raises(ParameterError, match=f"a block of {STREAM_BLOCK + 1} cycles"):
            process_block(cycles, s, cfg)
        assert s.cycles_seen == seen
    assert len(process_block(cycles[:STREAM_BLOCK], state, cfg)) == STREAM_BLOCK


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_is_refused_and_leaves_the_state(wp, noisy_cal, bad):
    # Neither a silently degraded window (NaN) nor an FFT warning (inf): the
    # cycle is refused before the state changes, and the caller can go on.
    cfg = _config(wp, noisy_cal, n_avg=4)
    cycles = _stream(wp, 7)
    state, reference = PipelineState.for_config(cfg), PipelineState.for_config(cfg)
    for samples in cycles[:2]:
        process_cycle(samples, state, cfg)
        process_cycle(samples, reference, cfg)
    poisoned = cycles[2].copy()
    poisoned[3 * wp.samples_per_ramp + 7] = bad
    with pytest.raises(FramingError, match="input has a non-finite sample in cycle 2, ramp 3"):
        process_cycle(poisoned, state, cfg)
    assert state.cycles_seen == 2
    assert np.array_equal(state.ring, reference.ring)
    for samples in cycles[3:]:
        assert repr(process_cycle(samples, state, cfg)) == repr(
            process_cycle(samples, reference, cfg))


_PAST_FLOAT32 = math.nextafter(float(np.finfo(np.float32).max), math.inf)


@pytest.mark.parametrize("scale, sample", [(1e300, None), (1.0, -1e39), (1.0, _PAST_FLOAT32),
                                           (1.0, -_PAST_FLOAT32)],
                         ids=["1e300", "-1e39", "max+", "-max-"])
def test_sample_beyond_float32_is_refused_and_leaves_the_state(wp, noisy_cal, scale, sample):
    # A cycle scaled by 1e300 used to overflow in the FFT and still give an ok
    # record at the wrong distance.  float32 is the export dtype, so a sample
    # past its range, by as little as one float64, is refused like a non-finite
    # one, before the state changes.
    cfg = _config(wp, noisy_cal, n_avg=4)
    cycles = _stream(wp, 4)
    state = PipelineState.for_config(cfg)
    process_block(cycles[:2], state, cfg)
    ring = state.ring.copy()
    block = cycles[2:].astype(float)  # the stream is float32
    block[0] *= scale
    if sample is not None:
        block[0, 3 * wp.samples_per_ramp + 7] = sample
    with pytest.raises(FramingError,
                       match="input has a sample beyond the float32 range in cycle 2, ramp "
                       + ("0" if sample is None else "3")):
        process_block(block, state, cfg)
    assert state.cycles_seen == 2
    assert np.array_equal(state.ring, ring)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_sum_of_squares_past_the_bound_refuses_no_block_alone(wp, noisy_cal, tmp_path, dtype):
    # The check's one reduction, a sum of squares, passes FLOAT32_MAX**2 here with every
    # sample in range: all samples at +-FLOAT32_MAX in float32, whose own sum overflows, or
    # two at 0.9 FLOAT32_MAX in float64.  The mask decides, and accepts the cycle.
    limit = np.finfo(np.float32).max
    if dtype == "float32":
        cycle = np.where(_stream(wp, 1)[0] < 0, -limit, limit)
    else:
        cycle = _stream(wp, 1)[0].astype(float)
        cycle[[7, 3 * wp.samples_per_ramp + 7]] = 0.9 * float(limit)
    assert cycle.dtype == dtype and not float(np.vdot(cycle, cycle)) <= float(limit) ** 2
    cfg = _config(wp, noisy_cal)
    assert process_cycle(cycle, PipelineState.for_config(cfg), cfg).cycle_index == 0
    write_frames(tmp_path / "frames", [cycle], wp)
    assert [row.tobytes() for row in read_frames(tmp_path / "frames", wp, 0)] == [
        cycle.astype("<f4").tobytes()]


def test_a_config_leaves_the_calibration_it_reads_unchanged(wp):
    # The gates' row medians partition their argument in place: the config passes a copy.
    cal = calibrate(synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 0.3, 17, 16), wp)
    before = copy.deepcopy(cal)
    _config(wp, cal, beta=1.0)
    assert cal == before


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_samples_at_the_float32_limit_give_records(wp, noisy_cal, sign):
    cfg = _config(wp, noisy_cal, n_avg=4)
    block = _stream(wp, 2).astype(float)
    block[1, 3 * wp.samples_per_ramp + 7] = sign * float(np.finfo(np.float32).max)
    state = PipelineState.for_config(cfg)
    assert [r.cycle_index for r in process_block(block, state, cfg)] == [0, 1]
    assert state.cycles_seen == 2


@pytest.mark.parametrize("bad_value", [math.nan, math.inf])
def test_run_stream_yields_the_blocks_before_a_non_finite_one(wp, noisy_cal, bad_value):
    cfg = _config(wp, noisy_cal, n_avg=4)
    cycles = list(_stream(wp, 2 * STREAM_BLOCK + 3))
    bad = STREAM_BLOCK + 5
    cycles[bad] = cycles[bad].copy()
    cycles[bad][wp.samples_per_ramp + 1] = bad_value
    reference = PipelineState.for_config(cfg)
    expected = [repr(process_cycle(c, reference, cfg)) for c in cycles[:STREAM_BLOCK]]
    state, records = PipelineState.for_config(cfg), []
    with pytest.raises(FramingError, match=f"non-finite sample in cycle {bad}, ramp 1"):
        for record in run_stream(cycles, cfg, state):
            records.append(repr(record))
    assert records == expected
    assert state.cycles_seen == STREAM_BLOCK
    assert np.array_equal(state.ring, reference.ring)


@pytest.mark.parametrize("built, run", [({"n_avg": 16}, {"n_avg": 4}),
                                        ({"n_avg": 4}, {"n_avg": 4, "fft_bins": 1024})],
                         ids=["n_avg", "fft_bins"])
def test_a_state_of_another_configuration_is_refused_before_it_changes(wp, noisy_cal, built,
                                                                       run):
    def config(settings):
        fft_bins = settings.get("fft_bins", 2048)
        cal = noisy_cal if fft_bins == 2048 else _flat_calibration(wp, fft_bins)
        return _config(wp, cal, **settings)

    cycles = _stream(wp, 3)
    state = PipelineState.for_config(config(built))
    process_block(cycles[:2], state, config(built))
    snapshot = copy.deepcopy(state)
    with pytest.raises(ParameterError, match="another configuration"):
        process_block(cycles[2:], state, config(run))
    assert state.cycles_seen == snapshot.cycles_seen == 2
    assert state.ring.tobytes() == snapshot.ring.tobytes()


_RING = ("another configuration, not for n_avg 4 and a writeable float64 ring of shape "
         "\\(4, 4, 1024\\)")


def _read_only(ring):
    ring.flags.writeable = False
    return ring


@pytest.mark.parametrize(
    "ring, cycles_seen, message",
    [(np.zeros((3, 4, 1024)), 0, _RING),  # used to raise IndexError
     (np.zeros((8, 4, 1024)), 8, _RING),  # 2·n_avg slots: would average the wrong ones
     (np.zeros((5, 4, 1024)), 5, _RING),  # n_avg + 1 slots: would average the wrong ones
     (np.zeros((8, 3, 1024)), 0, _RING),  # used to end in numpy's broadcast ValueError
     (np.zeros((4, 4, 1024), dtype=int), 0, _RING),  # used to raise UFuncTypeError
     (np.zeros((4, 4, 1024), dtype=np.float32), 0, _RING),  # ran at float32 precision
     ([[[0.0] * 1024] * 4] * 4, 0, _RING),
     (_read_only(np.zeros((4, 4, 1024))), 0, _RING),  # numpy's ValueError, cycle counted
     (np.zeros((4, 4, 1024)), -3, "cycles_seen must be >= 0, got -3"),  # "math domain error"
     (np.zeros((4, 4, 1024)), 2.0, "cycles_seen must be an integer, got 2.0"),
     (np.zeros((4, 4, 1024)), True, "cycles_seen must be an integer, got True")],
    ids=["3-slots", "2n-slots", "n+1-slots", "3-ramps", "int", "float32", "list", "read-only",
         "negative-cycles", "float-cycles", "bool-cycles"])
def test_a_state_that_for_config_would_not_build_is_refused_before_it_changes(
        wp, noisy_cal, ring, cycles_seen, message):
    cfg = _config(wp, noisy_cal, n_avg=4)
    state, before = PipelineState(ring, cycles_seen), copy.deepcopy(ring)
    with pytest.raises(ParameterError, match=message):
        process_block(_stream(wp, 2), state, cfg)
    assert state.cycles_seen is cycles_seen
    assert np.array_equal(state.ring, before)


@pytest.mark.parametrize("block", [1, STREAM_BLOCK])
def test_each_cycle_is_gated_by_the_root_of_its_window_count(wp, noisy_cal, monkeypatch,
                                                              block):
    # The gates process_block passes to the peak stage, cycle by cycle: the floor and
    # the calibrated gate over the root of the window's count, scaled by the cycle's
    # noise level, less the floor.  The warm-up windows hold fewer than n_avg spectra,
    # so their gates are higher.  The levels are checked against numpy's window means.
    n_avg, gates, levels = 5, [], []

    def spy(rows, bin_freqs, epsilons, window, method):
        gates.extend(epsilons)
        return estimate_peaks(rows, bin_freqs, epsilons, window, method)

    def level_spy(*args):
        levels.extend(noise_levels(*args))
        return levels[-len(args[2]):]

    noise_levels = pipeline._noise_levels
    monkeypatch.setattr(pipeline, "estimate_peaks", spy)
    monkeypatch.setattr(pipeline, "_noise_levels", level_spy)
    cfg = _config(wp, noisy_cal, n_avg=n_avg)
    cycles, state, warmups = _stream(wp, STREAM_BLOCK + 3), PipelineState.for_config(cfg), []
    for k in range(0, len(cycles), block):
        warmups += [r.warmup for r in process_block(cycles[k : k + block], state, cfg)]
    medians = np.median(noisy_cal.reference_sigma, axis=1).tolist()
    floors = np.median(noisy_cal.reference_mean, axis=1).tolist()
    windows = [min(k + 1, n_avg) for k in range(len(cycles))]
    assert gates == [g * (pipeline.DEFAULT_NOISE_GATE * m / math.sqrt(n) + f) - f
                     for n, g in zip(windows, levels) for m, f in zip(medians, floors)]
    assert warmups == [k + 1 < n_avg for k in range(len(cycles))]
    spectra = np.abs(np.fft.rfft(cycles.reshape(len(cycles), 4, -1) * np.hamming(
        wp.samples_per_ramp), cfg.fft_bins))[..., : cfg.fft_bins // 2]
    ratios = [np.mean(spectra[k + 1 - n : k + 1], axis=0)[:, ::4]
              / noisy_cal.reference_mean[:, ::4] for k, n in enumerate(windows)]
    nulls = [math.sqrt(4 * math.log(2) / math.pi) if n == 1
             else 1 - (math.pi - 3) / (3 * (4 - math.pi) * n) for n in windows]
    assert levels == pytest.approx([np.median(r) / c for r, c in zip(ratios, nulls)], rel=1e-12)


def test_block_of_cycles_of_other_lengths_is_refused(wp, quiet_cal):
    cfg = _config(wp, quiet_cal)
    state = PipelineState.for_config(cfg)
    good = synthesize_cycle(wp, GroundTruth(0.04, 0.0), 1.0, 0.0, seed=8, cycle_index=0)
    with pytest.raises(FramingError, match="differ in length"):
        process_block([good, good[:-1]], state, cfg)
    with pytest.raises(FramingError, match=f"expected cycles of {wp.samples_per_cycle} samples"):
        list(run_stream([good[:-1]], cfg, state))
    assert process_block(np.empty((0, wp.samples_per_cycle)), state, cfg) == []
    assert state.cycles_seen == 0


def _through(entry, cycles, wp, cal, tmp_path):
    """Run ``cycles`` through one entry point of the block check; its result."""
    if entry == "process_block":
        cfg = _config(wp, cal)
        return [repr(r) for r in process_block(cycles, PipelineState.for_config(cfg), cfg)]
    if entry == "calibrate":
        return calibrate(cycles, wp)
    tmp_path.mkdir(exist_ok=True)
    write_frames(tmp_path / "frames", cycles, wp)
    return (tmp_path / "frames.f32").read_bytes()


_ENTRIES = ["process_block", "calibrate", "write_frames"]


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize(
    "row",
    [
        lambda n: np.full(n, 0.5 + 0.5j),
        lambda n: ["0.5"] * n,
        lambda n: [None] * n,
        lambda n: np.full(n, 0.5, dtype=object),
    ],
    ids=["complex", "string", "none", "object"],
)
def test_samples_that_are_not_real_numbers_are_refused(wp, quiet_cal, tmp_path, entry, row):
    # numpy would drop imaginary parts with a warning, parse strings and fail
    # on None deep inside the FFT; the one block check refuses them all.
    cycles = [row(wp.samples_per_cycle)] * 16
    with pytest.raises(FramingError, match=f"expected cycles of {wp.samples_per_cycle} "
                                           "samples, each a real number"):
        _through(entry, cycles, wp, quiet_cal, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("dtype", [int, bool])
def test_int_and_bool_samples_are_cast(wp, quiet_cal, tmp_path, entry, dtype):
    cycles = np.random.default_rng(4).integers(-3, 4, (16, wp.samples_per_cycle)).astype(dtype)
    cast = _through(entry, cycles, wp, quiet_cal, tmp_path / "cast")
    assert cast == _through(entry, cycles.astype(float), wp, quiet_cal, tmp_path / "float")


_FLOAT32_MAX = float(np.finfo(np.float32).max)
#: Samples at and past the limits: the float32 range the block check admits,
#: the float64 range beyond it, the smallest subnormal and the non-finite values.
_EXTREMES = [0.0, -0.0, math.ulp(0.0), _FLOAT32_MAX, -_FLOAT32_MAX, _PAST_FLOAT32,
             sys.float_info.max, -sys.float_info.max, math.nan, math.inf, -math.inf]
_SAMPLE_DTYPES = ["bool", "int8", "uint8", "int64", "uint64", "float16", "float32", "float64",
                  "complex128", "object", "str"]


@st.composite
def _sample_inputs(draw, n):
    """Cycles of ``n`` samples in any dtype and shape: rows of one cycle, 1-D, 3-D,
    empty, one sample short, or ragged lists of rows; their values uniform up to a
    scale from 1e-320 to past the float32 range, some set to :data:`_EXTREMES` (or,
    for ints, to the dtype's limits)."""
    dtype = np.dtype(draw(st.sampled_from(_SAMPLE_DTYPES)))
    n_cycles = draw(st.sampled_from([1, 3, MIN_CALIBRATION_CYCLES]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind in "iu":
        limits = np.iinfo(dtype)
        samples = rng.integers(limits.min, limits.max, (n_cycles, n), dtype, endpoint=True)
        specials = [limits.min, limits.max]
    elif dtype.kind == "b":
        samples, specials = rng.integers(0, 2, (n_cycles, n)).astype(bool), [True]
    else:
        scale = draw(st.one_of(st.sampled_from([1.0, _FLOAT32_MAX]),
                               st.floats(-320.0, 40.0).map(lambda e: 10.0**e)))
        samples, specials = rng.uniform(-scale, scale, (n_cycles, n)), _EXTREMES
    for index, value in draw(st.lists(st.tuples(st.integers(0, samples.size - 1),
                                                st.sampled_from(specials)), max_size=3)):
        samples.flat[index] = value
    with np.errstate(over="ignore"):  # float16 takes a large sample as inf
        samples = samples.astype(dtype)
    shape = draw(st.sampled_from(["cycles", "1-D", "3-D", "empty", "one short", "ragged"]))
    if shape == "1-D":
        return samples.ravel()
    if shape == "3-D":
        return samples.reshape(n_cycles, 4, -1)
    if shape == "empty":
        return samples[:0] if draw(st.booleans()) else samples[:0].ravel()
    if shape == "one short":
        return samples[:, 1:]
    if shape == "ragged":
        rows = [row.tolist() if draw(st.booleans()) else row for row in samples]
        rows[draw(st.integers(0, n_cycles - 1))] = rows[0][1:]
        return rows
    return samples


@given(data=st.data(), method=st.sampled_from(["weighted_average", "gaussian"]))
@settings(max_examples=40, deadline=None)
def test_fuzzed_sample_arrays_end_in_records_or_a_package_error(wp, noisy_cal, data, method):
    # Whatever the dtype, shape or values, a block gives one record per cycle or
    # one LfiError, and a refused block leaves the state as it was; calibrate
    # gives a calibration or one LfiError.  A warning is an error in tier-1.
    cycles = data.draw(_sample_inputs(wp.samples_per_cycle))
    cfg = _config(wp, noisy_cal, n_avg=4, interp_method=method, noise_model=_NOISE_MODEL)
    state = PipelineState.for_config(cfg)
    process_block(_stream(wp, 2), state, cfg)
    before = copy.deepcopy(state)
    try:
        records = process_block(cycles, state, cfg)
    except LfiError:
        assert state.cycles_seen == before.cycles_seen
        assert np.array_equal(state.ring, before.ring)
    else:
        assert [r.cycle_index for r in records] == list(range(2, state.cycles_seen))
        assert state.cycles_seen == 2 + len(cycles)
    try:
        calibrate(cycles, wp)
    except LfiError:
        pass


@pytest.mark.parametrize("size", [STREAM_BLOCK, 2 * STREAM_BLOCK])
@pytest.mark.parametrize("method", ["weighted_average", "gaussian"])
def test_a_blocks_peak_memory_is_within_its_fft_work_count(wp, noisy_cal, method, size,
                                                           monkeypatch):
    # A block allocates its FFT arrays anew, and the refusal past MAX_WORK_BYTES
    # counts them: the rest of the block (the average, floor, peaks and records)
    # must fit in what the count leaves over.  numpy reports its buffers to tracemalloc.
    cfg = _config(wp, noisy_cal, n_avg=16, interp_method=method, noise_model=_NOISE_MODEL)
    cycles = _stream(wp, 5 * size)
    blocks = [list(cycles[k : k + size]) for k in range(0, len(cycles), size)]
    state, counts = PipelineState.for_config(cfg), []
    monkeypatch.setattr(spectral, "check_work", lambda nbytes, what: counts.append(nbytes))
    process_block(blocks[0], state, cfg)  # warm-up: the caches, and the block's count
    monkeypatch.undo()
    tracemalloc.start()
    try:
        for block in blocks[1:]:
            process_block(block, state, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= counts[0], (peak, counts[0])


#: The short-range envelope of the blind-ramp property: R from 2 to 100 mm, |v| <= 0.1 m/s.
_R_RANGE, _V_MAX = (0.002, 0.1), 0.1
#: Ramp sets the property makes blind on purpose: one ramp, or two of one slope sign.
_BLIND_SETS = [(0,), (1,), (2,), (3,), (0, 2), (1, 3)]


@pytest.fixture(scope="session")
def blind_property_cals(wp, noisy_cal):
    """The 64-cycle no-target calibrations of the blind-ramp property by noise
    level: ``noisy_cal`` at 0.3, and its seed's cycles at 1."""
    return {0.3: noisy_cal,
            1.0: calibrate(synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 1.0, 13, 64), wp)}


@st.composite
def _envelope_targets(draw, wp):
    """(R, v) in the envelope: drawn uniformly, or with the beats of one ramp or of
    two (``_BLIND_SETS``) within half the cutoff; ``v`` comes from the mean ``m`` of
    those beats, and R is drawn from where ``m`` can lie with ``|v| <= _V_MAX``."""
    blind = draw(st.one_of(st.just(()), st.sampled_from(_BLIND_SETS)))
    if not blind:
        return draw(st.floats(*_R_RANGE)), draw(st.floats(-_V_MAX, _V_MAX))
    slopes, half = true_slopes(wp)[list(blind)], 0.5 * wp.hp_cutoff
    # The blind beats are m -+ d, d = R |S_i - S_j| / c; each within half the cutoff.
    r_max = min(_R_RANGE[1],
                (wp.emitted_frequency * _V_MAX + C * half) / abs(2.0 * slopes.mean()))
    if len(blind) == 2:
        r_max = min(r_max, C * half / abs(slopes[0] - slopes[1]))
    distance = _R_RANGE[0] + draw(st.floats(0.0, 1.0)) * (r_max - _R_RANGE[0])
    reach = half - distance * abs(slopes[0] - slopes[-1]) / C
    mean_beat = draw(st.floats(-1.0, 1.0)) * reach
    velocity = (C * mean_beat - 2.0 * distance * slopes.mean()) / wp.emitted_frequency
    assume(abs(velocity) <= _V_MAX)
    return distance, velocity


def _blind_property_record(wp, cals, target, sigma, method, seed):
    cfg = _config(wp, cals[sigma], n_avg=1, interp_method=method)
    samples = synthesize_cycle(wp, GroundTruth(*target), 1.0, sigma, seed, 0)
    return process_cycle(samples, PipelineState.for_config(cfg), cfg)


def _blind_ramps(wp, target) -> list:
    """Whether each ramp's true beat is below the cutoff, for a target none of whose
    beats lies within 0.5-2x the cutoff, where the high-pass goes from -25 dB to
    -0.5 dB (rejected with ``assume``)."""
    beats = np.abs(true_beats(wp, *target))
    assume(not ((beats >= 0.5 * wp.hp_cutoff) & (beats <= 2.0 * wp.hp_cutoff)).any())
    return (beats < wp.hp_cutoff).tolist()


_BLIND_PROPERTY_DRAW = dict(target=_envelope_targets(make_wp()),
                            sigma=st.sampled_from([0.3, 1.0]),
                            method=st.sampled_from(["weighted_average", "gaussian"]),
                            seed=st.integers(0, 2**32 - 1))


@given(**_BLIND_PROPERTY_DRAW)
@settings(max_examples=150, deadline=None)
def test_every_ramp_clear_of_the_cutoff_is_valid_and_the_status_follows(
        wp, blind_property_cals, target, sigma, method, seed):
    # The half of the blind-ramp property below that holds on every draw: each
    # ramp whose true beat is at least twice the cutoff is detected, and the
    # status follows from the count of invalid ramps.
    blind = _blind_ramps(wp, target)
    record = _blind_property_record(wp, blind_property_cals, target, sigma, method, seed)
    invalid = [not p.valid for p in record.peaks]
    assert all(lost for lost, off in zip(blind, invalid) if off)
    if invalid != blind:
        event("a blind ramp reads valid")
    assert record.measurement.status == {0: "ok", 1: "degraded"}.get(sum(invalid), "invalid")


@pytest.mark.xfail(strict=True, reason="a noise peak clears the gate on about 1 in 1,000 "
                   "noise-only ramps, so a blind ramp sometimes reads valid")
@given(**_BLIND_PROPERTY_DRAW)
# Ramp 0 (true beat 0 Hz) reads valid at a noise peak of 754 kHz (Nyquist is 1 MHz),
# 12.9 against the other ramps' 129-137, and the record reads ok.
@example(target=(0.010212961622028302, -0.05777724705456065), sigma=0.3,
         method="weighted_average", seed=6049)
@settings(max_examples=150, deadline=None)
def test_the_invalid_ramps_are_the_predicted_blind_ramps(
        wp, blind_property_cals, target, sigma, method, seed):
    # The paper's blind regions: a ramp whose true beat lies below the high-pass
    # cutoff is lost in the noise floor, every other ramp is detected, and the
    # status follows from the count of lost ramps.
    blind = _blind_ramps(wp, target)
    record = _blind_property_record(wp, blind_property_cals, target, sigma, method, seed)
    assert [not p.valid for p in record.peaks] == blind
    assert record.measurement.status == {0: "ok", 1: "degraded"}.get(sum(blind), "invalid")


# ------------------------------------------------------------ record types

@pytest.mark.parametrize("noise_model", [None, _NOISE_MODEL], ids=["no-model", "model"])
def test_records_of_every_status_copy_pickle_and_replace(wp, noisy_cal, noise_model):
    # PeakEstimate, Measurement and CycleRecord are slotted dataclasses: a deep copy
    # and a pickle round trip give the same record, NaN sigmas included, and
    # dataclasses.replace still works on each.
    cfg = _config(wp, noisy_cal, n_avg=2, noise_model=noise_model)
    records = [record for target in ((0.05, 0.02), (0.03, -0.081), (0.0, 0.0))
               for record in run_stream(synthetic_cycles(wp, GroundTruth(*target), 1.0, 0.3,
                                                         seed=5, n_cycles=3), cfg)]
    assert [r.measurement.status for r in records] == ["ok"] * 3 + ["degraded"] * 3 + [
        "invalid"] * 3
    assert [r.warmup for r in records] == [True, False, False] * 3
    sigmas = [math.isnan(r.measurement.sigma_R) for r in records]
    assert sigmas == ([True] * 9 if noise_model is None else [False] * 6 + [True] * 3)
    for record in records:
        for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert repr(twin) == repr(record) and twin is not record
        for obj in (record, record.measurement, *record.peaks):
            assert repr(replace(obj)) == repr(obj) and replace(obj) is not obj


def test_records_refuse_an_undeclared_attribute(wp, quiet_cal):
    # Slotted records have no __dict__: a misspelt field is an error, not a new attribute.
    cfg = _config(wp, quiet_cal)
    record = process_cycle(synthesize_cycle(wp, GroundTruth(0.04, 0.03), 1.0, 0.0, 2, 0),
                           PipelineState.for_config(cfg), cfg)
    for obj, name in ((record, "warm_up"), (record.measurement, "sigma_r"),
                      (record.peaks[0], "beat")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        assert not hasattr(obj, "__dict__")
