import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lfisensor import (
    CalibrationError,
    GroundTruth,
    NoiseModelCoefficients,
    ParameterError,
    PipelineConfig,
    PipelineState,
    build_cycle,
    disambiguate,
    process_cycle,
    propagate_noise,
    replay_cycles,
    run_stream,
    signed_beat,
    synthesize_cycle,
    synthetic_cycles,
    write_frames,
)
from lfisensor import pipeline
from lfisensor.modulation import read_flat_config
from lfisensor.peaks import DEFAULT_KAPPA, PeakEstimate, estimate_peak
from lfisensor.pipeline import _attach_sigmas, config_from_file, read_config_file
from lfisensor.spectral import (
    Calibration,
    frame_spectrum,
    slice_cycle,
    sliding_average,
    subtract_floor,
)

from conftest import make_wp, true_beats


def _config(wp, cal, **overrides):
    return PipelineConfig(working_point=wp, calibration=cal, **overrides)


def test_clean_cycle_recovers_ground_truth(wp, quiet_cal):
    gt = GroundTruth(0.04, 0.03)
    cfg = _config(wp, quiet_cal)
    state = PipelineState.for_config(cfg)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=2)
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


def test_identical_cycles_average_to_single_cycle_result(wp, quiet_cal):
    gt = GroundTruth(0.05, -0.02)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=4)
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


def test_composition_identity(wp, quiet_cal):
    # End-to-end equals hand-composed stage calls.
    gt = GroundTruth(0.035, 0.05)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=9)
    cfg = _config(wp, quiet_cal)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    manual = []
    for i, frame in enumerate(slice_cycle(samples, wp)):
        spec = frame_spectrum(frame, wp, cfg.fft_bins, ramp_index=i)
        averaged = sliding_average([spec])
        mean, sigma = quiet_cal.reference_mean[i], quiet_cal.reference_sigma[i]
        cleaned = subtract_floor(averaged, mean, sigma, cfg.alpha, cfg.beta)
        epsilon = pipeline.DEFAULT_NOISE_GATE * float(np.median(sigma))
        manual.append(
            estimate_peak(
                cleaned,
                window=cfg.interp_window,
                method=cfg.interp_method,
                kappa=DEFAULT_KAPPA,
                epsilon_abs=epsilon,
            )
        )
    assert tuple(manual) == record.peaks


def test_state_snapshot_reproduces_record(wp, quiet_cal):
    cfg = _config(wp, quiet_cal, n_avg=3)
    state = PipelineState.for_config(cfg)
    cycles = list(synthetic_cycles(wp, GroundTruth(0.05, 0.01), 1.0, 0.05, 3, 4))
    for samples in cycles[:-1]:
        process_cycle(samples, state, cfg)
    snapshot = state.copy()
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
    replayed = list(run_stream(replay_cycles(stem, expected_wp=wp), cfg))
    assert len(direct) == len(replayed) == 4
    for a, b in zip(direct, replayed):
        assert a.measurement == b.measurement
        assert a.peaks == b.peaks


def test_replay_rejects_other_working_point(wp, tmp_path):
    samples = synthesize_cycle(wp, GroundTruth(0.03, 0.0), 1.0, 0.0, seed=1)
    stem = tmp_path / "frames"
    write_frames(stem, [samples], wp)
    other = make_wp(steep_slope=2e15)
    # Refused when the source is built, before any cycle is drawn.
    with pytest.raises(ParameterError, match="working point"):
        replay_cycles(stem, expected_wp=other)


def test_noise_model_fills_sigmas(wp, quiet_cal):
    nm = NoiseModelCoefficients(a1=0.0, a2=0.0, a3=0.5, a4=0.0, a5=0.0, b=-1.0,
                                fit_residual=0.0)
    cfg = _config(wp, quiet_cal, noise_model=nm)
    samples = synthesize_cycle(wp, GroundTruth(0.04, 0.02), 1.0, 0.0, seed=8)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    m = record.measurement
    assert m.status == "ok"
    assert math.isfinite(m.sigma_R) and m.sigma_R > 0
    assert math.isfinite(m.sigma_v) and m.sigma_v > 0
    # Oracle: steepest selected pair fed through the propagation law.
    slopes = {r.index: r.slope for r in build_cycle(wp)}
    sel = m.selected_ramps
    import itertools

    i, j = max(
        itertools.combinations(sel, 2),
        key=lambda ij: abs(slopes[ij[0]] - slopes[ij[1]]),
    )

    def sigma(idx):
        return 10 ** (0.5 * math.log10(record.peaks[idx].beat_frequency) - 1.0)

    expected = propagate_noise(sigma(i), sigma(j), slopes[i], slopes[j],
                               wp.emitted_frequency)
    assert (m.sigma_R, m.sigma_v) == pytest.approx(expected, rel=1e-12)


def test_sigma_attachment_uses_steepest_pair(wp, quiet_cal, monkeypatch):
    beats = true_beats(wp, 0.05, 0.02)
    sigma_by_beat = dict(zip(np.abs(beats).tolist(), (40.0, 60.0, 20.0, 30.0)))
    monkeypatch.setattr(
        pipeline, "predict_sigma_fb", lambda coeffs, **kw: sigma_by_beat[kw["beat_f_b"]]
    )
    intensities = [10.0, 9.0, 8.0, 7.0]  # keeps 0, 1, 2
    peaks = tuple(
        PeakEstimate(i, abs(beats[i]), intensities[i], "weighted_average", True)
        for i in range(4)
    )
    nm = NoiseModelCoefficients(0.0, 0.0, 0.5, 0.0, 0.0, -1.0, 0.0)
    cfg = _config(wp, quiet_cal, noise_model=nm)
    m = _attach_sigmas(disambiguate(peaks, wp), peaks, cfg, n_window=1)
    assert m.selected_ramps == (0, 1, 2)
    # steepest selected pair is (0, 1): |S - (-S)| = 2S
    slopes = [r.slope for r in build_cycle(wp)]
    expected = propagate_noise(40.0, 60.0, slopes[0], slopes[1], wp.emitted_frequency)
    assert (m.sigma_R, m.sigma_v) == expected


@pytest.mark.parametrize("n_avg", [1, 2, 16])
def test_window_average_equals_mean_of_last_spectra(wp, quiet_cal, n_avg):
    cfg = _config(wp, quiet_cal, n_avg=n_avg)
    rng = np.random.default_rng(n_avg)
    pushed = [
        rng.random((4, cfg.fft_bins // 2)) * 10.0 ** rng.uniform(-3, 3, size=(4, 1))
        for _ in range(3 * n_avg + 3)
    ]

    def expected(t):  # mean of the last n_avg spectra up to cycle t, per ramp
        window = pushed[max(0, t + 1 - n_avg) : t + 1]
        return np.stack([np.mean([s[i] for s in window], axis=0) for i in range(4)])

    state = PipelineState.for_config(cfg)
    mid_wrap = n_avg + n_avg // 2
    for t, spectra in enumerate(pushed):
        if t == mid_wrap:
            snapshot = state.copy()
        assert np.array_equal(state.push(spectra), expected(t))
    # The copy is independent of the state it was taken from.
    for t in range(mid_wrap, len(pushed)):
        assert np.array_equal(snapshot.push(pushed[t]), expected(t))
    assert snapshot.cycles_seen == state.cycles_seen == len(pushed)


def test_without_noise_model_sigmas_are_nan(wp, quiet_cal):
    cfg = _config(wp, quiet_cal)
    samples = synthesize_cycle(wp, GroundTruth(0.04, 0.0), 1.0, 0.0, seed=8)
    record = process_cycle(samples, PipelineState.for_config(cfg), cfg)
    assert math.isnan(record.measurement.sigma_R)
    assert math.isnan(record.measurement.sigma_v)


def test_one_blind_ramp_still_recovers(wp, quiet_cal):
    # Put the shallow-up beat inside the blind band.
    ramp = build_cycle(wp)[2]
    r = 0.03
    v = -2.0 * r * ramp.slope / wp.emitted_frequency  # shallow-up beat = 0
    gt = GroundTruth(r, v)
    blind = [abs(signed_beat(wp, rd, gt)) < wp.hp_cutoff for rd in build_cycle(wp)]
    assert blind == [False, False, True, False]
    cfg = _config(wp, quiet_cal)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=14)
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
    cfg = config_from_file(path, quiet_cal)
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
    return Calibration(zeros, zeros, 16, wp.sampling_rate, wp.samples_per_ramp)


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
    ],
)
def test_config_rejects_bad_settings_at_construction(wp, quiet_cal, overrides, name):
    with pytest.raises(ParameterError, match=name):
        _config(wp, quiet_cal, **overrides)


@pytest.mark.parametrize("fft_bins", [1000, 256])  # not a power of two; < 500 samples
def test_config_rejects_bad_fft_bins_at_construction(wp, fft_bins):
    with pytest.raises(ParameterError, match="fft_bins"):
        _config(wp, _flat_calibration(wp, fft_bins), fft_bins=fft_bins)


def test_config_accepts_boundary_settings(wp, quiet_cal):
    _config(wp, quiet_cal, interp_window=3, alpha=0.0, beta=0.0,
            sync_offset_samples=wp.samples_per_cycle - 1)
    _config(wp, _flat_calibration(wp, 512), fft_bins=512)


def test_sync_offset_roll(wp, quiet_cal):
    gt = GroundTruth(0.04, 0.01)
    samples = synthesize_cycle(wp, gt, 1.0, 0.0, seed=21)
    shifted = np.roll(samples, 40)
    cfg = _config(wp, quiet_cal, sync_offset_samples=40)
    record = process_cycle(shifted, PipelineState.for_config(cfg), cfg)
    baseline_cfg = _config(wp, quiet_cal)
    baseline = process_cycle(
        samples, PipelineState.for_config(baseline_cfg), baseline_cfg
    )
    assert record.measurement == baseline.measurement
