"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Every expected value is produced by an oracle that is
independent of the code path under test (forward-model algebra, direct
enumeration, Monte-Carlo, closed forms).
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lfisensor import (
    GroundTruth,
    PipelineConfig,
    PipelineState,
    baseline_measurement,
    calibrate,
    estimate_peaks,
    fit_noise_model,
    magnitude_spectra,
    min_reliable_distance,
    pair_solution,
    process_cycle,
    propagate_noise,
    run_stream,
    synthesize_cycle,
    synthetic_cycles,
)
from lfisensor.analysis import blind_map
from lfisensor.cli import main as cli_main
from lfisensor.modulation import save_working_point
from lfisensor.peaks import DEFAULT_WINDOW, GAUSSIAN, WEIGHTED_AVERAGE
from lfisensor.spectral import bin_frequencies

from conftest import C, make_wp, true_beats, true_slopes
from test_analysis import TRUE_COEFFS, _synthetic_observations

R_TOL = 0.005
V_TOL = 0.005
V_ABS = 5e-4  # 0.5 mm/s


def _report(number, description):
    print(f"ACCEPTANCE {number}: PASS — {description}")


def _v_tolerance(v):
    return max(V_TOL * abs(v), V_ABS)


@pytest.fixture(scope="module")
def wp():
    return make_wp()  # S = 1e15 Hz/s, rt = 0.5, 10 kHz cutoff, 2 MHz ADC


@pytest.fixture(scope="module")
def quiet_cfg(wp):
    cal = calibrate(
        synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 0.0, seed=1, n_cycles=16), wp
    )
    return PipelineConfig(working_point=wp, calibration=cal)


@pytest.fixture(scope="module")
def roundtrip_batch(wp, quiet_cfg):
    """1,000 noise-free random targets with at most one blind ramp."""
    rng = np.random.default_rng(12345)
    cases = []
    start = time.perf_counter()
    case_index = 0
    while len(cases) < 1000:
        r = rng.uniform(0.01, 0.10)
        v = rng.uniform(-0.1, 0.1)
        beats = true_beats(wp, r, v)
        if int(np.sum(np.abs(beats) < wp.hp_cutoff)) > 1:
            continue
        samples = synthesize_cycle(
            wp, GroundTruth(r, v), 1.0, 0.0, seed=case_index, cycle_index=0
        )
        record = process_cycle(samples, PipelineState.for_config(quiet_cfg), quiet_cfg)
        cases.append((r, v, beats, record))
        case_index += 1
    elapsed = time.perf_counter() - start
    return cases, elapsed


def test_criterion_1_round_trip_exactness(roundtrip_batch):
    cases, elapsed = roundtrip_batch
    assert len(cases) == 1000
    for r, v, _, record in cases:
        m = record.measurement
        assert m.status in ("ok", "degraded")
        assert abs(m.distance_R - r) <= R_TOL * r, (r, v, m.distance_R)
        assert abs(m.velocity_v - v) <= _v_tolerance(v), (r, v, m.velocity_v)
    assert elapsed < 60.0
    _report(1, f"1000 noise-free round trips within 0.5% (ran in {elapsed:.1f} s)")


def _exact_scatter(beats, slopes, f_e, r_ref=0.05, v_ref=0.1):
    """The spread's definition in exact rational arithmetic on the given floats: the
    squared normalized scatter ``var(R) / r_ref**2 + var(v) / v_ref**2`` of the three
    pairwise solutions, and their squared normalized norm."""
    c, f_e, r_ref, v_ref = (Fraction(x) for x in (C, f_e, r_ref, v_ref))
    f, s = [Fraction(x) for x in beats], [Fraction(x) for x in slopes]
    pairs = ((0, 1), (0, 2), (1, 2))
    rs = [c * (f[a] - f[b]) / (2 * (s[a] - s[b])) / r_ref for a, b in pairs]
    vs = [c * (f[b] * s[a] - f[a] * s[b]) / (f_e * (s[a] - s[b])) / v_ref for a, b in pairs]
    scatter = sum((x - sum(xs) / 3) ** 2 for xs in (rs, vs) for x in xs) / 3
    return scatter, sum(x * x for x in rs + vs)


def test_criterion_2_sign_disambiguation(roundtrip_batch, wp):
    cases, _ = roundtrip_batch
    slopes = true_slopes(wp).tolist()
    f_e = wp.emitted_frequency
    correct = 0
    total = 0
    for r, v, beats, record in cases:
        m = record.measurement
        selected = m.selected_ramps
        if any(beats[i] == 0.0 for i in selected):
            continue  # degenerate: sign undefined
        total += 1
        true_signs = tuple(int(np.sign(beats[i])) for i in selected)
        if m.sign_combo == true_signs:
            correct += 1
        # Independent enumeration: the chosen combo minimizes the scatter.
        mags = [record.peaks[i].beat_frequency for i in selected]
        sel_slopes = [slopes[i] for i in selected]
        spreads = {}
        for signs in itertools.product((1, -1), repeat=3):
            rs, vs = [], []
            for a, b in ((0, 1), (0, 2), (1, 2)):
                f1, f2 = signs[a] * mags[a], signs[b] * mags[b]
                delta = sel_slopes[a] - sel_slopes[b]
                rs.append(C * (f1 - f2) / (2 * delta))
                vs.append(C * (f2 * sel_slopes[a] - f1 * sel_slopes[b]) / (f_e * delta))
            spreads[signs] = math.sqrt(np.var(rs) / 0.05**2 + np.var(vs) / 0.1**2)
        assert spreads[m.sign_combo] == min(spreads.values())
        # The reported spread against the same definition in exact arithmetic, within
        # 2^8 eps of the norm of the normalized pairwise solutions: the solver's
        # spread terms are each at most 6x one of them, and carry at most 16 roundings.
        exact_sq, norm_sq = _exact_scatter(np.multiply(m.sign_combo, mags), sel_slopes, f_e)
        bound = 2.0**8 * np.finfo(float).eps * math.sqrt(norm_sq)
        assert abs(m.cluster_spread - math.sqrt(exact_sq)) <= bound
    assert correct / total >= 0.999
    _report(2, f"sign combo correct in {correct}/{total} non-degenerate cases")


def test_criterion_3_blind_ramp_redundancy(wp, quiet_cfg):
    rng = np.random.default_rng(777)
    s = wp.steep_slope
    slope_of = {0: s, 1: -s, 2: wp.ratio_rt * s, 3: -wp.ratio_rt * s}
    r_max_for = {0: 0.018, 1: 0.018, 2: 0.036, 3: 0.036}
    checked = 0
    attempt = 0
    while checked < 200:
        attempt += 1
        k = int(rng.integers(0, 4))
        r = rng.uniform(0.01, r_max_for[k])
        f_target = rng.uniform(-0.8, 0.8) * wp.hp_cutoff
        v = (C * f_target - 2.0 * r * slope_of[k]) / wp.emitted_frequency
        if abs(v) > 0.1:
            continue
        beats = true_beats(wp, r, v)
        blind = np.abs(beats) < wp.hp_cutoff
        if blind.sum() != 1 or not blind[k]:
            continue
        samples = synthesize_cycle(
            wp, GroundTruth(r, v), 1.0, 0.0, seed=10_000 + attempt, cycle_index=0
        )
        record = process_cycle(samples, PipelineState.for_config(quiet_cfg), quiet_cfg)
        m = record.measurement
        assert m.status in ("ok", "degraded")
        assert k not in m.selected_ramps
        assert abs(m.distance_R - r) <= R_TOL * r, (k, r, v)
        assert abs(m.velocity_v - v) <= _v_tolerance(v), (k, r, v)
        checked += 1
    _report(3, f"{checked} one-ramp-blind cases stay within criterion-1 tolerances")


def test_criterion_4_baseline_fails_where_solver_holds(wp, quiet_cfg):
    rng = np.random.default_rng(4242)
    checked = 0
    attempt = 0
    while checked < 100:
        attempt += 1
        r = rng.uniform(0.010, 0.017)
        v = rng.choice([-1.0, 1.0]) * rng.uniform(0.065, 0.1)
        if abs(wp.emitted_frequency * v) <= 1.05 * abs(2 * r * wp.steep_slope):
            continue
        beats = true_beats(wp, r, v)
        if int(np.sum(np.abs(beats) < wp.hp_cutoff)) > 1:
            continue
        samples = synthesize_cycle(
            wp, GroundTruth(r, v), 1.0, 0.0, seed=20_000 + attempt, cycle_index=0
        )
        record = process_cycle(samples, PipelineState.for_config(quiet_cfg), quiet_cfg)
        m = record.measurement
        assert abs(m.distance_R - r) <= R_TOL * r
        assert abs(m.velocity_v - v) <= _v_tolerance(v)
        r_b, v_b = baseline_measurement(
            record.peaks[0].beat_frequency, record.peaks[1].beat_frequency, wp
        )
        baseline_breaks = (
            abs(r_b - r) > R_TOL * r or abs(v_b - v) > _v_tolerance(v)
        )
        assert baseline_breaks, (r, v, r_b, v_b)
        checked += 1
    _report(4, f"{checked} velocity-dominated cases: baseline off, solver within tolerance")


def test_criterion_5_sqrt_navg_scaling(wp):
    gt = GroundTruth(0.05, 0.03)
    noise_sigma = 0.3
    cal = calibrate(
        synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, noise_sigma, seed=60, n_cycles=64),
        wp,
    )
    n_cycles = 1280
    sigma_r = {}
    sigma_v = {}
    for n_avg in (1, 4, 16):
        cfg = PipelineConfig(working_point=wp, calibration=cal, n_avg=n_avg)
        source = synthetic_cycles(wp, gt, 1.0, noise_sigma, seed=61, n_cycles=n_cycles)
        records = list(run_stream(source, cfg))
        # Independent windows: every n_avg-th record after warm-up.
        picked = records[n_avg - 1 :: n_avg]
        assert all(r.measurement.status == "ok" for r in picked)
        sigma_r[n_avg] = np.std([r.measurement.distance_R for r in picked])
        sigma_v[n_avg] = np.std([r.measurement.velocity_v for r in picked])
    for sigmas in (sigma_r, sigma_v):
        ratio_4 = sigmas[4] / sigmas[1]
        ratio_16 = sigmas[16] / sigmas[1]
        assert 0.5 * 0.8 <= ratio_4 <= 0.5 * 1.2, sigmas
        assert 0.25 * 0.8 <= ratio_16 <= 0.25 * 1.2, sigmas
    _report(
        5,
        "sigma ratios at n_avg 1:4:16 = "
        f"(1, {sigma_r[4] / sigma_r[1]:.3f}, {sigma_r[16] / sigma_r[1]:.3f}) for R, "
        f"(1, {sigma_v[4] / sigma_v[1]:.3f}, {sigma_v[16] / sigma_v[1]:.3f}) for v",
    )


def test_criterion_6_noise_propagation_monte_carlo():
    rng = np.random.default_rng(2025)
    trials = 10_000
    results = []
    for wp_mc in (
        make_wp(),
        make_wp(steep_slope=2e15, ratio_rt=0.25),
        make_wp(steep_slope=5e14, ratio_rt=0.8),
    ):
        s1, s2 = true_slopes(wp_mc)[[0, 3]].tolist()
        sigma1, sigma2 = 40.0, 90.0
        f1_mean, f2_mean = 220e3, -80e3
        rs = np.empty(trials)
        vs = np.empty(trials)
        for t in range(trials):
            f1 = f1_mean + rng.normal(0.0, sigma1)
            f2 = f2_mean + rng.normal(0.0, sigma2)
            rs[t], vs[t] = pair_solution(f1, s1, f2, s2, wp_mc.emitted_frequency)
        sigma_r, sigma_v = propagate_noise(
            sigma1, sigma2, s1, s2, wp_mc.emitted_frequency
        )
        assert np.std(rs) == pytest.approx(sigma_r, rel=0.05)
        assert np.std(vs) == pytest.approx(sigma_v, rel=0.05)
        results.append((np.std(rs) / sigma_r, np.std(vs) / sigma_v))
    _report(
        6,
        "Monte-Carlo/propagated sigma ratios: "
        + ", ".join(f"({a:.3f}, {b:.3f})" for a, b in results),
    )


def test_criterion_7_noise_model_fit():
    rng = np.random.default_rng(101)
    exact = fit_noise_model(_synthetic_observations(TRUE_COEFFS, rng))
    for name in ("a1", "a2", "a3", "a4", "a5", "b"):
        assert getattr(exact, name) == pytest.approx(
            getattr(TRUE_COEFFS, name), abs=1e-9
        )
    rng = np.random.default_rng(203)
    observations = _synthetic_observations(TRUE_COEFFS, rng, n=120, log_noise=0.05)
    noisy = fit_noise_model(observations)
    design = np.array(
        [
            [
                math.log10(o.f_ramp_rate),
                math.log10(o.slope_S),
                math.log10(o.beat_f_b),
                math.log10(o.velocity_v),
                math.log10(o.distance_R),
                1.0,
            ]
            for o in observations
        ]
    )
    dof = design.shape[0] - design.shape[1]
    residual_var = noisy.fit_residual**2 * design.shape[0] / dof
    ses = np.sqrt(np.diag(residual_var * np.linalg.inv(design.T @ design)))
    for k, name in enumerate(("a1", "a2", "a3", "a4", "a5", "b")):
        assert abs(getattr(noisy, name) - getattr(TRUE_COEFFS, name)) <= 3 * ses[k]
    _report(7, "noise-model coefficients exact (noiseless) and within 3 SE (noisy)")


def test_criterion_8_minimum_reliable_distance(wp):
    # Working point qualifies: steep beat at 2 cm, v = 0 exceeds 20 kHz.
    assert 2 * 0.02 * wp.steep_slope / C > 20e3
    assert wp.hp_cutoff == 10e3
    result = min_reliable_distance(wp, v_max=0.1)
    assert 0.005 <= result <= 0.02, result
    # Grid-oracle identity, cell for cell.
    bm = blind_map(wp, (-0.1, 0.1), (0.0, 0.05), (41, 31))
    s = wp.steep_slope
    slopes = (s, -s, wp.ratio_rt * s, -wp.ratio_rt * s)
    for i, r in enumerate(bm.r_axis):
        for j, v in enumerate(bm.v_axis):
            oracle = sum(
                abs((2 * r * slope + wp.emitted_frequency * v) / C) < wp.hp_cutoff
                for slope in slopes
            )
            assert bm.blind_count[i, j] == oracle
    _report(8, f"minimum reliable distance {1e3 * result:.2f} mm in [5, 20] mm; "
               "blind map matches the per-cell oracle")


def test_criterion_9_interpolator_sweep(wp):
    bin_width = wp.sampling_rate / 2048
    t = np.arange(wp.samples_per_ramp) / wp.sampling_rate
    base_bin = 150
    window, freqs = np.hamming(wp.samples_per_ramp), bin_frequencies(wp, 2048)
    worst = {GAUSSIAN: 0.0, WEIGHTED_AVERAGE: 0.0}
    for offset in np.linspace(0.0, 1.0, 32, endpoint=False):
        f = (base_bin + offset) * bin_width
        tone = np.cos(2 * np.pi * f * t + 0.7)
        mags = magnitude_spectra([np.tile(tone, 4)], wp, window, 2048, 0)[:1]
        for method in worst:
            est = estimate_peaks(mags, freqs, [0.0], DEFAULT_WINDOW, method)[0]
            worst[method] = max(worst[method], abs(est.beat_frequency - f))
    for method, err in worst.items():
        assert err < 0.2 * bin_width, (method, err / bin_width)
    _report(
        9,
        "32-point sweep worst error: "
        f"gaussian {worst[GAUSSIAN] / bin_width:.4f} bins, "
        f"weighted {worst[WEIGHTED_AVERAGE] / bin_width:.4f} bins (< 0.2)",
    )


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch):
    wp = make_wp()

    def run(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        save_working_point(wp, "sensor.cfg")
        assert cli_main(["calibrate", "--config", "sensor.cfg", "--out", "cal.json",
                         "--cycles", "24", "--noise-sigma", "0.3", "--seed", "6"]) == 0
        assert cli_main(["synth", "--config", "sensor.cfg", "--out", "frames",
                         "--cycles", "6", "--distance", "0.05", "--velocity", "0.02",
                         "--noise-sigma", "0.3", "--seed", "8"]) == 0
        assert cli_main(["process", "--config", "sensor.cfg",
                         "--calibration", "cal.json", "--out", "run.csv",
                         "--input", "frames"]) == 0
        assert cli_main(["blindmap", "--config", "sensor.cfg", "--out", "map.csv",
                         "--resolution", "21"]) == 0
        assert cli_main(["mindist", "--config", "sensor.cfg",
                         "--out", "mindist.json"]) == 0
        names = ("cal.json", "frames.f32", "frames.json", "run.csv", "map.csv",
                 "map.csv.grid.txt", "mindist.json", "cal.json.manifest.json",
                 "frames.manifest.json", "run.csv.manifest.json",
                 "map.csv.manifest.json", "mindist.json.manifest.json")
        return {name: (workdir / name).read_bytes() for name in names}

    first = run(tmp_path / "run_a")
    second = run(tmp_path / "run_b")
    assert first == second
    _report(10, "two seeded end-to-end runs produced byte-identical output files")
