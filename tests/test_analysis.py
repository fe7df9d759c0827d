import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfisensor import (
    FitError,
    NoiseModelCoefficients,
    NoiseObservation,
    ParameterError,
    blind_map,
    fit_noise_model,
    min_reliable_distance,
    predict_sigma_fb,
)
from lfisensor.analysis import OBSERVATION_FIELDS, read_observations_csv

from conftest import C, make_wp, true_slopes

WP = make_wp()  # S = 1e15, rt = 0.5, hp 10 kHz


def brute_blind_count(wp, distance, velocity):
    """Independent oracle: per-ramp blind evaluation from the beat formula."""
    s = wp.steep_slope
    count = 0
    for slope in (s, -s, wp.ratio_rt * s, -wp.ratio_rt * s):
        beat = (2.0 * distance * slope + wp.emitted_frequency * velocity) / C
        count += abs(beat) < wp.hp_cutoff
    return count


def test_blind_map_origin_fully_blind():
    bm = blind_map(WP, (-0.001, 0.001), (0.0, 0.001), (3, 3))
    assert bm.blind_count[0, 1] == 4  # (v = 0, R = 0)


def test_blind_map_clear_far_out():
    # Shallow beat 2 R rt S / c must exceed the cutoff at v = 0.
    r = 1.2 * C * WP.hp_cutoff / (2 * WP.ratio_rt * WP.steep_slope)
    bm = blind_map(WP, (-1e-4, 1e-4), (r, r + 0.01), (3, 3))
    assert bm.blind_count[0, 1] == 0


def test_blind_map_single_ramp_line():
    # Along 2 R S_i + f_e v = 0 ramp i is blind.
    r = 0.03
    v = -2.0 * r * true_slopes(WP)[2] / WP.emitted_frequency
    bm = blind_map(WP, (v, v + 1e-6), (r, r + 1e-6), (2, 2))
    assert bm.blind_count[0, 0] >= 1


def test_blind_map_matches_brute_force_cell_for_cell():
    bm = blind_map(WP, (-0.1, 0.1), (0.0, 0.05), (21, 17))
    for i, r in enumerate(bm.r_axis):
        for j, v in enumerate(bm.v_axis):
            assert bm.blind_count[i, j] == brute_blind_count(WP, r, v)
    assert bm.blind_count.min() >= 0 and bm.blind_count.max() <= 4
    assert np.all(np.diff(bm.v_axis) > 0) and np.all(np.diff(bm.r_axis) > 0)


@pytest.mark.parametrize("resolution", [(0, 3), (3, 0), (-1, -1)])
def test_blind_map_refuses_a_resolution_below_one(resolution):
    with pytest.raises(ParameterError, match="resolution must be positive"):
        blind_map(WP, (-0.1, 0.1), (0.0, 0.05), resolution)


@pytest.mark.parametrize("resolution, name", [((2.5, 3), "n_v"), ((True, 3), "n_v"),
                                              ((3, np.float64(4)), "n_r"),
                                              (5, "pair"), ((3, 3, 3), "pair")])
def test_blind_map_refuses_a_resolution_that_is_not_two_integers(resolution, name):
    # Each used to end in a raw TypeError from numpy, or a ValueError from the unpacking.
    match = ("resolution must be a pair" if name == "pair"
             else f"resolution's {name} must be an integer")
    with pytest.raises(ParameterError, match=match):
        blind_map(WP, (-0.1, 0.1), (0.0, 0.05), resolution)


@pytest.mark.parametrize("v_range, r_range, name", [
    (("a", 0.1), (0.0, 0.05), "v_range"), ((-0.1, True), (0.0, 0.05), "v_range"),
    ((-0.1, 0.1), (0.0, "0.05"), "r_range"), ((-0.1, 0.1), 0.05, "r_range"),
    ((-0.1, 0.0, 0.1), (0.0, 0.05), "v_range"), ("ab", (0.0, 0.05), "v_range")],
    ids=["v-string", "v-bool", "r-string", "r-scalar", "v-three", "v-text"])
def test_blind_map_refuses_a_range_that_is_not_two_real_numbers(v_range, r_range, name):
    # Each used to end in a raw TypeError or ValueError, or, for a bool, in a grid.
    with pytest.raises(ParameterError,
                       match=f"grid ranges must be finite pairs of reals: {name} is"):
        blind_map(WP, v_range, r_range, (3, 3))


@pytest.mark.parametrize("v_max", ["1", True, np.True_, None, math.nan, math.inf, 0.0, -0.1])
def test_min_reliable_distance_refuses_a_v_max_that_is_not_a_positive_number(v_max):
    # A string or None used to end in a raw TypeError, and True was taken as 1.0.
    with pytest.raises(ParameterError, match="v_max must be finite and > 0"):
        min_reliable_distance(WP, v_max)


@pytest.mark.parametrize("v_range, r_range", [((0.1, 0.1), (0.0, 0.05)),
                                              ((0.1, -0.1), (0.0, 0.05)),
                                              ((-0.1, 0.1), (0.05, 0.05))],
                         ids=["v-empty", "v-reversed", "r-empty"])
def test_blind_map_refuses_an_empty_grid_range(v_range, r_range):
    with pytest.raises(ParameterError, match="grid ranges must be nonempty"):
        blind_map(WP, v_range, r_range, (3, 3))


def test_min_reliable_distance_zero_cutoff():
    wp = make_wp(hp_cutoff=0.0)
    assert min_reliable_distance(wp, v_max=0.1) == 0.0


def test_min_reliable_distance_closed_form():
    # Blind velocity intervals share a fixed width; two ramps can both be
    # blind only below R = c h / min|S_i - S_j|.
    slopes = true_slopes(WP)
    min_delta = min(
        abs(slopes[i] - slopes[j]) for i in range(4) for j in range(i + 1, 4)
    )
    expected = C * WP.hp_cutoff / min_delta
    result = min_reliable_distance(WP, v_max=0.1)
    assert result == pytest.approx(expected, abs=2e-4)


def test_min_reliable_distance_grid_consistency():
    result = min_reliable_distance(WP, v_max=0.1)
    bm_above = blind_map(WP, (-0.1, 0.1), (result + 5e-4, 0.05), (201, 11))
    assert bm_above.blind_count.max() <= 1
    bm_below = blind_map(WP, (-0.1, 0.1), (1e-4, result - 5e-4), (801, 11))
    assert bm_below.blind_count.max() >= 2


def test_min_reliable_distance_monotone_in_cutoff():
    values = [
        min_reliable_distance(make_wp(hp_cutoff=h), v_max=0.1)
        for h in (5e3, 10e3, 20e3)
    ]
    assert values[0] < values[1] < values[2]


def test_min_reliable_distance_antimonotone_in_slope():
    values = [
        min_reliable_distance(make_wp(steep_slope=s), v_max=0.1)
        for s in (0.5e15, 1e15, 2e15)
    ]
    assert values[0] > values[1] > values[2]


def test_min_reliable_distance_degenerate_ratio_grows():
    # rt -> 1 makes two slope magnitudes nearly coincide.
    base = min_reliable_distance(make_wp(ratio_rt=0.5), v_max=0.1)
    degenerate = min_reliable_distance(make_wp(ratio_rt=0.97), v_max=0.1)
    assert degenerate > 2 * base
    # Oracle: the blind map still shows two-blind cells between the bounds.
    bm = blind_map(
        make_wp(ratio_rt=0.97), (-0.1, 0.1), (base + 1e-3, degenerate - 1e-3), (401, 9)
    )
    assert bm.blind_count.max() >= 2


def test_min_reliable_distance_unbounded_signal():
    # A wide velocity range keeps the near-equal slope pair overlapping far
    # out; the closed form reports that bound, however far out it lies.
    wp = make_wp(ratio_rt=0.97)
    bound = min_reliable_distance(wp, v_max=10.0)
    assert bound > 0.05
    assert _two_ramps_blind(wp, bound * (1 - 1e-9), 10.0)
    assert not _two_ramps_blind(wp, bound * (1 + 1e-9), 10.0)


def _two_ramps_blind(wp, distance, v_max):
    """Independent oracle: some |v| <= v_max lies in two ramps' blind intervals.

    Ramp i is blind on the open interval |2 R S_i + f_e v| < c h of v.
    """
    s = wp.steep_slope
    half = C * wp.hp_cutoff / wp.emitted_frequency
    centers = [
        -2.0 * distance * slope / wp.emitted_frequency
        for slope in (s, -s, wp.ratio_rt * s, -wp.ratio_rt * s)
    ]
    for i in range(4):
        for j in range(i + 1, 4):
            lo = max(centers[i] - half, centers[j] - half, -v_max)
            hi = min(centers[i] + half, centers[j] + half, v_max)
            if lo < hi:
                return True
    return False


@given(
    steep_slope=st.floats(1e13, 1e16),
    ratio_rt=st.floats(0.01, 0.99),
    hp_cutoff=st.one_of(st.just(0.0), st.floats(1.0, 1e5)),
    v_max=st.floats(1e-4, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_min_reliable_distance_separates_two_blind_from_reliable(
    steep_slope, ratio_rt, hp_cutoff, v_max
):
    wp = make_wp(steep_slope=steep_slope, ratio_rt=ratio_rt, hp_cutoff=hp_cutoff)
    bound = min_reliable_distance(wp, v_max)
    assert not _two_ramps_blind(wp, bound * (1 + 1e-9), v_max)
    if hp_cutoff == 0.0:
        assert bound == 0.0
    else:
        assert _two_ramps_blind(wp, bound * (1 - 1e-9), v_max)


def _synthetic_observations(coeffs, rng, n=40, log_noise=0.0):
    observations = []
    for _ in range(n):
        f_ramp = 10 ** rng.uniform(2.5, 4.5)
        slope = 10 ** rng.uniform(13.0, 15.5)
        beat = 10 ** rng.uniform(4.0, 6.0)
        velocity = 10 ** rng.uniform(-3.0, -1.0)
        distance = 10 ** rng.uniform(-2.0, -0.8)
        n_avg = float(rng.choice([1, 4, 16]))
        log_sigma = (
            coeffs.a1 * math.log10(f_ramp)
            + coeffs.a2 * math.log10(slope)
            + coeffs.a3 * math.log10(beat)
            + coeffs.a4 * math.log10(velocity)
            + coeffs.a5 * math.log10(distance)
            + coeffs.b
        )
        if log_noise:
            log_sigma += rng.normal(0.0, log_noise)
        observations.append(
            NoiseObservation(
                f_ramp_rate=f_ramp,
                slope_S=slope,
                beat_f_b=beat,
                velocity_v=velocity,
                distance_R=distance,
                n_avg=n_avg,
                observed_sigma_fb=10**log_sigma / math.sqrt(n_avg),
            )
        )
    return observations


TRUE_COEFFS = NoiseModelCoefficients(
    a1=0.35, a2=-0.6, a3=0.22, a4=0.4, a5=0.55, b=-3.2, fit_residual=0.0
)


def test_fit_recovers_exact_coefficients():
    rng = np.random.default_rng(101)
    observations = _synthetic_observations(TRUE_COEFFS, rng)
    fitted = fit_noise_model(observations)
    for name in ("a1", "a2", "a3", "a4", "a5", "b"):
        assert getattr(fitted, name) == pytest.approx(
            getattr(TRUE_COEFFS, name), abs=1e-9
        )
    assert fitted.fit_residual < 1e-10


def test_fit_with_log_noise_within_three_standard_errors():
    rng = np.random.default_rng(203)
    observations = _synthetic_observations(TRUE_COEFFS, rng, n=120, log_noise=0.05)
    fitted = fit_noise_model(observations)
    # Standard errors from the normal equations (independent of the fitter).
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
    residual_var = fitted.fit_residual**2 * design.shape[0] / dof
    cov = residual_var * np.linalg.inv(design.T @ design)
    ses = np.sqrt(np.diag(cov))
    for k, name in enumerate(("a1", "a2", "a3", "a4", "a5", "b")):
        assert abs(getattr(fitted, name) - getattr(TRUE_COEFFS, name)) <= 3 * ses[k]


def test_fit_requires_enough_observations():
    rng = np.random.default_rng(3)
    observations = _synthetic_observations(TRUE_COEFFS, rng, n=11)
    with pytest.raises(FitError, match="12"):
        fit_noise_model(observations)


def test_fit_names_constant_regressor():
    rng = np.random.default_rng(4)
    observations = [
        NoiseObservation(
            f_ramp_rate=1e3,  # constant
            slope_S=10 ** rng.uniform(13, 15),
            beat_f_b=10 ** rng.uniform(4, 6),
            velocity_v=10 ** rng.uniform(-3, -1),
            distance_R=10 ** rng.uniform(-2, -1),
            n_avg=1.0,
            observed_sigma_fb=10 ** rng.uniform(1, 3),
        )
        for _ in range(20)
    ]
    with pytest.raises(FitError, match="f_ramp_rate"):
        fit_noise_model(observations)


def test_fit_names_collinear_regressor():
    # Lab coupling: fixed peak value makes the slope proportional to the
    # ramp rate, which is exact collinearity in the log domain.
    rng = np.random.default_rng(5)
    observations = []
    for _ in range(20):
        f_ramp = 10 ** rng.uniform(2.5, 4.5)
        observations.append(
            NoiseObservation(
                f_ramp_rate=f_ramp,
                slope_S=2.5e11 * f_ramp,
                beat_f_b=10 ** rng.uniform(4, 6),
                velocity_v=10 ** rng.uniform(-3, -1),
                distance_R=10 ** rng.uniform(-2, -1),
                n_avg=1.0,
                observed_sigma_fb=10 ** rng.uniform(1, 3),
            )
        )
    with pytest.raises(FitError, match="f_ramp_rate|slope_S"):
        fit_noise_model(observations)


def test_fit_names_exactly_the_collinear_regressors():
    # Two independent couplings, slope proportional to ramp rate and distance ten
    # times velocity: the error names both pairs, and not the free beat frequency.
    rng = np.random.default_rng(6)
    observations = []
    for _ in range(20):
        f_ramp, velocity = 10 ** rng.uniform(2.5, 4.5), 10 ** rng.uniform(-3, -1)
        observations.append(NoiseObservation(f_ramp, 2.5e11 * f_ramp, 10 ** rng.uniform(4, 6),
                                             velocity, 10 * velocity, 1.0,
                                             10 ** rng.uniform(1, 3)))
    with pytest.raises(FitError) as info:
        fit_noise_model(observations)
    assert str(info.value).endswith(
        "collinear: ['f_ramp_rate', 'slope_S', 'velocity_v', 'distance_R']")


def test_observation_csv_header_is_the_documented_literal():
    # The tests that build a CSV take its header from OBSERVATION_FIELDS, so only a
    # literal shows a reordered NoiseObservation changing the file format.
    header = "f_ramp_rate,slope_S,beat_f_b,velocity_v,distance_R,n_avg,observed_sigma_fb"
    assert ",".join(OBSERVATION_FIELDS) == header
    assert f"`{header}`" in (Path(__file__).parents[1] / "README.md").read_text()


def test_nonpositive_regressor_rejected():
    with pytest.raises(ParameterError, match="velocity_v"):
        NoiseObservation(1e3, 1e14, 1e5, 0.0, 0.03, 1, 10.0)


def test_predict_averaging_law():
    one = predict_sigma_fb(TRUE_COEFFS, 4e3, 1e15, 2e5, 0.05, 0.03, n_avg=1)
    four = predict_sigma_fb(TRUE_COEFFS, 4e3, 1e15, 2e5, 0.05, 0.03, n_avg=4)
    assert four == pytest.approx(one / 2.0, rel=1e-12)


def test_predict_identity_model():
    flat = NoiseModelCoefficients(0, 0, 0, 0, 0, 0, 0)
    assert predict_sigma_fb(flat, 1e3, 1e14, 1e5, 0.1, 0.05, n_avg=1) == 1.0


def test_fit_predict_round_trip():
    rng = np.random.default_rng(77)
    observations = _synthetic_observations(TRUE_COEFFS, rng)
    fitted = fit_noise_model(observations)
    for obs in observations[:10]:
        predicted = predict_sigma_fb(
            fitted,
            obs.f_ramp_rate,
            obs.slope_S,
            obs.beat_f_b,
            obs.velocity_v,
            obs.distance_R,
            obs.n_avg,
        )
        assert predicted == pytest.approx(obs.observed_sigma_fb, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.tuples(*[st.floats(-4.0, 4.0)] * 6),
       point=st.tuples(*[st.floats(1e-3, 1e16)] * 5), n_avg=st.integers(1, 64))
def test_predict_is_the_model_summed_left_to_right_bit_for_bit(coeffs, point, n_avg):
    # The pipeline calls this function, so this pins the bits of every record's
    # sigma as well; past the float range the prediction is refused.
    a1, a2, a3, a4, a5, b = coeffs
    rate, slope, beat, velocity, distance = point
    exponent = (a1 * math.log10(rate) + a2 * math.log10(slope) + a3 * math.log10(beat)
                + a4 * math.log10(velocity) + a5 * math.log10(distance) + b)
    try:
        expected = 10.0**exponent / math.sqrt(n_avg)
    except OverflowError:
        expected = math.inf
    model = NoiseModelCoefficients(*coeffs, fit_residual=0.0)
    if 0.0 < expected < math.inf:
        assert predict_sigma_fb(model, *point, n_avg) == expected
    else:
        with pytest.raises(ParameterError, match="noise model predicts sigma_fb"):
            predict_sigma_fb(model, *point, n_avg)


@pytest.mark.parametrize("name, value", [("a1", math.nan), ("a4", math.inf), ("b", -math.inf)])
def test_noise_model_refuses_a_coefficient_that_is_not_finite(name, value):
    with pytest.raises(ParameterError, match="noise-model coefficients must be finite"):
        replace(TRUE_COEFFS, **{name: value})


@pytest.mark.parametrize("residual", [-1e-12, math.nan])
def test_noise_model_refuses_a_fit_residual_that_is_not_nonnegative(residual):
    with pytest.raises(ParameterError, match="fit_residual must be >= 0"):
        replace(TRUE_COEFFS, fit_residual=residual)


def test_predict_rejects_nonpositive():
    with pytest.raises(ParameterError, match="beat_f_b"):
        predict_sigma_fb(TRUE_COEFFS, 1e3, 1e14, 0.0, 0.1, 0.05, 1)


_VALID_POINT = (1e3, 1e14, 1e5, 0.1, 0.05, 1)


@pytest.mark.parametrize("value", [0.0, -0.0, -1.0, -math.inf, math.nan],
                         ids=["zero", "negative-zero", "negative", "-inf", "nan"])
@pytest.mark.parametrize("index", range(6), ids=OBSERVATION_FIELDS[:6])
def test_predict_names_the_field_outside_the_log_domain(index, value):
    point = list(_VALID_POINT)
    point[index] = value
    message = f"{OBSERVATION_FIELDS[index]} must be strictly positive (log domain), got {value}"
    with pytest.raises(ParameterError) as refused:
        predict_sigma_fb(TRUE_COEFFS, *point)
    assert str(refused.value) == message


@pytest.mark.parametrize("first, second", [(0, 5), (1, 2), (2, 4), (3, 4), (4, 5)])
def test_predict_names_the_first_bad_field_in_column_order(first, second):
    point = list(_VALID_POINT)
    point[first], point[second] = math.nan, -1.0
    with pytest.raises(ParameterError, match=rf"^{OBSERVATION_FIELDS[first]} must be "):
        predict_sigma_fb(TRUE_COEFFS, *point)


@pytest.mark.parametrize("a1", [200.0, -200.0], ids=["overflow", "underflow"])
def test_predict_refuses_a_sigma_that_is_not_finite_and_positive(a1):
    # At the reference ramp rate (4 kHz) the exponent is about +-720:
    # 10**720 overflows a float and 10**-720 rounds to 0.
    coeffs = replace(TRUE_COEFFS, a1=a1)
    with pytest.raises(ParameterError, match="noise model predicts sigma_fb"):
        predict_sigma_fb(coeffs, WP.ramp_rate, 1e15, 200e3, 0.02, 0.05, 1)


def write_observations_csv(observations, path):
    """Observation CSV as a spreadsheet or a lab script would write it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OBSERVATION_FIELDS)
        for obs in observations:
            writer.writerow([format(getattr(obs, name), ".12g") for name in OBSERVATION_FIELDS])


def test_observation_csv_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    observations = _synthetic_observations(TRUE_COEFFS, rng, n=15)
    path = tmp_path / "obs.csv"
    write_observations_csv(observations, path)
    back = read_observations_csv(path)
    assert len(back) == 15
    for a, b in zip(observations, back):
        assert b.slope_S == pytest.approx(a.slope_S, rel=1e-11)
        assert b.observed_sigma_fb == pytest.approx(a.observed_sigma_fb, rel=1e-11)


def test_observation_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParameterError, match="header"):
        read_observations_csv(path)
