import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfisensor import (
    DegeneratePairError,
    Measurement,
    ParameterError,
    baseline_measurement,
    disambiguate,
    pair_solution,
    propagate_noise,
)
from lfisensor.peaks import PeakEstimate
from lfisensor.solver import STATUS_DEGRADED, STATUS_INVALID, STATUS_OK, _var3, triple_tables

from conftest import C, estimate_weights, make_wp, true_beats, true_slopes

WP = make_wp()
WP_SHALLOW = make_wp(steep_slope=2.5e15, ratio_rt=0.3)
FE = WP.emitted_frequency
SLOPES = true_slopes(WP).tolist()


def peaks_from_beats(beats, valid=(True, True, True, True), intensities=None):
    """Exact-magnitude peak estimates for solver-level tests."""
    if intensities is None:
        intensities = [10.0] * 4
    return [
        PeakEstimate(
            beat_frequency=abs(beats[i]),
            intensity=intensities[i],
            method="weighted_average",
            valid=valid[i],
        )
        for i in range(4)
    ]


def brute_force_spreads(magnitudes, slopes, r_ref=0.05, v_ref=0.1):
    """Independent enumeration of all 8 sign assignments and their scatter."""
    out = {}
    for signs in itertools.product((1, -1), repeat=3):
        rs, vs = [], []
        for (i, j) in ((0, 1), (0, 2), (1, 2)):
            f1, f2 = signs[i] * magnitudes[i], signs[j] * magnitudes[j]
            rs.append(C * (f1 - f2) / (2 * (slopes[i] - slopes[j])))
            vs.append(C * (f2 * slopes[i] - f1 * slopes[j]) / (FE * (slopes[i] - slopes[j])))
        out[signs] = (
            math.sqrt(np.var(rs) / r_ref**2 + np.var(vs) / v_ref**2),
            np.mean(rs),
            np.mean(vs),
        )
    return out


def test_pair_solution_zero_case():
    assert pair_solution(0.0, SLOPES[0], 0.0, SLOPES[1], FE) == (0.0, 0.0)


@given(
    r=st.floats(1e-4, 0.1),
    v=st.floats(-0.2, 0.2),
    pair=st.sampled_from(list(itertools.combinations(range(4), 2))),
)
@settings(max_examples=100, deadline=None)
def test_pair_solution_round_trips_forward_model(r, v, pair):
    i, j = pair
    beats = true_beats(WP, r, v)
    distance, velocity = pair_solution(beats[i], SLOPES[i], beats[j], SLOPES[j], FE)
    assert distance == pytest.approx(r, rel=1e-9, abs=1e-12)
    assert velocity == pytest.approx(v, rel=1e-9, abs=1e-12)


def test_pair_solution_negation_mirrors():
    beats = true_beats(WP, 0.04, 0.05)
    r, v = pair_solution(beats[0], SLOPES[0], beats[1], SLOPES[1], FE)
    rm, vm = pair_solution(-beats[0], SLOPES[0], -beats[1], SLOPES[1], FE)
    assert rm == pytest.approx(-r, rel=1e-12)
    assert vm == pytest.approx(-v, rel=1e-12)


def test_pair_solution_degenerate_slopes():
    with pytest.raises(DegeneratePairError):
        pair_solution(1e5, SLOPES[0], 2e5, SLOPES[0], FE)


def test_propagate_noise_zero_and_homogeneity():
    assert propagate_noise(0.0, 0.0, SLOPES[0], SLOPES[1], FE) == (0.0, 0.0)
    r1, v1 = propagate_noise(30.0, 70.0, SLOPES[0], SLOPES[1], FE)
    r2, v2 = propagate_noise(60.0, 140.0, SLOPES[0], SLOPES[1], FE)
    assert r2 == pytest.approx(2 * r1, rel=1e-12)
    assert v2 == pytest.approx(2 * v1, rel=1e-12)


@pytest.mark.parametrize("sigmas", [(-1.0, 0.0), (0.0, -1.0), (-1.0, -1.0)],
                         ids=["first", "second", "both"])
def test_propagate_noise_refuses_a_negative_sigma(sigmas):
    with pytest.raises(ParameterError, match="sigmas must be >= 0"):
        propagate_noise(*sigmas, SLOPES[0], SLOPES[1], FE)


@pytest.mark.parametrize("wp", [WP, WP_SHALLOW], ids=["reference", "shallow"])
def test_triple_tables_hold_the_weights_of_the_reported_estimate(wp):
    # Oracle: the mean of pair_solution at unit beats; the signed slopes lead the row.
    for triple, row in triple_tables(wp).items():
        assert row[0] == tuple(true_slopes(wp)[list(triple)].tolist())
        w_r, w_v = row[-1]
        expected = estimate_weights(wp, triple)
        assert w_r == pytest.approx([w for w, _ in expected], rel=1e-12)
        assert w_v == pytest.approx([w for _, w in expected], rel=1e-12)


def test_propagate_noise_matches_monte_carlo():
    # Oracle: Monte-Carlo propagation through pair_solution.
    rng = np.random.default_rng(2024)
    sigma1, sigma2 = 40.0, 90.0
    f1_mean, f2_mean = 250e3, -150e3
    s1, s2 = SLOPES[0], SLOPES[1]
    rs, vs = [], []
    for _ in range(10_000):
        f1 = f1_mean + rng.normal(0, sigma1)
        f2 = f2_mean + rng.normal(0, sigma2)
        r, v = pair_solution(f1, s1, f2, s2, FE)
        rs.append(r)
        vs.append(v)
    sigma_r, sigma_v = propagate_noise(sigma1, sigma2, s1, s2, FE)
    assert np.std(rs) == pytest.approx(sigma_r, rel=0.05)
    assert np.std(vs) == pytest.approx(sigma_v, rel=0.05)


def test_baseline_measurement_symmetry():
    # Equal beats split into f_R = 1e5 Hz and f_v = 0: no velocity, and the
    # distance of a 1e5 Hz beat on the steep slope.
    r, v = baseline_measurement(1e5, 1e5, WP)
    assert v == 0.0
    assert r == C * 1e5 / (2.0 * WP.steep_slope)


def test_baseline_agrees_when_distance_dominates():
    r, v = 0.05, 0.01  # 2RS/c = 333 kHz >> f_e v / c = 12 kHz
    beats = true_beats(WP, r, v)
    r_b, v_b = baseline_measurement(abs(beats[0]), abs(beats[1]), WP)
    assert r_b == pytest.approx(r, rel=1e-9)
    assert v_b == pytest.approx(v, rel=1e-9)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert r_b == pytest.approx(m.distance_R, rel=1e-9)
    assert v_b == pytest.approx(m.velocity_v, rel=1e-9)


def test_baseline_fails_when_velocity_dominates():
    r, v = 0.012, 0.09  # f_e v = 3.2e13 > 2RS = 2.4e13
    beats = true_beats(WP, r, v)
    assert abs(FE * v) > abs(2 * r * WP.steep_slope)
    r_b, v_b = baseline_measurement(abs(beats[0]), abs(beats[1]), WP)
    assert abs(r_b - r) > 10 * 0.005 * r  # baseline far outside tolerance
    assert abs(v_b - v) > 10 * max(0.005 * abs(v), 5e-4)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert m.distance_R == pytest.approx(r, rel=1e-9)
    assert m.velocity_v == pytest.approx(v, rel=1e-9)


def test_disambiguate_recovers_clean_target():
    r, v = 0.03, 0.05
    beats = true_beats(WP, r, v)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert m.status == STATUS_OK
    assert m.distance_R == pytest.approx(r, rel=1e-9)
    assert m.velocity_v == pytest.approx(v, rel=1e-9)
    true_signs = tuple(int(np.sign(beats[i])) for i in m.selected_ramps)
    assert m.sign_combo == true_signs
    assert m.cluster_spread == pytest.approx(0.0, abs=1e-9)


def test_disambiguate_spread_is_brute_force_minimum():
    r, v = 0.027, -0.04
    beats = true_beats(WP, r, v)
    intensities = [10.0, 9.0, 8.0, 7.0]  # keeps ramps 0, 1, 2
    m = disambiguate(peaks_from_beats(beats, intensities=intensities), WP)
    assert m.selected_ramps == (0, 1, 2)
    spreads = brute_force_spreads([abs(beats[i]) for i in (0, 1, 2)], SLOPES[:3])
    best = min(s for s, _, _ in spreads.values())
    assert m.cluster_spread == pytest.approx(best, abs=1e-15)
    others = sorted(s for s, _, _ in spreads.values())
    assert others[2] > best * 1e3 or others[2] > 1e-6  # strict minimum


def test_disambiguate_drops_blind_ramp():
    r, v = 0.03, 0.02
    beats = true_beats(WP, r, v)
    for blind in range(4):
        valid = [i != blind for i in range(4)]
        m = disambiguate(peaks_from_beats(beats, valid=valid), WP)
        assert m.status == STATUS_DEGRADED
        assert blind not in m.selected_ramps
        assert m.distance_R == pytest.approx(r, rel=1e-9)
        assert m.velocity_v == pytest.approx(v, rel=1e-9)


def test_disambiguate_lowest_intensity_ramp_dropped():
    beats = true_beats(WP, 0.05, 0.01)
    intensities = [5.0, 9.0, 8.0, 7.0]
    m = disambiguate(peaks_from_beats(beats, intensities=intensities), WP)
    assert m.selected_ramps == (1, 2, 3)
    assert m.status == STATUS_OK


def test_any_three_of_four_agree_noise_free():
    r, v = 0.06, -0.07
    beats = true_beats(WP, r, v)
    results = []
    for dropped in range(4):
        valid = [i != dropped for i in range(4)]
        m = disambiguate(peaks_from_beats(beats, valid=valid), WP)
        results.append((m.distance_R, m.velocity_v))
    for dr, dv in results:
        assert dr == pytest.approx(r, rel=1e-9)
        assert dv == pytest.approx(v, rel=1e-9)


def test_disambiguate_too_few_valid_is_invalid():
    beats = true_beats(WP, 0.03, 0.0)
    m = disambiguate(peaks_from_beats(beats, valid=[True, True, False, False]), WP)
    assert m.status == STATUS_INVALID
    assert math.isnan(m.distance_R)
    assert m.sign_combo == ()
    assert m.selected_ramps == ()


def test_disambiguate_zero_beats_invalid():
    m = disambiguate(peaks_from_beats([0.0, 0.0, 0.0, 0.0]), WP)
    assert m.status == STATUS_INVALID


def test_mirror_input_invariance():
    # Mirrored ground truth produces the same magnitudes, hence the same
    # measurement; the positive-distance rule picks the physical branch.
    beats = true_beats(WP, 0.04, 0.03)
    m1 = disambiguate(peaks_from_beats(beats), WP)
    m2 = disambiguate(peaks_from_beats(-beats), WP)
    assert m1 == m2
    assert m1.distance_R > 0


@given(r=st.floats(1e-3, 0.1), v=st.floats(-0.1, 0.1))
@settings(max_examples=200, deadline=None)
def test_noise_free_exactness(r, v):
    beats = true_beats(WP, r, v)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert m.status == STATUS_OK
    assert m.distance_R == pytest.approx(r, rel=1e-9, abs=1e-12)
    assert m.velocity_v == pytest.approx(v, rel=1e-9, abs=1e-11)


def test_disambiguate_validates_input_shape():
    beats = true_beats(WP, 0.03, 0.0)
    with pytest.raises(ParameterError):
        disambiguate(peaks_from_beats(beats)[:3], WP)


def brute_force_disambiguate(peaks, wp=WP, r_ref=0.05, v_ref=0.1) -> Measurement:
    """Reference solver: all 8 sign assignments, each solved pair by pair.

    Uses :func:`pair_solution` and ``np.var``, and the same selection rules
    as :func:`disambiguate`: three strongest valid ramps, least spread,
    positive mean distance, then the widest blind margin.
    """
    slopes, fe = true_slopes(wp).tolist(), wp.emitted_frequency
    invalid = Measurement(math.nan, math.nan, math.nan, math.nan, (), (), math.nan,
                          STATUS_INVALID)
    valid = [i for i, p in enumerate(peaks) if p.valid]
    if len(valid) < 3:
        return invalid
    idx = tuple(sorted(sorted(valid, key=lambda i: (-peaks[i].intensity, i))[:3]))
    kept = [peaks[i] for i in idx]
    rows = []
    for signs in itertools.product((1, -1), repeat=3):
        beats = [sign * p.beat_frequency for sign, p in zip(signs, kept)]
        sols = [pair_solution(beats[a], slopes[idx[a]], beats[b], slopes[idx[b]], fe)
                for a, b in ((0, 1), (0, 2), (1, 2))]
        rs, vs = [r for r, _ in sols], [v for _, v in sols]
        spread = math.sqrt(np.var(rs) / r_ref**2 + np.var(vs) / v_ref**2)
        rows.append((signs, sum(rs) / 3.0, sum(vs) / 3.0, spread))
    best = min(row[3] for row in rows)
    positive = [row for row in rows if row[3] == best and row[1] > 0.0]
    if not positive:
        return invalid

    def blind_margin(row):
        return min(abs((2.0 * row[1] * slopes[i] + fe * row[2]) / C) for i in idx)

    signs, mean_r, mean_v, spread = sorted(positive, key=blind_margin, reverse=True)[0]
    status = STATUS_OK if len(valid) == 4 else STATUS_DEGRADED
    return Measurement(mean_r, mean_v, math.nan, math.nan, signs, idx, spread, status)


def _peaks(magnitudes, intensities, invalid_ramp):
    return [
        PeakEstimate(magnitudes[i], intensities[i], "weighted_average", i != invalid_ramp)
        for i in range(4)
    ]


@given(
    r=st.floats(1e-3, 0.1),
    v=st.floats(-0.1, 0.1),
    noise=st.lists(st.floats(-1e-3, 1e-3), min_size=4, max_size=4),
    intensities=st.lists(st.floats(0.5, 20.0), min_size=4, max_size=4),
    invalid_ramp=st.sampled_from([None, 0, 1, 2, 3]),
)
@settings(max_examples=300, deadline=None)
def test_disambiguate_equals_brute_force_on_noisy_targets(r, v, noise, intensities,
                                                          invalid_ramp):
    # Negative leading beats (v below -2RS/f_e, or ramp 0 dropped) make the
    # chosen assignment a mirror one, with a leading minus sign.
    magnitudes = [abs(f) * (1.0 + e) for f, e in zip(true_beats(WP, r, v), noise)]
    peaks = _peaks(magnitudes, intensities, invalid_ramp)
    assert disambiguate(peaks, WP) == brute_force_disambiguate(peaks)


def _zeroed(r, v, ramp):
    """The beat magnitudes of a target, with ramp ``ramp``'s exactly 0.0."""
    return [0.0 if i == ramp else abs(f) for i, f in enumerate(true_beats(WP, r, v).tolist())]


@given(
    magnitudes=st.lists(st.floats(0.0, 1e6), min_size=4, max_size=4),
    intensities=st.lists(st.floats(0.5, 20.0), min_size=4, max_size=4),
    invalid_ramp=st.sampled_from([None, 0, 1, 2, 3]),
)
# A kept magnitude of 0.0 reads the same under either sign, so two assignments
# tie exactly on spread, means and blind margin, and product order decides:
# between two mirror assignments (the answer (-1, 1, -1)), and between two
# that lead with + (the answer (1, -1, 1)).
@example(magnitudes=_zeroed(0.01, -0.09, 2), intensities=[10.0, 9.0, 8.0, 7.0],
         invalid_ramp=0)
@example(magnitudes=_zeroed(0.04, 0.03, 2), intensities=[10.0, 9.0, 8.0, 7.0],
         invalid_ramp=None)
# Four equal intensities: the highest ramp is dropped, and ramps (0, 1, 2) are kept.
@example(magnitudes=np.abs(true_beats(WP, 0.03, 0.02)).tolist(), intensities=[7.0] * 4,
         invalid_ramp=None)
@settings(max_examples=300, deadline=None)
def test_disambiguate_equals_brute_force_on_arbitrary_magnitudes(magnitudes, intensities,
                                                                 invalid_ramp):
    # Two working points in one process: the solver's per-working-point
    # tables must not answer one with the other's slopes.
    peaks = _peaks(magnitudes, intensities, invalid_ramp)
    for wp in (WP, WP_SHALLOW):
        assert disambiguate(peaks, wp) == brute_force_disambiguate(peaks, wp)


@pytest.mark.parametrize("invalid_ramp", [None, 0])
def test_disambiguate_mirror_choice_equals_brute_force(invalid_ramp):
    # Ramps 0 and 1 have negative true beats (v < -2RS/f_e), so whichever
    # leads the kept three, the answer is a mirror assignment.
    beats = true_beats(WP, 0.01, -0.09)
    assert beats[0] < 0 and beats[1] < 0
    peaks = _peaks([abs(f) * (1 + 1e-4 * k) for k, f in enumerate(beats)],
                   [10.0, 9.0, 8.0, 7.0], invalid_ramp)
    m = disambiguate(peaks, WP)
    assert m.sign_combo[0] == -1
    assert m == brute_force_disambiguate(peaks)


def test_mirror_choice_with_cancelling_velocities_keeps_positive_zero():
    # Ramp 0 dropped and magnitudes a power of two times |slope|: every
    # pairwise velocity of the (-, +, -) assignment, a mirror one, is exactly
    # zero.  A direct solve sums them to +0.0, and so must disambiguate, or
    # the exported record reads -0.0.
    magnitudes = [abs(s) * 2.0**-20 for s in SLOPES]
    peaks = _peaks(magnitudes, [10.0, 9.0, 8.0, 7.0], invalid_ramp=0)
    m = disambiguate(peaks, WP)
    expected = brute_force_disambiguate(peaks)
    assert m.sign_combo == (-1, 1, -1)
    assert m.velocity_v == 0.0
    assert math.copysign(1.0, m.velocity_v) == math.copysign(1.0, expected.velocity_v) == 1.0
    assert m == expected


def test_spread_variance_is_np_var_bit_for_bit():
    # np.var squares with d * d; a d**2 spelling differs in about 1 case in 1,500.
    rng = np.random.default_rng(8)
    triples = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-4, 4, size=(20_000, 1))
    for a, b, c in triples.tolist():
        assert _var3(a, b, c) == np.var([a, b, c])


def test_measurement_is_plain_value():
    beats = true_beats(WP, 0.03, 0.01)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert isinstance(m, Measurement)
    assert m.cluster_spread >= 0.0
    assert len(m.sign_combo) == len(m.selected_ramps) == 3
