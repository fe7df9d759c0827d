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
from lfisensor import solver
from lfisensor.peaks import PeakEstimate
from lfisensor.solver import STATUS_DEGRADED, STATUS_INVALID, STATUS_OK, triple_tables

from conftest import C, estimate_weights, make_wp, true_beats, true_slopes

WP = make_wp()
WP_SHALLOW = make_wp(steep_slope=2.5e15, ratio_rt=0.3)
FE = WP.emitted_frequency
SLOPES = true_slopes(WP).tolist()

#: Rounding bounds of the least-squares oracle against the solver, relative to the
#: scale of each value: ``|w|_1 |f|_inf`` for R and v (``w`` the pseudo-inverse row), and
#: the norm of the normalized pairwise solutions for the spread.  The solver's weights,
#: unit normal and K carry at most 12 roundings each and every term of its sums at most
#: 4 more, on beat differences bounded by ``2 |f|_inf``: under 2^5 eps of the scale
#: (its spread terms are each at most 6x a normalized pairwise solution at these two
#: working points: 2^8 eps).  ``np.linalg.lstsq`` is backward stable, with a forward error
#: under kappa^2 eps of the scale, kappa <= 12 being the design's condition number:
#: 2^8 eps.  np.var's spread is within 2^4 eps of its scale.  Below 2^-537 a square
#: underflows, so values that small drop out of np.var outright: 2^-530 absolute.
REL = 2.0**9 * np.finfo(float).eps
TINY = 2.0**-530


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


def pairwise_scatter(beats, slopes, fe=FE, r_ref=0.05, v_ref=0.1):
    """The spread's definition, spelled out independently: the normalized scatter
    ``sqrt(var(R) / r_ref**2 + var(v) / v_ref**2)`` of the three pairwise solutions of
    three signed beats, and the norm of those normalized solutions, the scale of the
    scatter's rounding error."""
    rs, vs = [], []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        delta = slopes[i] - slopes[j]
        rs.append(C * (beats[i] - beats[j]) / (2 * delta))
        vs.append(C * (beats[j] * slopes[i] - beats[i] * slopes[j]) / (fe * delta))
    spread = math.sqrt(np.var(rs) / r_ref**2 + np.var(vs) / v_ref**2)
    return spread, math.hypot(*(r / r_ref for r in rs), *(v / v_ref for v in vs))


def brute_force_spreads(magnitudes, slopes):
    """Independent enumeration of all 8 sign assignments and their scatter."""
    return {signs: pairwise_scatter(np.multiply(signs, magnitudes).tolist(), slopes)[0]
            for signs in itertools.product((1, -1), repeat=3)}


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


def test_pair_solution_refuses_a_zero_emitted_frequency():
    with pytest.raises(ParameterError, match="emitted frequency must be nonzero"):
        pair_solution(1e5, SLOPES[0], 2e5, SLOPES[1], 0.0)


def test_propagate_noise_degenerate_slopes():
    with pytest.raises(DegeneratePairError, match="ramp slopes must differ"):
        propagate_noise(30.0, 70.0, SLOPES[0], SLOPES[0], FE)


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
    # Oracles: the design's pseudo-inverse for the weights (8 eps apart at most, the
    # design's condition number being at most 12), and pairwise_scatter for the spread
    # K |n . f| at random signed beats, within the oracle's bound.
    rng = np.random.default_rng(3)
    for triple, (slopes, normal, k, (w_r, w_v)) in triple_tables(wp).items():
        assert slopes == tuple(true_slopes(wp)[list(triple)].tolist())
        expected = estimate_weights(wp, triple)
        assert w_r == pytest.approx([w for w, _ in expected], rel=1e-12)
        assert w_v == pytest.approx([w for _, w in expected], rel=1e-12)
        for beats in (rng.normal(size=(200, 3)) * 1e5).tolist():
            spread, scale = pairwise_scatter(beats, slopes, wp.emitted_frequency)
            assert abs(k * abs(sum(n * f for n, f in zip(normal, beats))) - spread) <= REL * scale


def pairwise_mean_weights(wp, triple) -> list:
    """``(w_R, w_v)`` of each ramp of ``triple`` for the mean of the triple's three
    pairwise :func:`pair_solution` results, which is linear in the signed beats: a
    weight is that mean at a unit beat on its ramp alone."""
    slopes, weights = true_slopes(wp).tolist(), []
    for k in triple:
        solutions = [pair_solution(float(a == k), slopes[a], float(b == k), slopes[b],
                                   wp.emitted_frequency)
                     for a, b in itertools.combinations(triple, 2)]
        weights.append(tuple(sum(column) / 3.0 for column in zip(*solutions)))
    return weights


@pytest.mark.parametrize("dropped", [3, 1], ids=["both-steep", "one-steep"])
def test_least_squares_is_the_quieter_estimator(dropped):
    # Equal Gaussian noise sigma on every ramp's beat.  Against the pairwise mean's std,
    # sigma sqrt(sum w_mean**2), the reported R and v read sqrt(sum w_ls**2 / sum
    # w_mean**2): 0.67 in R and 0.62 in v for the triple with both steep ramps, 0.84 and
    # 0.69 for the other.  The pairwise mean reads 1.0.  A sample std of n normal draws
    # has a relative standard error of 1 / sqrt(2 (n - 1)), 1.1 % at n = 4,000, and the
    # tolerance is 5 of them.
    n, sigma = 4000, 50.0
    triple = tuple(i for i in range(4) if i != dropped)
    intensities = [5.0 if i == dropped else 10.0 for i in range(4)]
    least_squares, mean = estimate_weights(WP, triple), pairwise_mean_weights(WP, triple)
    rng = np.random.default_rng(17 + dropped)
    for r, v in ((0.03, 0.02), (0.06, -0.05)):
        beats = true_beats(WP, r, v)
        estimates = []
        for noise in rng.normal(0.0, sigma, size=(n, 4)):
            m = disambiguate(peaks_from_beats(beats + noise, intensities=intensities), WP)
            assert m.sign_combo == tuple(int(np.sign(beats[i])) for i in triple)
            estimates.append((m.distance_R, m.velocity_v))
        for q, values in enumerate(zip(*estimates)):
            ls_sq, mean_sq = (sum(w[q] ** 2 for w in ws) for ws in (least_squares, mean))
            assert np.std(values) / (sigma * math.sqrt(mean_sq)) == pytest.approx(
                math.sqrt(ls_sq / mean_sq), rel=5.0 / math.sqrt(2.0 * (n - 1)))


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
    best = min(spreads.values())
    assert spreads[m.sign_combo] == best
    assert m.cluster_spread == pytest.approx(best, abs=1e-15)
    others = sorted(spreads.values())
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


INVALID = ((), (), STATUS_INVALID)


def least_squares_oracle(peaks, wp=WP):
    """Reference solver: every sign assignment fitted with ``np.linalg.lstsq``.

    Returns the decisions ``(signs, ramps, status)`` :func:`disambiguate` may take, and
    ``(R, v, spread, bound_R, bound_v, bound_spread)`` of each of the 8 assignments.
    The rules are the solver's: the three strongest valid ramps, the least
    :func:`pairwise_scatter`, positive R, then the widest blind margin, first in
    ``itertools.product`` order.  Assignments whose beats are the same (a kept
    magnitude of 0.0) are one assignment, the first in that order.  A decision is
    certain when the least spread and the sign of its R stand clear of the bounds;
    assignments within rounding of the least spread, or of R = 0, are each a possible
    decision, and so is ``invalid`` where some R may be 0.  Three equal beats have
    R = 0 exactly, which the solver's beat differences keep.
    """
    valid = [i for i, p in enumerate(peaks) if p.valid]
    if len(valid) < 3:
        return [INVALID], {}
    idx = tuple(sorted(sorted(valid, key=lambda i: (-peaks[i].intensity, i))[:3]))
    status = STATUS_OK if len(valid) == 4 else STATUS_DEGRADED
    slopes, fe = true_slopes(wp)[list(idx)], wp.emitted_frequency
    design = np.column_stack([2.0 * slopes / C, np.full(3, fe / C)])
    weight_norms = np.abs(np.linalg.pinv(design)).sum(axis=1)
    rows, distinct = {}, {}
    for signs in itertools.product((1, -1), repeat=3):
        beats = [sign * peaks[i].beat_frequency for sign, i in zip(signs, idx)]
        (r, v), *_ = np.linalg.lstsq(design, np.array(beats), rcond=None)
        spread, scale = pairwise_scatter(beats, slopes.tolist(), fe)
        bound_r, bound_v = (REL * norm * max(map(abs, beats)) + TINY for norm in weight_norms)
        rows[signs] = (float(r), float(v), spread, bound_r, bound_v, REL * scale + TINY)
        distinct.setdefault(tuple(beats), (signs, len(set(beats)) == 1))
    top = min(rows[signs][2] + rows[signs][5] for signs, _ in distinct.values())
    least = [(signs, flat, rows[signs]) for signs, flat in distinct.values()
             if rows[signs][2] - rows[signs][5] <= top]

    def blind_margin(row):
        r, v = row[2][:2]
        return min(abs((2.0 * r * s + fe * v) / C) for s in slopes)

    positive = [row for row in least if not row[1] and row[2][0] > -row[2][3]]
    choices = [(signs, idx, status) for signs, _, _ in
               sorted(positive, key=blind_margin, reverse=True)]
    if not positive or any(flat or abs(row[0]) <= row[3] for _, flat, row in least):
        choices.append(INVALID)
    return choices, rows


def assert_matches_oracle(m, peaks, wp=WP, certain=False):
    """``m`` is a decision the oracle allows, its only one when ``certain``, and its
    numbers are within the oracle's bounds of that assignment's fit."""
    choices, rows = least_squares_oracle(peaks, wp)
    assert (m.sign_combo, m.selected_ramps, m.status) in choices
    if certain:
        assert len(choices) == 1
    assert math.isnan(m.sigma_R) and math.isnan(m.sigma_v)
    if m.status == STATUS_INVALID:
        assert math.isnan(m.distance_R) and math.isnan(m.velocity_v)
        return
    r, v, spread, bound_r, bound_v, bound_spread = rows[m.sign_combo]
    assert abs(m.distance_R - r) <= bound_r
    assert abs(m.velocity_v - v) <= bound_v
    assert abs(m.cluster_spread - spread) <= bound_spread


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
    assert_matches_oracle(disambiguate(peaks, WP), peaks, certain=True)


def _zeroed(r, v, ramp):
    """The beat magnitudes of a target, with ramp ``ramp``'s exactly 0.0."""
    return [0.0 if i == ramp else abs(f) for i, f in enumerate(true_beats(WP, r, v).tolist())]


@given(
    magnitudes=st.lists(st.floats(0.0, 1e6), min_size=4, max_size=4),
    intensities=st.lists(st.floats(0.5, 20.0), min_size=4, max_size=4),
    invalid_ramp=st.sampled_from([None, 0, 1, 2, 3]),
)
# A kept magnitude of 0.0 reads the same under either sign, so two assignments
# tie exactly on spread, R, v and blind margin, and product order decides:
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
        assert_matches_oracle(disambiguate(peaks, wp), peaks, wp)


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
    assert_matches_oracle(m, peaks, certain=True)


def test_mirror_choice_with_cancelling_velocities_keeps_positive_zero():
    # Ramp 0 dropped and magnitudes a power of two times |slope|: the (-, +, -)
    # assignment, a mirror one, is a pure-distance line, and the velocity weights of
    # triple (1, 2, 3) are exactly 1 : 4 : 2, so its + row's velocity cancels to +0.0.
    # A direct solve of the mirror cancels to +0.0 as well, and so must
    # disambiguate, or the exported record reads -0.0.
    magnitudes = [abs(s) * 2.0**-20 for s in SLOPES]
    peaks = _peaks(magnitudes, [10.0, 9.0, 8.0, 7.0], invalid_ramp=0)
    m = disambiguate(peaks, WP)
    assert m.sign_combo == (-1, 1, -1)
    assert m.velocity_v == 0.0
    assert math.copysign(1.0, m.velocity_v) == 1.0
    assert_matches_oracle(m, peaks, certain=True)


def test_a_tie_on_spread_goes_to_the_widest_blind_margin(monkeypatch):
    # Real beats tie on spread only on a set of measure zero, so _sign_combos gives
    # two least-spread rows of positive R: one with ramp 0's beat at 0 Hz (blind),
    # one at v = 0, clear of blind on every ramp.  Either order, the clear one wins.
    blind = ((1, 1, -1), 0.01, -2.0 * 0.01 * SLOPES[0] / FE, 0.5)
    clear = ((1, -1, 1), 0.05, 0.0, 0.5)
    peaks = peaks_from_beats(true_beats(WP, 0.05, 0.0))
    for rows in ([blind, clear], [clear, blind]):
        monkeypatch.setattr(solver, "_sign_combos", lambda magnitudes, table: rows)
        m = disambiguate(peaks, WP)
        assert (m.sign_combo, m.distance_R, m.velocity_v) == clear[:3]
        assert m.selected_ramps == (0, 1, 2) and m.status == STATUS_OK


def test_measurement_is_plain_value():
    beats = true_beats(WP, 0.03, 0.01)
    m = disambiguate(peaks_from_beats(beats), WP)
    assert isinstance(m, Measurement)
    assert m.cluster_spread >= 0.0
    assert len(m.sign_combo) == len(m.selected_ramps) == 3
