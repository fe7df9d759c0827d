import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lfisensor import (
    AliasingError,
    FramingError,
    GroundTruth,
    ParameterError,
    highpass,
    read_frames,
    signed_beat,
    synthesize_cycle,
    synthetic_cycles,
    write_frames,
)
from lfisensor import simulator
from lfisensor.simulator import STREAM_BLOCK, _highpass_matrix

from conftest import C, make_wp, poke_raw, true_beats, true_slopes, write_offset_export


def test_zero_target_zero_beats(wp=None):
    wp = make_wp()
    assert all(signed_beat(wp, slope, 0.0, 0.0) == 0.0 for slope in true_slopes(wp))


def test_distance_beat_round_trips_through_pair_equation():
    # Oracle: plug the two steep-ramp beats into the pair distance equation.
    wp = make_wp(steep_slope=1.67e14, hp_cutoff=0.0)
    up, down = true_slopes(wp)[:2].tolist()
    f1 = signed_beat(wp, up, 0.03, 0.0)
    f2 = signed_beat(wp, down, 0.03, 0.0)
    recovered = C * (f1 - f2) / (2.0 * (up - down))
    assert recovered == pytest.approx(0.03, rel=1e-12)
    assert f1 == pytest.approx(2.0 * 0.03 * 1.67e14 / C, rel=1e-12)


def test_velocity_beat_round_trips_through_pair_equation():
    wp = make_wp(hp_cutoff=0.0)
    beats = [signed_beat(wp, slope, 0.0, 0.1) for slope in true_slopes(wp)]
    assert len(set(beats)) == 1  # pure Doppler hits every ramp identically
    up, down = true_slopes(wp)[:2].tolist()
    f1, f2 = beats[0], beats[1]
    recovered = C * (f2 * up - f1 * down) / (wp.emitted_frequency * (up - down))
    assert recovered == pytest.approx(0.1, rel=1e-12)


@given(
    r0=st.floats(0.0, 0.1),
    v0=st.floats(-0.2, 0.2),
    dr=st.floats(1e-4, 0.05),
    dv=st.floats(1e-4, 0.05),
)
@settings(max_examples=50, deadline=None)
def test_signed_beat_affine_in_r_and_v(r0, v0, dr, dv):
    wp = make_wp()
    slope = true_slopes(wp)[0]

    def f(r, v):
        return signed_beat(wp, slope, r, v)

    # Second differences of an affine map vanish.
    assert f(r0 + 2 * dr, v0) - 2 * f(r0 + dr, v0) + f(r0, v0) == pytest.approx(
        0.0, abs=1e-6
    )
    assert f(r0, v0 + 2 * dv) - 2 * f(r0, v0 + dv) + f(r0, v0) == pytest.approx(
        0.0, abs=1e-6
    )


def test_mirrored_beats_solve_to_mirrored_target():
    wp = make_wp()
    r, v = 0.04, 0.06
    beats = true_beats(wp, r, v)
    up, down = true_slopes(wp)[:2].tolist()
    f1, f2 = -beats[0], -beats[1]
    mirrored_r = C * (f1 - f2) / (2.0 * (up - down))
    mirrored_v = C * (f2 * up - f1 * down) / (wp.emitted_frequency * (up - down))
    assert mirrored_r == pytest.approx(-r, rel=1e-12)
    assert mirrored_v == pytest.approx(-v, rel=1e-12)


def test_negative_distance_rejected():
    with pytest.raises(ParameterError, match="distance_R"):
        GroundTruth(-0.01, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_target_rejected(value):
    for r, v in [(value, 0.0), (0.03, value)]:
        with pytest.raises(ParameterError, match="distance_R and velocity_v must be finite"):
            GroundTruth(r, v)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, "a", True],
                         ids=["nan", "inf", "negative", "string", "bool"])
@pytest.mark.parametrize("name", ["amplitude", "noise_sigma"])
def test_synthesis_refuses_a_non_finite_or_negative_level(name, value):
    # A string used to raise a raw TypeError from the comparison, and a bool passed as 1.
    levels = {"amplitude": 1.0, "noise_sigma": 0.1, name: value}
    with pytest.raises(ParameterError, match=f"{name} must be finite and >= 0"):
        synthesize_cycle(make_wp(), GroundTruth(0.03, 0.0), seed=1, cycle_index=0, **levels)
    with pytest.raises(ParameterError, match=f"{name} must be finite and >= 0"):
        next(synthetic_cycles(make_wp(), GroundTruth(0.03, 0.0), seed=1, n_cycles=1, **levels))


def test_synthesis_refuses_a_negative_seed():
    # numpy's SeedSequence would raise a bare ValueError.
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        synthesize_cycle(make_wp(), GroundTruth(0.03, 0.0), 1.0, 0.1, seed=-1, cycle_index=0)


@pytest.mark.parametrize("seed, cycle_index, message", [
    (1.5, 0, "seed must be an integer, got 1.5"),
    (math.nan, 0, "seed must be an integer, got nan"),
    (np.float64(2.0), 0, "seed must be an integer"),
    (1, -1, "cycle_index must be >= 0, got -1"),
    (1, np.int64(-3), "cycle_index must be >= 0, got -3"),
    (1, 0.5, "cycle_index must be an integer, got 0.5"),
], ids=["float-seed", "nan-seed", "numpy-float-seed", "negative-index", "numpy-negative-index",
        "float-index"])
def test_synthesis_refuses_a_seed_or_index_that_is_not_a_non_negative_integer(
        monkeypatch, seed, cycle_index, message):
    # numpy would raise its own TypeError or ValueError; no generator is built.
    def no_generator(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    with pytest.raises(ParameterError, match=message):
        synthesize_cycle(make_wp(), GroundTruth(0.03, 0.0), 1.0, 0.1, seed, cycle_index)
    if cycle_index == 0:
        with pytest.raises(ParameterError, match=message):
            list(synthetic_cycles(make_wp(), GroundTruth(0.03, 0.0), 1.0, 0.1, seed, 2))


def test_synthesis_takes_numpy_integers():
    wp, gt = make_wp(), GroundTruth(0.03, 0.0)
    assert (synthesize_cycle(wp, gt, 1.0, 0.1, np.uint32(7), np.int64(2)).tobytes()
            == synthesize_cycle(wp, gt, 1.0, 0.1, 7, 2).tobytes())


def test_cycle_bytes_do_not_depend_on_the_other_cycles(monkeypatch):
    # Cycle k of any stream is synthesize_cycle(k) byte for byte, whichever
    # cycles are made with it and in whatever order.  BLAS rounds a product
    # by its width in float64, but the float32 output rarely shows it, so the
    # shape of every product is checked as well: one width for every group.
    wp = make_wp()
    operands = []

    class Operator(np.ndarray):
        def __matmul__(self, other):
            operands.append(other.shape)
            return np.asarray(self) @ other

    matrix = simulator._highpass_matrix
    monkeypatch.setattr(simulator, "_highpass_matrix", lambda wp: matrix(wp).view(Operator))

    def truth(k):
        return GroundTruth(0.02 + 0.003 * k, 0.05 * (-1) ** k)

    stream = np.stack(list(synthetic_cycles(wp, truth, 1.0, 0.2, seed=19, n_cycles=16)))
    short = np.stack(list(synthetic_cycles(wp, truth, 1.0, 0.2, seed=19, n_cycles=5)))
    assert short.tobytes() == stream[:5].tobytes()
    for order in (range(16), reversed(range(16)), [11, 3, 7]):
        for k in order:
            cycle = synthesize_cycle(wp, truth(k), 1.0, 0.2, seed=19, cycle_index=k)
            assert cycle.tobytes() == stream[k].tobytes()
    assert operands == [(wp.samples_per_ramp, 4 * STREAM_BLOCK)] * (1 + 1 + 16 + 16 + 3)


@given(cycle_index=st.integers(0, 3 * STREAM_BLOCK - 1),
       count=st.integers(0, 2 * STREAM_BLOCK + 1))
@settings(max_examples=12, deadline=None)
@example(cycle_index=STREAM_BLOCK - 1, count=2 * STREAM_BLOCK + 1)
def test_block_rows_are_their_cycles_from_any_start(cycle_index, count):
    # Unaligned starts, blocks across a group boundary and blocks longer than a
    # group fill the same columns of the same-width products as a cycle alone.
    wp = make_wp()

    def truth(k):
        return GroundTruth(0.02 + 0.0005 * k, 0.03 * (-1) ** k)

    block = simulator.synthesize_block(wp, [truth(cycle_index + c) for c in range(count)],
                                       1.0, 0.2, 29, cycle_index)
    assert block.shape == (count, wp.samples_per_cycle) and block.dtype == "<f4"
    for c, row in enumerate(block):
        k = cycle_index + c
        assert row.tobytes() == synthesize_cycle(wp, truth(k), 1.0, 0.2, 29, k).tobytes()


@pytest.mark.parametrize("levels, seed, cycle_index, message", [
    ({}, 1, 0, None),
    ({"amplitude": math.inf}, 1, 0, "amplitude must be finite and >= 0, got inf"),
    ({"noise_sigma": -0.5}, 1, 0, "noise_sigma must be finite and >= 0, got -0.5"),
    ({}, -2, 0, "seed must be >= 0, got -2"),
    ({}, 1, 3.0, "cycle_index must be an integer, got 3.0"),
], ids=["empty", "infinite-amplitude", "negative-noise", "negative-seed", "float-index"])
def test_empty_block_is_an_empty_export_once_checked(levels, seed, cycle_index, message):
    wp, levels = make_wp(), {"amplitude": 1.0, "noise_sigma": 0.3, **levels}
    if message is not None:
        with pytest.raises(ParameterError, match=message):
            simulator.synthesize_block(wp, [], **levels, seed=seed, cycle_index=cycle_index)
        return
    for index in (0, 5, STREAM_BLOCK):
        block = simulator.synthesize_block(wp, [], **levels, seed=seed, cycle_index=index)
        assert block.shape == (0, wp.samples_per_cycle) and block.dtype == "<f4"


@pytest.mark.parametrize("levels, seed, n_cycles, message", [
    ({"amplitude": math.nan}, 1, 0, "amplitude must be finite and >= 0, got nan"),
    ({"noise_sigma": -1.0}, 1, 0, "noise_sigma must be finite and >= 0, got -1.0"),
    ({}, -1, 0, "seed must be >= 0, got -1"),
    ({}, 1.5, 0, "seed must be an integer, got 1.5"),
    ({}, 1, -1, "n_cycles must be >= 0, got -1"),
    ({}, 1, 2.5, "n_cycles must be an integer, got 2.5"),
    ({}, 1, None, "n_cycles must be an integer, got None"),
], ids=["nan-amplitude", "negative-noise", "negative-seed", "float-seed", "negative-count",
        "float-count", "no-count"])
def test_synthetic_cycles_checks_its_arguments_before_the_first_block(
        monkeypatch, levels, seed, n_cycles, message):
    # A source of zero cycles draws nothing, yet refuses what a longer one
    # would, at the call, as read_frames refuses a bad file; no generator is built.
    def no_generator(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    levels = {"amplitude": 1.0, "noise_sigma": 0.1, **levels}
    with pytest.raises(ParameterError, match=message):
        synthetic_cycles(make_wp(), GroundTruth(0.03, 0.0), levels["amplitude"],
                         levels["noise_sigma"], seed, n_cycles)


def _oracle_cycle(wp, gt, amplitude, noise_sigma, seed, cycle_index):
    """A cycle as the seeding rule defines it: one ``default_rng((seed, k))`` for
    cycle k draws the four phases, then the ``(4, n)`` noise, row r for ramp r;
    then one ``(n, 4)`` product, then float32."""
    n = wp.samples_per_ramp
    t = np.arange(n) / wp.sampling_rate
    rng = np.random.default_rng((seed, cycle_index))
    phases = rng.uniform(0.0, 2.0 * np.pi, 4)
    raw = np.empty((n, 4))
    for r, slope in enumerate(true_slopes(wp).tolist()):
        f = abs(signed_beat(wp, slope, gt.distance_R, gt.velocity_v))
        raw[:, r] = amplitude * np.cos(2.0 * np.pi * f * t + phases[r])
    if noise_sigma > 0:
        raw += rng.normal(0.0, noise_sigma, (4, n)).T
    return (_highpass_matrix(wp) @ raw).T.astype("<f4").ravel()


@pytest.mark.parametrize("seed, cycle_index", [
    *((seed, 3) for seed in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 1, np.uint32(7))),
    *((5, index) for index in (2**32 - 1, 2**32, 2**64 + 1)),
], ids=["seed-0", "seed-7", "seed-2^32-1", "seed-2^32", "seed-2^40+3", "seed-2^64+1",
        "seed-uint32", "index-2^32-1", "index-2^32", "index-2^64+1"])
def test_seed_words_make_the_generator_of_the_seed_tuple(seed, cycle_index):
    # Each cycle's generator is seeded with the uint32 words numpy makes of
    # (seed, k): a rule that dropped a high word would seed another stream.
    wp, gt = make_wp(), GroundTruth(0.03, 0.01)
    assert (synthesize_cycle(wp, gt, 1.0, 0.2, seed, cycle_index).tobytes()
            == _oracle_cycle(wp, gt, 1.0, 0.2, seed, cycle_index).tobytes())


@pytest.mark.parametrize("n_cycles", [1, 5, 16, 17, 33])
@pytest.mark.parametrize("moving", [False, True], ids=["fixed", "callable"])
def test_synthetic_cycles_match_the_seeding_rule_in_every_block(n_cycles, moving):
    # Full and partial last blocks alike hold the cycles the rule defines.
    wp = make_wp()

    def truth(k):
        return GroundTruth(0.02 + 0.001 * k, 0.04 * (-1) ** k)

    source = synthetic_cycles(wp, truth if moving else truth(0), 1.0, 0.2, 23, n_cycles)
    expected = [_oracle_cycle(wp, truth(k if moving else 0), 1.0, 0.2, 23, k)
                for k in range(n_cycles)]
    assert [cycle.tobytes() for cycle in source] == [cycle.tobytes() for cycle in expected]


@pytest.mark.parametrize("n_cycles", [0, 1, 16, 17, 33])
def test_synthetic_cycles_build_one_generator_per_cycle(monkeypatch, n_cycles):
    # Seeding a generator is most of a cycle's cost beyond the product and the
    # draws; cycle k's is seeded with the words of (seed, k) and no other is built.
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed):
        seeds.append(np.asarray(seed).tolist())
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    list(synthetic_cycles(make_wp(), GroundTruth(0.03, 0.01), 1.0, 0.2, 23, n_cycles))
    assert seeds == [[23, k] for k in range(n_cycles)]


@pytest.mark.parametrize("amplitude, noise_sigma", [(1e39, 0.0), (0.0, 1e200), (1e308, 1e308)],
                         ids=["amplitude", "noise", "float64-overflow"])
def test_synthesis_refuses_levels_beyond_the_float32_export(amplitude, noise_sigma):
    # Cast to float32, such samples would be infinite, with only numpy's warning.
    wp = make_wp()
    with pytest.raises(ParameterError, match=re.escape(
            f"amplitude {amplitude} and noise_sigma {noise_sigma} put cycle 5, ramp 0 "
            "beyond the float32 range")):
        simulator.synthesize_block(wp, [GroundTruth(0.03, 0.01)] * 3, amplitude, noise_sigma,
                                   seed=1, cycle_index=5)


def test_synthesis_accepts_cycles_whose_sum_of_squares_passes_the_bound():
    # Every float64 sample is within the float32 range, but their sum of squares is far
    # past FLOAT32_MAX**2, the bound of the check's one reduction: the mask decides.
    wp, limit = make_wp(), float(np.finfo(np.float32).max)
    cycles = simulator.synthesize_block(wp, [GroundTruth(0.03, 0.01)] * 2, 0.5 * limit, 0.0,
                                        seed=1, cycle_index=0)
    samples = cycles.astype(float)
    assert np.isfinite(cycles).all() and np.abs(samples).max() > 0.4 * limit
    assert (samples**2).sum(axis=1).min() > 100 * limit**2


def test_synthesis_names_the_first_cycle_and_ramp_beyond_float32():
    # The noise passes the float32 range on a few samples only (first in cycle 2,
    # ramp 1): the first is found in the float64 cycles the rule defines.
    wp, gt, sigma = make_wp(), GroundTruth(0.03, 0.01), 8e37
    first = None
    for k in range(8):
        rng = np.random.default_rng((1, k))
        rng.uniform(0.0, 2.0 * np.pi, 4)
        raw = rng.normal(0.0, sigma, (4, wp.samples_per_ramp)).T
        beyond = (np.abs(_highpass_matrix(wp) @ raw) > np.finfo(np.float32).max).any(axis=0)
        if beyond.any():
            first = k, int(beyond.argmax())
            break
    assert first is not None
    with pytest.raises(ParameterError, match=rf"put cycle {first[0]}, ramp {first[1]} beyond"):
        simulator.synthesize_block(wp, [gt] * 8, 0.0, sigma, seed=1, cycle_index=0)


def _ramp_samples(wp, ramp, gt, amplitude, noise_sigma, seed):
    """Ramp ``ramp``'s slice of a synthesized cycle."""
    cycle = synthesize_cycle(wp, gt, amplitude, noise_sigma, seed, 0)
    return cycle.reshape(4, -1)[ramp]


def test_clean_frame_spectrum_peaks_at_beat():
    # Oracle: direct FFT of the synthesized samples.
    wp = make_wp()
    gt = GroundTruth(0.05, 0.02)
    samples = _ramp_samples(wp, 0, gt, amplitude=1.0, noise_sigma=0.0, seed=3)
    f = signed_beat(wp, true_slopes(wp)[0], gt.distance_R, gt.velocity_v)
    assert abs(f) >= wp.hp_cutoff
    n = samples.size
    spectrum = np.abs(np.fft.rfft(samples.astype(float)))
    peak_bin = int(np.argmax(spectrum[1:])) + 1
    bin_width = wp.sampling_rate / n
    assert abs(peak_bin * bin_width - abs(f)) <= bin_width


def test_frame_length_and_blind_flag():
    wp = make_wp()
    shallow_up = true_slopes(wp)[2]
    gt = GroundTruth(0.002, 0.0)  # shallow beat well below 10 kHz
    cycle = synthesize_cycle(wp, gt, 1.0, 0.0, seed=1, cycle_index=0)
    assert cycle.size == 4 * round(wp.ramp_duration * wp.sampling_rate)
    assert abs(signed_beat(wp, shallow_up, gt.distance_R, gt.velocity_v)) < wp.hp_cutoff


def test_blind_frame_attenuated_at_least_20db():
    # Oracle: squared Butterworth magnitude at the beat frequency.
    wp = make_wp()
    shallow_up = true_slopes(wp)[2]
    blind_r, clear_r = 0.0015, 0.03  # shallow beats: cutoff / 2 and 100 kHz
    blind = _ramp_samples(wp, 2, GroundTruth(blind_r, 0.0), 1.0, 0.0, seed=2)
    clear = _ramp_samples(wp, 2, GroundTruth(clear_r, 0.0), 1.0, 0.0, seed=2)
    f = abs(signed_beat(wp, shallow_up, blind_r, 0.0))
    assert f < wp.hp_cutoff <= abs(signed_beat(wp, shallow_up, clear_r, 0.0))
    ratio = np.std(blind.astype(float)) / np.std(clear.astype(float))
    assert 20 * np.log10(ratio) <= -20.0
    expected = _squared_butterworth_gain(f, wp.hp_cutoff)
    assert ratio == pytest.approx(expected, rel=0.4)


def test_same_seed_bit_identical():
    wp = make_wp()
    gt = GroundTruth(0.03, 0.01)
    a = _ramp_samples(wp, 0, gt, 1.0, 0.2, seed=42)
    b = _ramp_samples(wp, 0, gt, 1.0, 0.2, seed=42)
    assert a.tobytes() == b.tobytes()
    c = _ramp_samples(wp, 0, gt, 1.0, 0.2, seed=43)
    assert a.tobytes() != c.tobytes()


def test_aliasing_rejected():
    wp = make_wp()
    gt = GroundTruth(0.2, 0.0)  # steep beat ~1.3 MHz > 1 MHz Nyquist
    with pytest.raises(AliasingError, match="Nyquist"):
        synthesize_cycle(wp, gt, 1.0, 0.0, seed=0, cycle_index=0)
    # A steep beat of exactly 1 MHz is at Nyquist, so refused; one ulp nearer is not.
    at_nyquist = 0.149896229
    assert signed_beat(wp, wp.steep_slope, at_nyquist, 0.0) == wp.nyquist
    with pytest.raises(AliasingError, match="at or above Nyquist"):
        synthesize_cycle(wp, GroundTruth(at_nyquist, 0.0), 1.0, 0.0, seed=0, cycle_index=0)
    synthesize_cycle(wp, GroundTruth(math.nextafter(at_nyquist, 0.0), 0.0), 1.0, 0.0, seed=0,
                     cycle_index=0)


def test_highpass_zero_in_zero_out():
    wp = make_wp()
    out = highpass(np.zeros(1000), wp)
    np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 7)])
@pytest.mark.parametrize("cutoff", [0.0, 50e3], ids=["bypass", "filtered"])
def test_highpass_of_no_samples_is_empty(shape, cutoff):
    out = highpass(np.zeros(shape), make_wp(hp_cutoff=cutoff))
    assert out.shape == shape and out.dtype == float


def test_highpass_passes_tone_well_above_cutoff():
    # Oracle: squared Butterworth magnitude (zero-phase application).
    wp = make_wp()
    f = 10.0 * wp.hp_cutoff
    t = np.arange(4000) / wp.sampling_rate
    x = np.cos(2 * np.pi * f * t)
    y = highpass(x, wp)
    mid = slice(1000, 3000)
    gain_db = 20 * np.log10(np.std(y[mid]) / np.std(x[mid]))
    assert abs(gain_db) < 1.0


def test_highpass_attenuates_below_cutoff():
    wp = make_wp()
    f = 0.5 * wp.hp_cutoff
    t = np.arange(8000) / wp.sampling_rate
    x = np.cos(2 * np.pi * f * t)
    y = highpass(x, wp)
    mid = slice(2000, 6000)
    gain = np.std(y[mid]) / np.std(x[mid])
    expected = _squared_butterworth_gain(f, wp.hp_cutoff)
    assert 20 * np.log10(gain) <= -20.0
    assert gain == pytest.approx(expected, rel=0.3)


def _squared_butterworth_gain(f, cutoff):
    """Oracle: amplitude response of an order-2 Butterworth high-pass run forward-backward."""
    ratio4 = (f / cutoff) ** 4
    return ratio4 / (1.0 + ratio4)


@pytest.mark.parametrize("multiple", [0.5, 1.0, 2.0, 4.0])
def test_highpass_gain_matches_squared_butterworth(multiple):
    wp = make_wp()
    f = multiple * wp.hp_cutoff
    t = np.arange(40_000) / wp.sampling_rate
    x = np.cos(2 * np.pi * f * t)
    y = highpass(x, wp)
    # The middle half holds a whole number of periods of every tone and
    # none of the filter's edge transients.
    mid = slice(10_000, 30_000)
    gain = np.std(y[mid]) / np.std(x[mid])
    assert gain == pytest.approx(_squared_butterworth_gain(f, wp.hp_cutoff), rel=1e-3)


def test_highpass_removes_dc():
    wp = make_wp()
    y = highpass(np.full(2000, 3.7), wp)
    assert abs(np.mean(y[500:1500])) < 1e-3


def test_highpass_disabled_at_zero_cutoff():
    wp = make_wp(hp_cutoff=0.0)
    x = np.random.default_rng(0).normal(size=500)
    np.testing.assert_array_equal(highpass(x, wp), x)


@pytest.mark.parametrize(
    "cutoff, shape",
    [(10e3, (5,)), (10e3, (500,)), (10e3, (40_000,)), (10e3, (3, 500)), (100e3, (3, 500))],
    ids=["5", "500", "40000", "3x500", "3x500-100kHz"],
)
def test_highpass_matches_scipy_sosfiltfilt(cutoff, shape):
    # Oracle: scipy's zero-phase second-order-sections filter, a test-only dependency.
    signal = pytest.importorskip("scipy.signal")
    wp = make_wp(hp_cutoff=cutoff)
    x = np.random.default_rng(shape[-1]).normal(size=shape)
    sos = signal.butter(2, cutoff, "highpass", fs=wp.sampling_rate, output="sos")
    expected = signal.sosfiltfilt(sos, x, padlen=min(27, shape[-1] - 1))
    np.testing.assert_allclose(highpass(x, wp), expected, rtol=0,
                               atol=1e-11 * np.max(np.abs(expected)))


@given(
    cutoff=st.one_of(st.just(0.0), st.floats(1e3, 5e5)),
    n=st.integers(1, 600),
)
@settings(max_examples=25, deadline=None)
def test_highpass_matrix_applies_highpass(cutoff, n):
    wp = make_wp(hp_cutoff=cutoff, ramp_duration=n / 2e6)
    assert wp.samples_per_ramp == n
    x = np.random.default_rng(n).normal(size=(4, n))
    expected = highpass(x, wp)
    # Both round differently; near a low cutoff the recursion's state is large.
    np.testing.assert_allclose(_highpass_matrix(wp) @ x.T, expected.T, rtol=0,
                               atol=1e-11 * np.max(np.abs(expected)))


def test_frame_export_round_trip(tmp_path):
    wp = make_wp()
    gt = GroundTruth(0.03, 0.02)
    cycles = [synthesize_cycle(wp, gt, 1.0, 0.1, seed=5, cycle_index=k) for k in range(3)]
    stem = tmp_path / "frames"
    write_frames(stem, cycles, wp)
    rows = list(read_frames(stem, wp, 0))
    assert len(rows) == 3
    for original, restored in zip(cycles, rows):
        assert restored.shape == (wp.samples_per_cycle,)
        assert restored.dtype == np.dtype("<f4")
        assert not restored.flags.writeable
        assert original.tobytes() == restored.tobytes()
    sidecar = json.loads((tmp_path / "frames.json").read_text())
    assert sidecar == {"format_version": 2, "working_point": wp.to_dict(), "cycles": 3}


@pytest.mark.parametrize(
    "rows",
    [np.zeros((2, 1999)), np.zeros((2, 2001)), np.zeros(2000), [np.zeros(2000), np.zeros(1999)]],
    ids=["short-rows", "long-rows", "one-row", "ragged-rows"],
)
def test_write_frames_refuses_other_row_lengths(tmp_path, rows):
    with pytest.raises(FramingError, match="expected cycles of 2000 samples"):
        write_frames(tmp_path / "frames", rows, make_wp())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_write_frames_refuses_non_finite_samples(tmp_path, value):
    # A file its own reader refuses is no valid export.
    wp = make_wp()
    cycles = np.zeros((4, wp.samples_per_cycle))
    cycles[2, 3 * wp.samples_per_ramp + 7] = value
    with pytest.raises(FramingError, match="frames.f32 has a non-finite sample in cycle 2, ramp 3"):
        write_frames(tmp_path / "frames", cycles, wp)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [1e300, -1e39])
def test_write_frames_refuses_samples_beyond_float32(tmp_path, value):
    # The float32 cast would make them infinite: no file its reader refuses.
    wp = make_wp()
    cycles = np.zeros((4, wp.samples_per_cycle))
    cycles[2, 3 * wp.samples_per_ramp + 7] = value
    # Samples of exactly the float32 limit, before it, are in range: not the one named.
    limit = float(np.finfo(np.float32).max)
    cycles[1, 5], cycles[2, 6] = -limit, limit
    with pytest.raises(FramingError,
                       match="frames.f32 has a sample beyond the float32 range in cycle 2, ramp 3"):
        write_frames(tmp_path / "frames", cycles, wp)
    assert list(tmp_path.iterdir()) == []


def test_write_frames_refuses_non_finite_sample_in_a_later_block(tmp_path):
    # Blocks are checked as they are drawn; the error names the cycle of the
    # whole export, and the blocks already written leave no file behind.
    wp = make_wp()
    bad = STREAM_BLOCK + 3

    def rows():
        for k in range(2 * STREAM_BLOCK):
            row = np.zeros(wp.samples_per_cycle)
            if k == bad:
                row[wp.samples_per_ramp + 1] = math.inf
            yield row

    with pytest.raises(FramingError, match=f"non-finite sample in cycle {bad}, ramp 1"):
        write_frames(tmp_path / "frames", rows(), wp)
    assert list(tmp_path.iterdir()) == []


def test_read_frames_refuses_a_raw_file_cut_after_it_was_opened(tmp_path):
    # The length is checked when the export is opened and the samples read
    # later; a file cut in between ends in the package's error, not numpy's.
    wp = make_wp()
    stem = tmp_path / "frames"
    write_frames(stem, np.zeros((STREAM_BLOCK + 1, wp.samples_per_cycle)), wp)
    rows = read_frames(stem, wp, 0)
    raw = tmp_path / "frames.f32"
    raw.write_bytes(raw.read_bytes()[: 4 * wp.samples_per_cycle * STREAM_BLOCK])
    assert len([next(rows) for _ in range(STREAM_BLOCK)]) == STREAM_BLOCK
    with pytest.raises(FramingError, match="frames.f32 ended before the cycles its sidecar"):
        next(rows)


def test_read_frames_checks_each_block_when_it_is_reached(tmp_path):
    # Length and sidecar are checked when the file is opened; a bad sample
    # only when its block is read, after the cycles of earlier blocks.
    wp = make_wp()
    stem = tmp_path / "frames"
    cycles = np.zeros((2 * STREAM_BLOCK + 5, wp.samples_per_cycle), dtype="<f4")
    write_frames(stem, cycles, wp)
    raw = tmp_path / "frames.f32"
    samples = np.fromfile(raw, dtype="<f4")
    bad = STREAM_BLOCK + 3
    samples[bad * wp.samples_per_cycle + 2 * wp.samples_per_ramp] = math.nan
    samples.tofile(raw)
    rows = read_frames(stem, wp, 0)
    drawn = 0
    with pytest.raises(FramingError, match=f"non-finite sample in cycle {bad}, ramp 2"):
        for _ in rows:
            drawn += 1
    assert drawn == STREAM_BLOCK


@given(skip=st.integers(1, make_wp().samples_per_cycle - 1),
       n_cycles=st.integers(0, 2 * STREAM_BLOCK + 5))
@example(skip=1, n_cycles=STREAM_BLOCK)
@example(skip=40, n_cycles=STREAM_BLOCK + 1)
@example(skip=1999, n_cycles=2 * STREAM_BLOCK + 5)
@settings(max_examples=25, deadline=None)
def test_read_frames_skips_the_sync_offset_and_the_partial_cycle_it_leaves(tmp_path_factory,
                                                                           skip, n_cycles):
    # A capture whose first whole cycle starts skip samples in, replayed from there,
    # gives the aligned cycles byte for byte, and not the partial cycle at its end.
    wp = make_wp()
    aligned = np.random.default_rng(n_cycles).normal(size=(n_cycles + 1, wp.samples_per_cycle))
    aligned = aligned.astype("<f4")
    stem = tmp_path_factory.mktemp("offset") / "frames"
    write_offset_export(stem, wp, aligned, skip)
    rows = [row.tobytes() for row in read_frames(stem, wp, skip)]
    assert rows == [cycle.tobytes() for cycle in aligned[:n_cycles]]


@pytest.mark.parametrize(
    "index, cycle, ramp",
    [(40 + 499, 0, 0), (40 + 1999, 0, 3), (40 + 2000 + 1000, 1, 2)],
    ids=["file-ramp-1", "file-cycle-1", "second-cycle"],
)
def test_read_frames_counts_cycles_and_ramps_from_the_first_whole_cycle(tmp_path, index, cycle,
                                                                        ramp):
    # At sync offset 40, file sample 539 is in ramp 1 of the file's first row but in
    # ramp 0 of the replay's cycle 0, and the error names the replay's.
    wp = make_wp()
    stem = tmp_path / "frames"
    write_frames(stem, np.zeros((3, wp.samples_per_cycle)), wp)
    poke_raw(tmp_path / "frames.f32", index, math.nan)
    with pytest.raises(FramingError,
                       match=f"frames.f32 has a non-finite sample in cycle {cycle}, ramp {ramp}"):
        list(read_frames(stem, wp, 40))


@pytest.mark.parametrize(
    "skip, message",
    [(-1, r"must be in \[0, 2000\), got -1"), (2.5, "must be an integer, got 2.5"),
     (2000, r"must be in \[0, 2000\), got 2000")],
    ids=["negative", "fractional", "one-cycle"],
)
def test_read_frames_refuses_a_skip_that_is_not_a_sample_of_one_cycle(tmp_path, skip, message):
    # The caller's argument is refused at the call, not blamed on the file or
    # left to the seek at the first draw.
    wp = make_wp()
    stem = tmp_path / "frames"
    write_frames(stem, np.zeros((3, wp.samples_per_cycle)), wp)
    with pytest.raises(ParameterError, match="sync_offset_samples " + message):
        read_frames(stem, wp, skip)


@pytest.mark.parametrize(
    "delta", [-8, 8, 4 * make_wp().samples_per_cycle],
    ids=["8-bytes-short", "8-bytes-long", "one-cycle-long"],
)
def test_frame_file_length_mismatch_rejected(tmp_path, delta):
    wp = make_wp()
    samples = synthesize_cycle(wp, GroundTruth(0.03, 0.0), 1.0, 0.0, seed=5, cycle_index=0)
    stem = tmp_path / "frames"
    write_frames(stem, [samples], wp)
    raw_path = tmp_path / "frames.f32"
    raw = raw_path.read_bytes()
    raw_path.write_bytes(raw[:delta] if delta < 0 else raw + bytes(delta))
    with pytest.raises(FramingError, match="frames.f32 has .* bytes, not the 1 cycles its sidecar declares"):
        read_frames(stem, wp, 0)
