import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfisensor import ParameterError, WorkingPoint, build_cycle, modulation_waveform
from lfisensor.modulation import frequency_offset, load_working_point, save_working_point

from conftest import make_wp

working_points = st.builds(
    WorkingPoint,
    ramp_duration=st.floats(1e-6, 1e-2),
    steep_slope=st.floats(1e10, 1e16),
    ratio_rt=st.floats(0.01, 0.99),
    sampling_rate=st.just(2e6),
)


def test_build_cycle_pattern():
    wp = WorkingPoint(ramp_duration=1.0, steep_slope=1.0, ratio_rt=0.25,
                      sampling_rate=16.0)
    ramps = build_cycle(wp)
    assert [r.slope for r in ramps] == [1.0, -1.0, 0.25, -0.25]
    assert [r.start_time for r in ramps] == [0.0, 1.0, 2.0, 3.0]
    assert all(r.duration == 1.0 for r in ramps)
    assert [r.index for r in ramps] == [0, 1, 2, 3]


def test_paper_ratio_values_admitted():
    for rt in (0.25, 0.5):
        assert make_wp(ratio_rt=rt).ratio_rt == rt


def test_measurement_rate_1khz_for_1ms_cycle():
    wp = make_wp()  # 4 x 0.25 ms ramps
    assert wp.cycle_duration == pytest.approx(1e-3)
    assert wp.measurement_rate == pytest.approx(1000.0)


def test_build_cycle_deterministic():
    assert build_cycle(make_wp()) == build_cycle(make_wp())


@given(working_points)
@settings(max_examples=50, deadline=None)
def test_cycle_slopes_distinct_and_balanced(wp):
    ramps = build_cycle(wp)
    slopes = [r.slope for r in ramps]
    assert len(set(slopes)) == 4
    # Closed cycle: signed slope * duration sums to zero exactly.
    assert sum(r.slope * r.duration for r in ramps) == 0.0


@pytest.mark.parametrize(
    "overrides, name",
    [
        (dict(ramp_duration=0.0), "ramp_duration"),
        (dict(ramp_duration=-1e-3), "ramp_duration"),
        (dict(steep_slope=0.0), "steep_slope"),
        (dict(ratio_rt=0.0), "ratio_rt"),
        (dict(ratio_rt=1.0), "ratio_rt"),
        (dict(ratio_rt=1.5), "ratio_rt"),
        (dict(hp_cutoff=-1.0), "hp_cutoff"),
        (dict(emitted_frequency=0.0), "emitted_frequency"),
        (dict(sampling_rate=0.0), "sampling_rate"),
        (dict(sampling_rate=15e3, hp_cutoff=10e3), "sampling_rate"),
        (dict(ramp_duration=1e-7), "ramp_duration"),  # a fifth of a sample
    ],
)
def test_invalid_working_point_names_invariant(overrides, name):
    with pytest.raises(ParameterError, match=name):
        make_wp(**overrides)


def test_one_sample_per_ramp_is_admitted():
    assert make_wp(ramp_duration=0.5e-6).samples_per_ramp == 1


def test_waveform_closed_cycle():
    wp = make_wp()
    assert frequency_offset(wp, 0.0) == 0.0
    assert frequency_offset(wp, wp.cycle_duration) == pytest.approx(0.0, abs=1e-3)


def test_waveform_triangle_peaks():
    wp = make_wp(ratio_rt=0.5)
    steep_peak = wp.steep_slope * wp.ramp_duration
    assert frequency_offset(wp, wp.ramp_duration) == pytest.approx(steep_peak)
    shallow_peak = frequency_offset(wp, 3 * wp.ramp_duration)
    assert shallow_peak == pytest.approx(0.5 * steep_peak)


def test_waveform_continuous_at_ramp_boundaries():
    wp = make_wp()
    eps = 1e-12
    for k in range(1, 4):
        t = k * wp.ramp_duration
        left = frequency_offset(wp, t - eps)
        right = frequency_offset(wp, t + eps)
        assert left == pytest.approx(right, abs=wp.steep_slope * 1e-11)


def test_modulation_waveform_samples_the_offset():
    wp = make_wp()
    n = 64
    waveform = modulation_waveform(wp, n)
    t = np.arange(n) * wp.cycle_duration / n
    np.testing.assert_allclose(waveform, frequency_offset(wp, t))
    assert waveform.shape == (n,)


def test_modulation_waveform_too_few_samples():
    with pytest.raises(ParameterError, match="n_samples"):
        modulation_waveform(make_wp(), 15)


def test_working_point_config_round_trip(tmp_path):
    wp = make_wp(hp_cutoff=12.5e3)
    path = tmp_path / "wp.cfg"
    save_working_point(wp, path)
    assert load_working_point(path) == wp


def test_unknown_config_key_rejected(tmp_path):
    wp = make_wp()
    path = tmp_path / "wp.cfg"
    save_working_point(wp, path)
    path.write_text(path.read_text() + "rampp_duration_s = 1.0\n")
    with pytest.raises(ParameterError, match="unknown"):
        load_working_point(path)


def test_missing_config_key_rejected(tmp_path):
    path = tmp_path / "wp.cfg"
    path.write_text("ramp_duration_s = 1e-3\n")
    with pytest.raises(ParameterError, match="missing"):
        load_working_point(path)


def test_duplicate_config_key_rejected(tmp_path):
    path = tmp_path / "wp.cfg"
    path.write_text("ratio_rt = 0.5\nratio_rt = 0.25\n")
    with pytest.raises(ParameterError, match="duplicate"):
        load_working_point(path)
