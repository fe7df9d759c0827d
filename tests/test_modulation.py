from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfisensor import (GroundTruth, NoiseModelCoefficients, ParameterError, WorkingPoint,
                       ramp_slopes)
from lfisensor.modulation import open_atomic, save_working_point, write_atomic
from lfisensor.pipeline import read_config_file

from conftest import make_wp

working_points = st.builds(
    WorkingPoint,
    ramp_duration=st.floats(1e-6, 1e-2),
    steep_slope=st.floats(1e10, 1e16),
    ratio_rt=st.floats(0.01, 0.99),
    sampling_rate=st.just(2e6),
)


def test_ramp_slopes_pattern():
    wp = WorkingPoint(ramp_duration=1.0, steep_slope=1.0, ratio_rt=0.25,
                      sampling_rate=16.0)
    assert ramp_slopes(wp) == (1.0, -1.0, 0.25, -0.25)


def test_paper_ratio_values_admitted():
    for rt in (0.25, 0.5):
        assert make_wp(ratio_rt=rt).ratio_rt == rt


def test_measurement_rate_1khz_for_1ms_cycle():
    wp = make_wp()  # 4 x 0.25 ms ramps
    assert wp.cycle_duration == pytest.approx(1e-3)


@given(working_points)
@settings(max_examples=50, deadline=None)
def test_cycle_slopes_distinct_and_balanced(wp):
    slopes = ramp_slopes(wp)
    assert len(set(slopes)) == 4
    # Closed cycle: every ramp lasts ramp_duration, and the signed slopes
    # times that duration sum to zero exactly.
    assert sum(slope * wp.ramp_duration for slope in slopes) == 0.0


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


@pytest.mark.parametrize("steep_slope, ratio_rt", [(5e-324, 0.9), (5e-324, 0.4), (1e-323, 0.75)],
                         ids=["shallow-rounds-to-steep", "shallow-rounds-to-zero", "ties-to-even"])
def test_coinciding_ramp_slopes_are_refused(steep_slope, ratio_rt):
    # Among subnormals rt * S can round to S, or to 0 (and -rt * S to -0, equal
    # to it): two ramps with one slope cannot be solved as a pair.
    with pytest.raises(ParameterError, match="the four ramp slopes must differ, got"):
        make_wp(steep_slope=steep_slope, ratio_rt=ratio_rt)


def test_a_slope_difference_that_underflows_times_the_emitted_frequency_is_refused():
    # The four slopes differ, but 1e-10 Hz times any difference of them is 0:
    # the solver's velocity of every ramp pair would divide by zero.
    with pytest.raises(ParameterError, match="ramps 0 and 1 cannot be solved as a pair: "
                       "emitted_frequency 1e-10 times their slope difference 2e-323 "
                       "underflows to 0"):
        make_wp(steep_slope=1e-323, ratio_rt=0.6, emitted_frequency=1e-10, hp_cutoff=0.0)


def test_distinct_subnormal_ramp_slopes_are_admitted():
    assert ramp_slopes(make_wp(steep_slope=1e-323, ratio_rt=0.6)) == (1e-323, -1e-323, 5e-324,
                                                                     -5e-324)


def test_one_sample_per_ramp_is_admitted():
    assert make_wp(ramp_duration=0.5e-6).samples_per_ramp == 1


def test_working_point_config_round_trip(tmp_path):
    wp = make_wp(hp_cutoff=12.5e3)
    path = tmp_path / "wp.cfg"
    save_working_point(wp, path)
    assert read_config_file(path)[0] == wp


def test_unknown_config_key_rejected(tmp_path):
    wp = make_wp()
    path = tmp_path / "wp.cfg"
    save_working_point(wp, path)
    path.write_text(path.read_text() + "rampp_duration_s = 1.0\n")
    with pytest.raises(ParameterError, match="unknown"):
        read_config_file(path)


def test_missing_config_key_rejected(tmp_path):
    path = tmp_path / "wp.cfg"
    path.write_text("ramp_duration_s = 1e-3\n")
    with pytest.raises(ParameterError, match="missing"):
        read_config_file(path)


def test_duplicate_config_key_rejected(tmp_path):
    path = tmp_path / "wp.cfg"
    path.write_text("ratio_rt = 0.5\nratio_rt = 0.25\n")
    with pytest.raises(ParameterError, match="duplicate"):
        read_config_file(path)


@pytest.mark.parametrize(
    "value", [True, "2e6", None, [2e6]], ids=["bool", "string", "null", "list"]
)
def test_json_working_point_refuses_a_value_that_is_not_a_number(value):
    values = {**make_wp().to_dict(), "sampling_rate_hz": value}
    with pytest.raises(ParameterError, match="sampling_rate_hz"):
        WorkingPoint.from_dict(values)
    # An int is a number; a flat config's strings are parsed.
    assert WorkingPoint.from_dict({**values, "sampling_rate_hz": 2000000}) == make_wp()
    text = {key: repr(v) for key, v in make_wp().to_dict().items()}
    assert WorkingPoint.from_dict({**text, "sampling_rate_hz": "2e6"}, text=True) == make_wp()


@pytest.mark.parametrize(
    "line, needle",
    [("ramp_duration_s = inf", "ramp_duration must be finite"),
     ("emitted_frequency_hz = nan", "emitted_frequency must be finite"),
     ("ramp_duration_s = 1e300", "more samples than a float can count")],
    ids=["inf-ramp", "nan-frequency", "huge-ramp"],
)
def test_config_refuses_a_working_point_that_is_not_finite(tmp_path, line, needle):
    path = tmp_path / "wp.cfg"
    save_working_point(make_wp(sampling_rate=1e300), path)
    key = line.split()[0]
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith(key)]
    path.write_text("\n".join([*lines, line]) + "\n")
    with pytest.raises(ParameterError, match=needle):
        read_config_file(path)


_MODEL = NoiseModelCoefficients(0.35, -0.6, 0.22, 0.4, 0.55, -3.2, 0.0)


@pytest.mark.parametrize(
    "build, name",
    [(lambda: WorkingPoint("a", 1e14, 0.5, 2e6), "ramp_duration"),
     (lambda: replace(make_wp(), hp_cutoff=False), "hp_cutoff"),
     (lambda: GroundTruth("a", 0.0), "distance_R"),
     (lambda: GroundTruth(0.05, True), "velocity_v"),
     (lambda: replace(_MODEL, a1="a"), "a1"),
     (lambda: replace(_MODEL, b=None), "b"),
     (lambda: replace(_MODEL, fit_residual=True), "fit_residual")],
    ids=["wp-string", "wp-bool", "truth-string", "truth-bool", "model-string", "model-none",
         "model-bool-residual"],
)
def test_value_types_refuse_a_field_that_is_not_a_real_number(build, name):
    # Each once ended in a raw TypeError, or (a bool) was taken for 0 or 1.
    with pytest.raises(ParameterError, match=name):
        build()


def test_open_atomic_keeps_the_old_file_when_the_block_fails(tmp_path):
    # Bytes written before the failure land in a temporary file, which is
    # removed; the old file stays as it was.
    path = tmp_path / "out.txt"
    write_atomic(path, "old\n")
    with pytest.raises(RuntimeError, match="stop"):
        with open_atomic(path) as fh:
            fh.write(b"partial")
            raise RuntimeError("stop")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    with open_atomic(path) as fh:
        fh.write(b"new ")
        fh.write(b"bytes")
    assert path.read_bytes() == b"new bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
