import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lfisensor
from lfisensor import (Calibration, CalibrationError, FramingError, GroundTruth,
                       NoiseModelCoefficients, ParameterError, PipelineConfig, blind_map,
                       min_reliable_distance, synthetic_cycles, write_frames)
from lfisensor.cli import _CSV_HEADER, _build_parser, main
from lfisensor.modulation import WORKING_POINT_KEYS, save_working_point
from lfisensor.simulator import STREAM_BLOCK
from lfisensor.errors import MAX_WORK_BYTES
from lfisensor.spectral import MIN_CALIBRATION_CYCLES

from conftest import make_wp, write_offset_export
from test_analysis import (OBSERVATION_FIELDS, TRUE_COEFFS, _synthetic_observations,
                           write_observations_csv)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "sensor.cfg"
    save_working_point(make_wp(), path)
    return path


def _calibrate(config_path, tmp_path, cycles=20, noise="0.0", seed="11"):
    cal = tmp_path / "cal.json"
    rc = main(
        [
            "calibrate",
            "--config", str(config_path),
            "--out", str(cal),
            "--cycles", str(cycles),
            "--noise-sigma", noise,
            "--seed", seed,
        ]
    )
    assert rc == 0
    return cal


def test_synth_calibrate_process_round(config_path, tmp_path, capsys):
    cal = _calibrate(config_path, tmp_path)
    out = tmp_path / "run.csv"
    rc = main(
        [
            "process",
            "--config", str(config_path),
            "--calibration", str(cal),
            "--out", str(out),
            "--cycles", "5",
            "--distance", "0.04",
            "--velocity", "0.02",
            "--seed", "3",
        ]
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:8] == [
        "cycle", "t_s", "R_m", "v_mps", "sigma_R_m", "sigma_v_mps", "status", "spread",
    ]
    assert len(lines) == 6  # header + one row per cycle
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[6] in {"ok", "degraded", "invalid", "warmup"} for row in rows)
    assert all(abs(float(row[2]) - 0.04) < 0.005 * 0.04 for row in rows)
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["command"] == "process"
    assert manifest["version"]
    capsys.readouterr()


def test_process_replay_reproduces_synthetic_run(config_path, tmp_path, capsys):
    cal = _calibrate(config_path, tmp_path)
    stem = tmp_path / "frames"
    rc = main(
        [
            "synth",
            "--config", str(config_path),
            "--out", str(stem),
            "--cycles", "4",
            "--distance", "0.05",
            "--velocity", "-0.03",
            "--noise-sigma", "0.2",
            "--seed", "7",
        ]
    )
    assert rc == 0
    synthetic_out = tmp_path / "direct.csv"
    replay_out = tmp_path / "replayed.csv"
    rc = main(
        [
            "process",
            "--config", str(config_path),
            "--calibration", str(cal),
            "--out", str(synthetic_out),
            "--cycles", "4",
            "--distance", "0.05",
            "--velocity", "-0.03",
            "--noise-sigma", "0.2",
            "--seed", "7",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "process",
            "--config", str(config_path),
            "--calibration", str(cal),
            "--out", str(replay_out),
            "--input", str(stem),
        ]
    )
    assert rc == 0
    assert replay_out.read_bytes() == synthetic_out.read_bytes()
    capsys.readouterr()


def test_calibrate_too_few_cycles_fails(config_path, tmp_path, capsys):
    rc = main(
        [
            "calibrate",
            "--config", str(config_path),
            "--out", str(tmp_path / "cal.json"),
            "--cycles", "2",
        ]
    )
    assert rc == 1
    assert "16" in capsys.readouterr().err


def test_calibrate_rerun_identical(config_path, tmp_path, capsys):
    a = _calibrate(config_path, tmp_path, noise="0.3")
    first = a.read_bytes()
    b = _calibrate(config_path, tmp_path, noise="0.3")
    assert b.read_bytes() == first
    capsys.readouterr()


def test_mindist_zero_cutoff(tmp_path, capsys):
    config = tmp_path / "open.cfg"
    save_working_point(make_wp(hp_cutoff=0.0), config)
    out = tmp_path / "mindist.json"
    rc = main(["mindist", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["min_reliable_distance_m"] == 0.0
    assert "0.000 mm" in capsys.readouterr().out


def test_mindist_reports_millimeters(config_path, tmp_path, capsys):
    out = tmp_path / "mindist.json"
    rc = main(["mindist", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    value = json.loads(out.read_text())["min_reliable_distance_m"]
    assert 0.005 <= value <= 0.02
    assert "minimum reliable distance" in capsys.readouterr().out


def test_mindist_reports_a_bound_beyond_a_tenth_of_a_meter(tmp_path, capsys):
    # Near-equal slope magnitudes and a wide velocity range put the bound far
    # out; it is reported, not refused.
    wp = make_wp(ratio_rt=0.98)
    config = tmp_path / "close.cfg"
    save_working_point(wp, config)
    out = tmp_path / "mindist.json"
    assert main(["mindist", "--config", str(config), "--out", str(out), "--v-max", "10"]) == 0
    value = json.loads(out.read_text())["min_reliable_distance_m"]
    assert value == min_reliable_distance(wp, 10.0) and value > 0.1
    manifest = json.loads((tmp_path / "mindist.json.manifest.json").read_text())
    assert manifest["inputs"] == {"v_max_mps": 10.0}
    capsys.readouterr()


def test_mindist_writes_null_for_an_unbounded_distance(tmp_path, capsys):
    # Slopes this shallow put the bound past a float: strict JSON has no
    # Infinity, so the file holds null, as a JSONL record would.
    config = tmp_path / "flat.cfg"
    save_working_point(make_wp(steep_slope=1e-300), config)
    out = tmp_path / "mindist.json"
    assert main(["mindist", "--config", str(config), "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    assert json.loads(out.read_text(), parse_constant=refuse) == {
        "min_reliable_distance_m": None, "v_max_mps": 0.1}
    assert "minimum reliable distance: inf mm" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["mindist", "process"])
def test_coinciding_ramp_slopes_exit_nonzero(config_path, tmp_path, capsys, command):
    # 0.9 * 5e-324 rounds to 5e-324: the slopes are (S, -S, S, -S).  The config
    # is refused when it is read, not with a ZeroDivisionError (mindist) or a
    # DegeneratePairError at the first valid cycle (process).
    config = tmp_path / "coinciding.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in {
        **make_wp().to_dict(), "steep_slope_hz_per_s": 5e-324, "ratio_rt": 0.9}.items()))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path)), "--cycles", "2",
                 "--distance", "0.04"]
    err = _refused(argv, ParameterError, capsys)
    assert "the four ramp slopes must differ, got (5e-324, -5e-324, 5e-324, -5e-324)" in err


def test_a_slope_difference_that_underflows_exits_nonzero(config_path, tmp_path, capsys):
    # Distinct slopes whose differences times 1e-10 Hz are all 0: refused when
    # the config is read, not with a ZeroDivisionError at the first cycle.
    config = tmp_path / "underflow.cfg"
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in {
        **make_wp().to_dict(), "steep_slope_hz_per_s": 1e-323, "ratio_rt": 0.6,
        "emitted_frequency_hz": 1e-10, "hp_cutoff_hz": 0.0}.items()))
    argv = ["process", "--config", str(config), "--out", str(tmp_path / "out"),
            "--calibration", str(_calibrate(config_path, tmp_path)), "--cycles", "3",
            "--distance", "0.04", "--noise-sigma", "0.1"]
    err = _refused(argv, ParameterError, capsys)
    assert "ramps 0 and 1 cannot be solved as a pair" in err
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_synth_refuses_a_ramp_without_samples(tmp_path, capsys):
    # 0.1 us at 2 MHz is a fifth of a sample: no ramp frame to synthesize.
    config = tmp_path / "short.cfg"
    values = {**make_wp().to_dict(), "ramp_duration_s": 1e-7}
    config.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
    rc = main(["synth", "--config", str(config), "--out", str(tmp_path / "frames"),
               "--cycles", "2", "--distance", "0.04"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds no sample" in err


def test_blindmap_matches_library(config_path, tmp_path, capsys):
    out = tmp_path / "map.csv"
    rc = main(
        [
            "blindmap",
            "--config", str(config_path),
            "--out", str(out),
            "--v-min", "-0.1", "--v-max", "0.1",
            "--r-min", "0", "--r-max", "0.05",
            "--resolution", "11",
        ]
    )
    assert rc == 0
    bm = blind_map(make_wp(), (-0.1, 0.1), (0.0, 0.05), (11, 11))
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 11 * 11
    for idx, row in enumerate(rows):
        v, r, count = row.split(",")
        i, j = divmod(idx, 11)
        assert int(count) == bm.blind_count[i, j]
        assert float(v) == pytest.approx(bm.v_axis[j])
        assert float(r) == pytest.approx(bm.r_axis[i])
    grid = (tmp_path / "map.csv.grid.txt").read_text().strip().splitlines()
    assert len(grid) == 2 + 11
    np.testing.assert_array_equal(
        np.array([[int(c) for c in line.split()] for line in grid[2:]]),
        bm.blind_count,
    )
    capsys.readouterr()


@pytest.mark.parametrize("resolution", [5793, 100000])
def test_blindmap_refuses_a_grid_too_large_for_memory(config_path, tmp_path, capsys,
                                                      resolution):
    # --resolution 100000 used to end in numpy's "Unable to allocate 74.5 GiB";
    # 5793 is the least square grid past MAX_WORK_BYTES at 32 bytes a cell.
    assert main(["blindmap", "--config", str(config_path), "--out", str(tmp_path / "map.csv"),
                 "--resolution", str(resolution)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: resolution ({resolution}, {resolution}) needs "
                   f"{32 * resolution**2} bytes of blind-map grid, more than MAX_WORK_BYTES "
                   f"({MAX_WORK_BYTES})"]
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


def test_fitnoise_recovers_generator(tmp_path, capsys):
    rng = np.random.default_rng(42)
    observations = _synthetic_observations(TRUE_COEFFS, rng, n=40)
    obs_path = tmp_path / "observations.csv"
    write_observations_csv(observations, obs_path)
    out = tmp_path / "noise.json"
    rc = main(["fitnoise", "--observations", str(obs_path), "--out", str(out)])
    assert rc == 0
    fitted = NoiseModelCoefficients.from_dict(json.loads(out.read_text()))
    for name in ("a1", "a2", "a3", "a4", "a5", "b"):
        assert getattr(fitted, name) == pytest.approx(
            getattr(TRUE_COEFFS, name), abs=1e-8
        )
    capsys.readouterr()


def test_fitnoise_non_numeric_field_exits_nonzero(tmp_path, capsys):
    obs_path = tmp_path / "observations.csv"
    write_observations_csv(_synthetic_observations(TRUE_COEFFS, np.random.default_rng(1), n=3),
                           obs_path)
    lines = obs_path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",x"
    obs_path.write_text("\n".join(lines) + "\n")
    rc = main(["fitnoise", "--observations", str(obs_path), "--out", str(tmp_path / "n.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(obs_path) in err and "line 3" in err and "observed_sigma_fb" in err


@pytest.mark.parametrize("text", ["inf", "1e400"])
def test_fitnoise_infinite_field_exits_nonzero(tmp_path, capsys, text):
    # inf (and 1e400, which reads as inf) is refused when the row is read:
    # in the fit's design matrix it ends in numpy's LinAlgError.
    obs_path = tmp_path / "observations.csv"
    write_observations_csv(_synthetic_observations(TRUE_COEFFS, np.random.default_rng(1), n=20),
                           obs_path)
    lines = obs_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[OBSERVATION_FIELDS.index("beat_f_b")] = text
    lines[5] = ",".join(fields)
    obs_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "n.json"
    assert main(["fitnoise", "--observations", str(obs_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "beat_f_b must be finite and strictly positive" in err
    assert not out.exists()


@pytest.mark.parametrize("command, option, needle", [
    ("mindist", "--config", "config file"),
    ("fitnoise", "--observations", "observation CSV"),
])
def test_file_that_is_not_utf8_text_exits_nonzero(tmp_path, capsys, command, option, needle):
    # A frame export given where a text file belongs: float32 bytes are not UTF-8.
    frames = tmp_path / "frames.f32"
    frames.write_bytes(np.array([0.5, -1.0, 3.0e-5], dtype="<f4").tobytes())
    out = tmp_path / "out.json"
    assert main([command, option, str(frames), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {needle} {frames} is not UTF-8 text: ")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_process_with_no_records_writes_no_record_lines(config_path, tmp_path, capsys, fmt):
    cal = _calibrate(config_path, tmp_path)
    stem = tmp_path / "empty"
    assert main(["synth", "--config", str(config_path), "--out", str(stem),
                 "--cycles", "0", "--distance", "0.04"]) == 0
    out = tmp_path / f"run.{fmt}"
    assert main(["process", "--config", str(config_path), "--calibration", str(cal),
                 "--input", str(stem), "--format", fmt, "--out", str(out)]) == 0
    assert out.read_text() == (_CSV_HEADER + "\n" if fmt == "csv" else "")
    capsys.readouterr()


def test_process_jsonl_format(config_path, tmp_path, capsys):
    cal = _calibrate(config_path, tmp_path)
    out = tmp_path / "run.jsonl"
    rc = main(
        [
            "process",
            "--config", str(config_path),
            "--calibration", str(cal),
            "--out", str(out),
            "--format", "jsonl",
            "--cycles", "3",
            "--distance", "0.03",
            "--velocity", "0.0",
        ]
    )
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(records) == 3
    assert records[0]["status"] == "ok"
    assert math.isclose(records[0]["R_m"], 0.03, rel_tol=5e-3)
    assert len(records[0]["f_b_hz"]) == 4
    capsys.readouterr()


def test_process_with_noise_model_fills_sigmas(config_path, tmp_path, capsys):
    cal = _calibrate(config_path, tmp_path)
    nm_path = tmp_path / "noise.json"
    nm_path.write_text(
        json.dumps(
            NoiseModelCoefficients(0, 0, 0.5, 0, 0, -1.0, 0.0).to_dict()
        )
    )
    out = tmp_path / "run.csv"
    rc = main(
        [
            "process",
            "--config", str(config_path),
            "--calibration", str(cal),
            "--noise-model", str(nm_path),
            "--out", str(out),
            "--cycles", "2",
            "--distance", "0.04",
            "--velocity", "0.01",
        ]
    )
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    for row in rows:
        assert row[6] == "ok"
        assert float(row[4]) > 0 and math.isfinite(float(row[4]))
        assert float(row[5]) > 0 and math.isfinite(float(row[5]))
    capsys.readouterr()


@pytest.mark.parametrize("a1", [200.0, -200.0], ids=["overflow", "underflow"])
def test_process_with_a_noise_model_out_of_its_range_leaves_sigmas_nan(
    config_path, tmp_path, capsys, a1
):
    # 10**(a1 log10(4 kHz) + ...) overflows or rounds to 0: no traceback and
    # no zero sigma, but records whose sigmas are not a number.
    cal = _calibrate(config_path, tmp_path)
    nm_path = tmp_path / "noise.json"
    nm_path.write_text(json.dumps(NoiseModelCoefficients(a1, 0, 0.5, 0, 0, -1.0, 0.0).to_dict()))
    out = tmp_path / "run.csv"
    rc = main(["process", "--config", str(config_path), "--calibration", str(cal),
               "--noise-model", str(nm_path), "--out", str(out),
               "--cycles", "2", "--distance", "0.04", "--velocity", "0.01"])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[6] == "ok" and row[4:6] == ["nan", "nan"]
    assert "Traceback" not in capsys.readouterr().err


def test_process_calibration_mismatch_exits_nonzero(tmp_path, capsys):
    # Calibration taken at a different working point must be refused.
    coarse = tmp_path / "coarse.cfg"
    save_working_point(make_wp(sampling_rate=1e6), coarse)
    cal = tmp_path / "cal.json"
    assert main(["calibrate", "--config", str(coarse), "--out", str(cal),
                 "--cycles", "16"]) == 0
    fine = tmp_path / "fine.cfg"
    save_working_point(make_wp(), fine)
    rc = main(
        [
            "process",
            "--config", str(fine),
            "--calibration", str(cal),
            "--out", str(tmp_path / "run.csv"),
            "--cycles", "2",
            "--distance", "0.03",
            "--velocity", "0.0",
        ]
    )
    assert rc == 1
    assert f"error: calibration {cal} does not fit: " in capsys.readouterr().err


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    save_working_point(make_wp(), config)
    config.write_text(config.read_text() + "typo_key = 1\n")
    rc = main(["mindist", "--config", str(config), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "typo_key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["= 5", " =", "n_avg 4"],
                         ids=["no-key", "bare-equals", "no-equals"])
def test_a_config_line_that_is_not_key_equals_value_names_its_file_and_line(config_path, tmp_path,
                                                                           capsys, line):
    # "= 5" used to end in "unknown PipelineConfig keys: ['']", naming no file or line.
    lineno = len(config_path.read_text().splitlines()) + 1
    config_path.write_text(config_path.read_text() + line + "\n")
    assert main(["mindist", "--config", str(config_path), "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: {config_path}:{lineno}: expected 'key = value', got {line!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


@pytest.mark.parametrize(
    "line, key",
    [("n_avg = four", "n_avg"), ("ratio_rt = half", "ratio_rt")],
    ids=["n_avg-four", "ratio_rt-half"],
)
def test_malformed_config_value_exits_nonzero(tmp_path, capsys, line, key):
    config = tmp_path / "bad.cfg"
    save_working_point(make_wp(), config)
    lines = [ln for ln in config.read_text().splitlines() if not ln.startswith(key)]
    config.write_text("\n".join([*lines, line]) + "\n")
    rc = main(["mindist", "--config", str(config), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "text, needle",
    [
        (json.dumps({k: v for k, v in TRUE_COEFFS.to_dict().items() if k != "a2"}), "a2"),
        ("a1 = 0.3\n", "noise.json"),
        ("[0.35, -0.6]", "not a JSON object"),
        (json.dumps({**TRUE_COEFFS.to_dict(), "a1": True}), "a1: cannot read True"),
        (json.dumps({**TRUE_COEFFS.to_dict(), "a2": "-0.6"}), "a2: cannot read '-0.6'"),
        (json.dumps({**TRUE_COEFFS.to_dict(), "b": 10**400}), "b: cannot read"),
        (json.dumps({**TRUE_COEFFS.to_dict(), "comment": "fit"}), "unknown keys ['comment']"),
        ("[" * 5000 + "]" * 5000, "is not JSON"),
    ],
    ids=["missing-a2", "not-json", "not-an-object", "bool-a1", "string-a2", "huge-b", "extra-key",
         "deeply-nested"],
)
def test_malformed_noise_model_exits_nonzero(config_path, tmp_path, capsys, text, needle):
    cal = _calibrate(config_path, tmp_path)
    noise = tmp_path / "noise.json"
    noise.write_text(text)
    err = _refused(["process", "--config", str(config_path), "--calibration", str(cal),
                    "--noise-model", str(noise), "--out", str(tmp_path / "run.csv"),
                    "--cycles", "2", "--distance", "0.04"], ParameterError, capsys)
    assert err.startswith(f"error: noise model {noise} ") and needle in err


def test_every_command_writes_its_manifest(config_path, tmp_path, capsys):
    # main writes each manifest from what the command returns: the command's
    # name, the config (none for fitnoise), its input provenance and outputs.
    cfg, t = str(config_path), str(tmp_path)
    observations = tmp_path / "observations.csv"
    write_observations_csv(_synthetic_observations(TRUE_COEFFS, np.random.default_rng(42), n=40),
                           observations)
    synthetic = {"cycles": 20, "seed": 0, "noise_sigma": 0.0}
    runs = [
        (["synth", "--config", cfg, "--out", f"{t}/frames", "--cycles", "20",
          "--distance", "0.04"],
         {"synthetic": {**synthetic, "distance_m": 0.04, "velocity_mps": 0.0, "amplitude": 1.0}},
         [f"{t}/frames.f32", f"{t}/frames.json"]),
        (["calibrate", "--config", cfg, "--out", f"{t}/cal.json", "--cycles", "20"],
         {"synthetic": synthetic}, [f"{t}/cal.json"]),
        (["process", "--config", cfg, "--out", f"{t}/run.csv", "--calibration", f"{t}/cal.json",
          "--input", f"{t}/frames"],
         {"replay": f"{t}/frames", "calibration": f"{t}/cal.json"}, [f"{t}/run.csv"]),
        (["blindmap", "--config", cfg, "--out", f"{t}/map.csv", "--resolution", "5"],
         {"v_range_mps": [-0.1, 0.1], "r_range_m": [0.0, 0.05], "resolution": 5},
         [f"{t}/map.csv", f"{t}/map.csv.grid.txt"]),
        (["mindist", "--config", cfg, "--out", f"{t}/mindist.json", "--v-max", "0.2"],
         {"v_max_mps": 0.2}, [f"{t}/mindist.json"]),
        (["fitnoise", "--observations", str(observations), "--out", f"{t}/noise.json"],
         {"observations": str(observations), "count": 40}, [f"{t}/noise.json"]),
        (["process", "--config", cfg, "--out", f"{t}/run.jsonl", "--calibration", f"{t}/cal.json",
          "--input", f"{t}/frames", "--noise-model", f"{t}/noise.json", "--format", "jsonl"],
         {"replay": f"{t}/frames", "calibration": f"{t}/cal.json",
          "noise_model": f"{t}/noise.json"}, [f"{t}/run.jsonl"]),
    ]
    for argv, inputs, outputs in runs:
        assert main(argv) == 0
        out = argv[argv.index("--out") + 1]
        assert json.loads(Path(f"{out}.manifest.json").read_text()) == {
            "tool": "lfisensor", "version": lfisensor.__version__, "command": argv[0],
            "config": None if argv[0] == "fitnoise" else cfg, "inputs": inputs,
            "outputs": outputs}
    capsys.readouterr()


@pytest.mark.parametrize("command", ["process", "mindist"])
def test_a_manifest_that_cannot_be_written_leaves_no_output(config_path, tmp_path, capsys,
                                                            command):
    # The outputs are in place before main writes the manifest; when that
    # write fails they are removed, no summary is printed, and the error names
    # the manifest, not the randomly named temporary file beside it.
    out = tmp_path / f"bad.{'csv' if command == 'process' else 'json'}"
    argv = [command, "--config", str(config_path), "--out", str(out)]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path)), "--cycles", "2",
                 "--distance", "0.04"]
    Path(f"{out}.manifest.json").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}.manifest.json: ")
    assert ".tmp" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_stale_temporary_directory_does_not_block_output(config_path, tmp_path, capsys):
    # A leftover directory at the old fixed temporary name must not matter.
    cal = _calibrate(config_path, tmp_path)
    out = tmp_path / "run.csv"
    (tmp_path / "run.csv.tmp").mkdir()
    (tmp_path / "run.csv.manifest.json.tmp").mkdir()
    rc = main(["process", "--config", str(config_path), "--calibration", str(cal),
               "--out", str(out), "--cycles", "2", "--distance", "0.04"])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 3
    assert json.loads((tmp_path / "run.csv.manifest.json").read_text())["command"] == "process"
    # No temporary file is left behind, and the output has a plain file's mode.
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == [
        "run.csv.manifest.json.tmp", "run.csv.tmp",
    ]
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert out.stat().st_mode == plain.stat().st_mode
    capsys.readouterr()


def test_every_package_error_is_an_lfi_error():
    # The CLI catches LfiError: each error class must derive from it and
    # stay a ValueError for library callers.
    classes = [c for c in vars(lfisensor.errors).values()
               if isinstance(c, type) and issubclass(c, Exception)]
    assert len(classes) == 7
    for cls in classes:
        assert issubclass(cls, lfisensor.LfiError) and issubclass(cls, ValueError)


def test_missing_config_is_parser_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["mindist", "--out", str(tmp_path / "o.json")])
    assert excinfo.value.code == 2


_PARSER_REFUSES = "usage: lfisensor "  # argparse prints its usage, then "error: …", and exits 2
_REPLAY_REFUSES = "error: --input replays a frame file, so it takes no "


@pytest.mark.parametrize(
    "argv, needle",
    [
        # --format is read by process only.
        (["synth", "--config", "CFG", "--cycles", "2", "--format", "jsonl"], _PARSER_REFUSES),
        (["calibrate", "--config", "CFG", "--cycles", "16", "--format", "csv"], _PARSER_REFUSES),
        (["blindmap", "--config", "CFG", "--format", "jsonl"], _PARSER_REFUSES),
        (["mindist", "--config", "CFG", "--format", "jsonl"], _PARSER_REFUSES),
        (["fitnoise", "--observations", "OBS", "--format", "csv"], _PARSER_REFUSES),
        # --seed is read by the synthetic sources only.
        (["blindmap", "--config", "CFG", "--seed", "1"], _PARSER_REFUSES),
        (["mindist", "--config", "CFG", "--seed", "5"], _PARSER_REFUSES),
        (["fitnoise", "--observations", "OBS", "--seed", "1"], _PARSER_REFUSES),
        # synth never replays; fitnoise reads no config.
        (["synth", "--config", "CFG", "--cycles", "2", "--input", "FRAMES"], _PARSER_REFUSES),
        (["fitnoise", "--observations", "OBS", "--config", "CFG"], _PARSER_REFUSES),
        # The five commands that read --config require it.
        (["synth", "--cycles", "2"], _PARSER_REFUSES),
        (["calibrate", "--cycles", "16"], _PARSER_REFUSES),
        (["process", "--calibration", "CAL", "--input", "FRAMES"], _PARSER_REFUSES),
        (["blindmap"], _PARSER_REFUSES),
        (["mindist"], _PARSER_REFUSES),
        # A replay ignores every synthesis option, so it refuses them.
        *[(["process", "--config", "CFG", "--calibration", "CAL", "--input", "FRAMES",
            option, value], _REPLAY_REFUSES + option)
          for option, value in [("--cycles", "5"), ("--seed", "3"), ("--noise-sigma", "9"),
                                ("--distance", "0.1"), ("--velocity", "0.01"),
                                ("--amplitude", "2")]],
        *[(["calibrate", "--config", "CFG", "--input", "FRAMES", option, value],
           _REPLAY_REFUSES + option)
          for option, value in [("--cycles", "3"), ("--seed", "0"), ("--noise-sigma", "0.3")]],
    ],
    ids=["synth-format", "calibrate-format", "blindmap-format", "mindist-format",
         "fitnoise-format", "blindmap-seed", "mindist-seed", "fitnoise-seed", "synth-input",
         "fitnoise-config", "synth-no-config", "calibrate-no-config", "process-no-config",
         "blindmap-no-config", "mindist-no-config", "process-input-cycles", "process-input-seed",
         "process-input-noise-sigma", "process-input-distance", "process-input-velocity",
         "process-input-amplitude", "calibrate-input-cycles", "calibrate-input-seed",
         "calibrate-input-noise-sigma"],
)
def test_an_option_the_command_would_ignore_is_refused(replay_files, tmp_path, capsys, argv,
                                                        needle):
    # Each of these used to exit 0 with the option dropped; now argparse refuses
    # it (exit 2) or the command does (exit 1), and no file is written.
    tmp, config, cal, _, _ = replay_files
    observations = tmp / "observations.csv"
    write_observations_csv(_synthetic_observations(TRUE_COEFFS, np.random.default_rng(3)),
                           observations)
    paths = {"CFG": config, "CAL": cal, "FRAMES": tmp / "frames", "OBS": observations}
    argv = [str(paths.get(arg, arg)) for arg in argv] + ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    if needle == _PARSER_REFUSES:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    else:
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(needle) and "error: " in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, needle",
    [(["synth", "--config", "CFG"], "error: --cycles is required"),
     (["calibrate", "--config", "CFG"], "error: either --input or --cycles is required"),
     (["process", "--config", "CFG", "--calibration", "CAL"],
      "error: either --input or --cycles is required")],
    ids=["synth", "calibrate", "process"],
)
def test_a_command_given_no_cycle_source_is_refused(replay_files, tmp_path, capsys, argv,
                                                    needle):
    # synth has no --input, so it names --cycles alone; the commands that replay
    # name both.  Either way it exits 1 and writes no file.
    _, config, cal, _, _ = replay_files
    argv = [str({"CFG": config, "CAL": cal}.get(arg, arg)) for arg in argv]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(needle) and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, option, value, needle",
    [
        ("mindist", "--v-max", "nan", "v_max must be finite and > 0, got nan"),
        ("mindist", "--v-max", "inf", "v_max must be finite and > 0, got inf"),
        ("blindmap", "--r-max", "inf", "grid ranges must be finite"),
        ("blindmap", "--r-min", "nan", "grid ranges must be finite"),
        ("blindmap", "--v-min", "-inf", "grid ranges must be finite"),
        ("blindmap", "--v-max", "nan", "grid ranges must be finite"),
        ("blindmap", "--r-min", "-1", "distance range must start at >= 0 (negative R is the "
         "mirrored invalid solution), got (-1.0, 0.05)"),
    ],
    ids=["v-max-nan", "v-max-inf", "r-max-inf", "r-min-nan",
         "v-min-minus-inf", "v-max-nan-map", "r-min-negative"],
)
def test_non_finite_analysis_setting_exits_nonzero(config_path, tmp_path, capsys, command,
                                                   option, value, needle):
    # A NaN bound used to be ignored, and an infinite one to write NaN,
    # Infinity or inf into the output or its manifest; a negative distance
    # used to be mapped, though GroundTruth refuses it.
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            f"{option}={value}"]  # "=" keeps "-inf" from reading as an option
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


@pytest.mark.parametrize(
    "command, line, needle",
    [("process", "alpha = inf", "alpha must be finite and >= 0, got inf"),
     ("process", "interp_window = 2049",
      "interp_window must be odd, >= 3 and <= the 1024 bins of a row (fft_bins // 2)"),
     ("process", "n_avg = 1000000000000000",
      "n_avg (1000000000000000) needs 32768000000000000000 bytes of sliding-average ring"),
     ("calibrate", "fft_bins = 4611686018427387904",
      "fft_bins (4611686018427387904) needs 5902958103587056518144 bytes of FFT work")],
    ids=["alpha-inf", "interp_window-2049", "n_avg-1e15", "calibrate-fft_bins-2**62"],
)
def test_out_of_range_pipeline_setting_exits_nonzero(config_path, tmp_path, capsys, command,
                                                     line, needle):
    # An infinite alpha used to make every record invalid with no error, a
    # window wider than the spectrum to give records at the wrong distance, and
    # a ring or FFT too large for memory to end in numpy's "array is too big".
    cal = _calibrate(config_path, tmp_path)
    config_path.write_text(config_path.read_text() + line + "\n")
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"process": ["--calibration", str(cal), "--distance", "0.05"], "calibrate": []}
    assert main([command, "--config", str(config_path), "--cycles", "16", "--out", str(out),
                 *argv[command]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json", "cal.json.manifest.json",
                                                          config_path.name]


@pytest.mark.parametrize("command", ["synth", "calibrate", "process", "blindmap", "mindist"])
def test_every_command_refuses_the_pipeline_settings_process_refuses(config_path, tmp_path,
                                                                      capsys, command):
    # synth, calibrate, blindmap and mindist used to run on settings that
    # process refuses; the config reader now refuses them for every command.
    extra = {"synth": ["--cycles", "2"], "calibrate": ["--cycles", "16"],
             "process": ["--calibration", str(_calibrate(config_path, tmp_path)), "--cycles", "2"],
             "blindmap": ["--resolution", "3"], "mindist": []}[command]
    config_path.write_text(config_path.read_text() + "n_avg = 0\ninterp_method = bogus\n")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    err = _refused([command, "--config", str(config_path), "--out", str(tmp_path / "out"),
                    *extra], ParameterError, capsys)
    assert err == "error: n_avg must be >= 1, got 0\n"
    assert sorted(tmp_path.iterdir()) == before


def _offset_config(tmp_path, wp, offset):
    config = tmp_path / f"offset{offset}.cfg"
    save_working_point(wp, config)
    config.write_text(config.read_text() + f"sync_offset_samples = {offset}\n")
    return config


def _main_quietly(argv) -> int:
    with redirect_stdout(io.StringIO()):
        return main(argv)


_SKIPS = given(skip=st.integers(1, make_wp().samples_per_cycle - 1),
               n_cycles=st.integers(STREAM_BLOCK, 2 * STREAM_BLOCK + 5))


@_SKIPS
@example(skip=40, n_cycles=STREAM_BLOCK)
@example(skip=1999, n_cycles=STREAM_BLOCK + 1)
@settings(max_examples=5, deadline=None)
def test_calibrate_input_at_an_offset_equals_the_aligned_calibration(tmp_path_factory, skip,
                                                                     n_cycles):
    # calibrate --input skips the sync offset where the capture starts: its reference
    # is that of the aligned cycles at offset 0, bit for bit, and each file records
    # the offset it was made with.
    tmp, wp = tmp_path_factory.mktemp("offset"), make_wp()
    aligned = np.random.default_rng(skip).normal(0.0, 0.3, (n_cycles + 1, wp.samples_per_cycle))
    write_offset_export(tmp / "offset", wp, aligned.astype("<f4"), skip)
    write_frames(tmp / "aligned", aligned[:n_cycles].astype("<f4"), wp)
    for name, offset in (("offset", skip), ("aligned", 0)):
        assert _main_quietly(["calibrate", "--config", str(_offset_config(tmp, wp, offset)),
                              "--input", str(tmp / name), "--out", str(tmp / f"{name}.cal")]) == 0
    at_skip, at_0 = (Calibration.load(tmp / f"{name}.cal") for name in ("offset", "aligned"))
    assert (at_skip.sync_offset_samples, at_0.sync_offset_samples) == (skip, 0)
    assert at_skip == replace(at_0, sync_offset_samples=skip)


@_SKIPS
@example(skip=1, n_cycles=STREAM_BLOCK + 1)
@example(skip=777, n_cycles=2 * STREAM_BLOCK + 5)
@settings(max_examples=5, deadline=None)
def test_process_input_at_an_offset_writes_the_aligned_records(tmp_path_factory, skip,
                                                               n_cycles):
    # process --input at sync offset skip, with a calibration made at that offset,
    # writes the rows of the aligned cycles at offset 0, byte for byte.
    tmp, wp = tmp_path_factory.mktemp("offset"), make_wp()
    aligned = np.stack(list(synthetic_cycles(wp, GroundTruth(0.04, 0.02), 1.0, 0.3, seed=7,
                                             n_cycles=n_cycles + 1)))
    write_offset_export(tmp / "offset", wp, aligned, skip)
    write_frames(tmp / "aligned", aligned[:n_cycles], wp)
    for name, offset in (("offset", skip), ("aligned", 0)):
        config, cal = str(_offset_config(tmp, wp, offset)), str(tmp / f"{name}.cal")
        assert _main_quietly(["calibrate", "--config", config, "--cycles", "16",
                              "--noise-sigma", "0.3", "--out", cal]) == 0
        assert _main_quietly(["process", "--config", config, "--calibration", cal, "--input",
                              str(tmp / name), "--out", str(tmp / f"{name}.csv")]) == 0
    rows = (tmp / "offset.csv").read_bytes()
    assert rows == (tmp / "aligned.csv").read_bytes() and rows.count(b"\n") == n_cycles + 1


def test_calibrate_input_at_an_offset_needs_a_row_more(tmp_path, capsys):
    # The final partial cycle is dropped, so 16 rows at offset 40 are 15 cycles.
    wp = make_wp()
    write_frames(tmp_path / "frames", np.zeros((16, wp.samples_per_cycle)), wp)
    capsys.readouterr()
    assert main(["calibrate", "--config", str(_offset_config(tmp_path, wp, 40)),
                 "--input", str(tmp_path / "frames"), "--out", str(tmp_path / "cal.json")]) == 1
    assert capsys.readouterr().err == ("error: calibration needs >= 16 no-target cycles, "
                                       "got 15\n")
    assert not (tmp_path / "cal.json").exists()


def test_process_refuses_a_calibration_made_at_another_sync_offset(tmp_path, capsys):
    # A calibration is the reference of ramps framed from the offset it was made at;
    # frames cut at another offset hold other stretches of the sensor's ramps, so
    # process refuses the calibration instead of subtracting it.
    wp = make_wp()
    cal = tmp_path / "cal.json"
    assert main(["calibrate", "--config", str(_offset_config(tmp_path, wp, 0)),
                 "--cycles", "16", "--out", str(cal)]) == 0
    capsys.readouterr()
    out = tmp_path / "run.csv"
    assert main(["process", "--config", str(_offset_config(tmp_path, wp, 40)),
                 "--calibration", str(cal), "--cycles", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: calibration {cal} does not fit: calibration "
                                       "sync offset 0 samples != configured 40\n")
    assert not out.exists()


def test_calibrate_reports_its_count_in_cycles(config_path, tmp_path, capsys):
    # Calibration.n_cycles counts cycles; each holds four frames, one per ramp.
    capsys.readouterr()
    _calibrate(config_path, tmp_path, cycles=20)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["ramp 0", "ramp 1", "ramp 2", "ramp 3"]
    assert all(line.endswith(" (20 cycles)") for line in lines)


def test_end_to_end_determinism(tmp_path, monkeypatch, capsys):
    # Two identical seeded runs in sibling directories: byte-identical
    # outputs, manifests included (relative paths keep them comparable).
    wp = make_wp()

    def run(workdir):
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        save_working_point(wp, "sensor.cfg")
        assert main(["calibrate", "--config", "sensor.cfg", "--out", "cal.json",
                     "--cycles", "20", "--noise-sigma", "0.25", "--seed", "5"]) == 0
        assert main(["synth", "--config", "sensor.cfg", "--out", "frames",
                     "--cycles", "3", "--distance", "0.04", "--velocity", "0.01",
                     "--noise-sigma", "0.25", "--seed", "9"]) == 0
        assert main(["process", "--config", "sensor.cfg", "--calibration",
                     "cal.json", "--out", "run.csv", "--input", "frames"]) == 0
        return {
            name: (workdir / name).read_bytes()
            for name in (
                "cal.json",
                "frames.f32",
                "frames.json",
                "run.csv",
                "cal.json.manifest.json",
                "frames.manifest.json",
                "run.csv.manifest.json",
            )
        }

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
    capsys.readouterr()


def _refused(argv, error, capsys):
    """``main(argv)`` exits 1 with one ``error: `` line, which is returned, and the
    command itself raises ``error``, leaving ``--out`` unwritten."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    args = _build_parser().parse_args(argv)
    with pytest.raises(error):
        args.func(args)
    assert not Path(args.out).exists()
    return err


def _refuse_calibration(config_path, tmp_path, capsys, edit, needle):
    """``process`` with an edited calibration file ends in one error line naming it."""
    cal = _calibrate(config_path, tmp_path)
    payload = edit(json.loads(cal.read_text()))
    cal.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    err = _refused(["process", "--config", str(config_path), "--calibration", str(cal),
                    "--out", str(tmp_path / "run.csv"), "--cycles", "2", "--distance", "0.04"],
                   CalibrationError, capsys)
    assert err.startswith(f"error: calibration {cal} ") and needle in err


def _set_bin(key, ramp, value):
    """Calibration edit writing ``value`` into one bin of ramp ``ramp``'s ``key`` row."""
    def edit(payload):
        payload[key][ramp][100] = value
        return payload

    return edit


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda payload: "nope", "Expecting value"),
        (lambda payload: [payload], "not a JSON object"),
        (lambda payload: {"format_version": 2}, "has no key 'reference_mean'"),
        (lambda payload: {**payload, "cycles": None}, "malformed"),
        (lambda payload: {**payload, "format_version": 1}, "unsupported format version 1"),
        (lambda payload: {**payload, "reference_mean": [
            payload["reference_mean"][0][:-1], *payload["reference_mean"][1:]]}, "malformed"),
        # One bad bin would otherwise degrade (NaN) or invalidate (Inf) every cycle.
        (_set_bin("reference_sigma", 2, math.nan), "reference_sigma must be finite"),
        (_set_bin("reference_sigma", 0, math.inf), "reference_sigma must be finite"),
        (_set_bin("reference_mean", 3, -1e-3), "reference_mean must be finite and nonnegative"),
        # Counts would otherwise be truncated or read from a bool without a word.
        (lambda payload: {**payload, "cycles": 16.9}, "cycles: cannot read 16.9 as int"),
        (lambda payload: {**payload, "cycles": True}, "cycles: cannot read True as int"),
        # calibrate() never writes fewer cycles than it needs.
        (lambda payload: {**payload, "cycles": 15}, "cycles must be >= 16, got 15"),
        (lambda payload: {**payload, "samples_per_ramp": 500.9},
         "samples_per_ramp: cannot read 500.9 as int"),
        (lambda payload: {**payload, "sampling_rate_hz": "2e6"},
         "sampling_rate_hz: cannot read '2e6' as float"),
        # numpy reads "0" and false as 0.0, and a bin beyond a float overflows: a bin
        # holds a JSON number a float can take; a key the format lacks is refused too.
        (lambda payload: {**payload, "comment": "bench"}, "unknown keys ['comment']"),
        (_set_bin("reference_mean", 1, "0"), "a reference bin must be a number, not str"),
        (_set_bin("reference_sigma", 2, False), "a reference bin must be a number, not bool"),
        (_set_bin("reference_mean", 0, 10**400), "int too large to convert to float"),
        (lambda payload: {**payload, "sync_offset_samples": 2000},
         "sync_offset_samples must be in [0, 2000), got 2000"),
        # json.loads raises RecursionError, not ValueError, on arrays nested this deep.
        (lambda payload: "[" * 5000 + "]" * 5000, "is not JSON"),
    ],
    ids=["not-json", "not-an-object", "missing-key", "null-cycles", "version-1", "ragged", "nan",
         "inf", "negative", "fractional-cycles", "bool-cycles", "too-few-cycles",
         "fractional-samples", "string-rate",
         "extra-key", "string-bin", "bool-bin", "huge-bin",
         "offset-past-the-cycle", "deeply-nested"],
)
def test_malformed_calibration_exits_nonzero(config_path, tmp_path, capsys, edit, needle):
    _refuse_calibration(config_path, tmp_path, capsys, edit, needle)


@pytest.mark.parametrize(
    "key, rows",
    [("reference_mean", [0, 1, 2]), ("reference_sigma", [0, 1, 2, 3, 3])],
    ids=["three", "five"],
)
def test_calibration_profiles_must_be_ramps_0_to_3(config_path, tmp_path, capsys, key, rows):
    # Row i is ramp i, so a calibration holds exactly four rows of each array.
    def edit(payload):
        payload[key] = [payload[key][i] for i in rows]
        return payload

    _refuse_calibration(config_path, tmp_path, capsys, edit, f"{key} must be 4 rows")


def _set_wp(sidecar, key, value):
    return {**sidecar, "working_point": {**sidecar["working_point"], key: value}}


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda sidecar: "nope", "is not JSON"),
        (lambda sidecar: {"format_version": 2}, "has no key 'working_point'"),
        (lambda sidecar: [], "not a JSON object"),
        (lambda sidecar: {**sidecar, "cycles": "many"}, "'cycles' must be a count"),
        (lambda sidecar: {**sidecar, "format_version": 1}, "unsupported format version 1"),
        (lambda sidecar: {**sidecar, "format_version": True}, "version True"),
        (lambda sidecar: _set_wp(sidecar, "sampling_rate_hz", "2e6"), "sampling_rate_hz"),
        (lambda sidecar: _set_wp(sidecar, "hp_cutoff_hz", False), "hp_cutoff_hz"),
        (lambda sidecar: _set_wp(sidecar, "ramp_duration_s", math.inf), "must be finite"),
        (lambda sidecar: {**sidecar, "comment": "replayed"}, "unknown keys ['comment']"),
        (lambda sidecar: "[" * 5000 + "]" * 5000, "is not JSON"),
    ],
    ids=["not-json", "no-working-point", "not-an-object", "many-cycles", "version-1",
         "bool-version", "string-rate", "bool-cutoff", "infinite-ramp", "extra-key",
         "deeply-nested"],
)
def test_frame_sidecar_not_json_exits_nonzero(config_path, tmp_path, capsys, edit, needle):
    cal = _calibrate(config_path, tmp_path)
    stem = tmp_path / "frames"
    assert main(["synth", "--config", str(config_path), "--out", str(stem),
                 "--cycles", "2", "--distance", "0.04"]) == 0
    sidecar = edit(json.loads((tmp_path / "frames.json").read_text()))
    (tmp_path / "frames.json").write_text(
        sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    )
    err = _refused(["process", "--config", str(config_path), "--calibration", str(cal),
                    "--out", str(tmp_path / "run.csv"), "--input", str(stem)],
                   FramingError, capsys)
    assert err.startswith(f"error: frame sidecar {tmp_path / 'frames.json'} ") and needle in err


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["process", "calibrate"])
def test_non_finite_replay_sample_exits_nonzero(config_path, tmp_path, capsys, command, value):
    # A NaN would silently degrade its cycle (n_avg of them when averaging);
    # an infinity would make the FFT warn.  The file is refused when read.
    wp = make_wp()
    stem = tmp_path / "frames"
    assert main(["synth", "--config", str(config_path), "--out", str(stem),
                 "--cycles", "16", "--distance", "0.04"]) == 0
    raw = tmp_path / "frames.f32"
    samples = np.fromfile(raw, dtype="<f4")
    samples[5 * wp.samples_per_cycle + 2 * wp.samples_per_ramp + 17] = value
    samples.tofile(raw)
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--input", str(stem)]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path))]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(raw) in err and "cycle 5, ramp 2" in err
    assert not (tmp_path / "out").exists()
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("command", ["process", "calibrate"])
def test_non_finite_sample_in_a_later_block_exits_nonzero(config_path, tmp_path, capsys, command):
    # The replay is read one block at a time: the bad sample is found when
    # its block is reached, after records of earlier blocks were made, and
    # still no output file, temporary or final, is left behind.
    wp = make_wp()
    bad = STREAM_BLOCK + 3
    stem = tmp_path / "frames"
    assert main(["synth", "--config", str(config_path), "--out", str(stem),
                 "--cycles", str(2 * STREAM_BLOCK + 5), "--distance", "0.04"]) == 0
    raw = tmp_path / "frames.f32"
    samples = np.fromfile(raw, dtype="<f4")
    samples[bad * wp.samples_per_cycle + 3 * wp.samples_per_ramp + 4] = math.nan
    samples.tofile(raw)
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--input", str(stem)]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path))]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(raw) in err and f"cycle {bad}, ramp 3" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["synth", "calibrate", "process"])
def test_negative_cycles_exits_nonzero(config_path, tmp_path, capsys, command):
    # A negative count is an out-of-range setting, refused by the synthesis
    # itself; no file (output or manifest) is left behind.
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--cycles", "-2"]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path))]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_cycles must be >= 0, got -2" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["synth", "calibrate", "process"])
def test_negative_seed_exits_nonzero(config_path, tmp_path, capsys, command):
    # A negative seed is refused by the synthesis itself, so a library caller
    # gets the same error; no output or manifest is left behind.
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--cycles", "2", "--seed", "-1"]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path))]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    err = _refused(argv, ParameterError, capsys)
    assert "seed must be >= 0, got -1" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("command, options, message", [
    ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ("calibrate", ["--noise-sigma", "nan"], "noise_sigma must be finite and >= 0, got nan"),
    ("process", ["--seed", "-5", "--noise-sigma", "-1"],
     "noise_sigma must be finite and >= 0, got -1.0"),
], ids=["synth", "calibrate", "process"])
def test_zero_cycles_still_checks_the_synthesis_options(config_path, tmp_path, capsys, command,
                                                        options, message):
    # An empty synthetic run draws no cycle, yet refuses the seed and levels
    # a longer run would: exit 1, and no output or manifest is left behind.
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--cycles", "0", *options]
    if command == "process":
        argv += ["--calibration", str(_calibrate(config_path, tmp_path))]
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    err = _refused(argv, ParameterError, capsys)
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_process_zero_cycles_writes_header_and_manifest(config_path, tmp_path, capsys, fmt):
    # An empty run is a valid file of its format: a header-only CSV, an
    # empty JSONL file, and its manifest.
    cal = _calibrate(config_path, tmp_path)
    out = tmp_path / f"run.{fmt}"
    capsys.readouterr()
    assert main(["process", "--config", str(config_path), "--calibration", str(cal),
                 "--cycles", "0", "--distance", "0.04", "--format", fmt,
                 "--out", str(out)]) == 0
    assert out.read_text() == (_CSV_HEADER + "\n" if fmt == "csv" else "")
    manifest = json.loads((tmp_path / f"run.{fmt}.manifest.json").read_text())
    assert manifest["inputs"]["synthetic"]["cycles"] == 0
    assert manifest["outputs"] == [str(out)]
    assert capsys.readouterr().out == f"wrote 0 records to {out}\n"


def test_process_memory_does_not_grow_with_cycles(config_path, tmp_path, capsys):
    # Replay is read, and records written, one block at a time: 4x the
    # cycles may not raise the peak of traced allocations (numpy reports
    # its buffers to tracemalloc) by more than 1 MB.
    cal = _calibrate(config_path, tmp_path)

    def process(cycles, traced):
        stem = tmp_path / f"frames{cycles}"
        if not stem.with_suffix(".f32").exists():
            assert main(["synth", "--config", str(config_path), "--out", str(stem),
                         "--cycles", str(cycles), "--distance", "0.04",
                         "--noise-sigma", "0.1"]) == 0
        argv = ["process", "--config", str(config_path), "--calibration", str(cal),
                "--input", str(stem), "--out", str(tmp_path / f"run{cycles}.csv")]
        if not traced:
            assert main(argv) == 0
            return None
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    process(200, traced=False)  # warm the caches
    small, large = process(200, traced=True), process(800, traced=True)
    capsys.readouterr()
    assert large <= small + 1_000_000, (small, large)


def test_calibrate_memory_does_not_grow_with_cycles(config_path, tmp_path, capsys):
    # Cycles go through the spectral front end a block at a time and into a
    # running sum and Welford's sigma: 4x the cycles may not raise the peak
    # of traced allocations by more than 1 MB (a list of spectra adds 32 kB a cycle).
    def calibrate(cycles):
        argv = ["calibrate", "--config", str(config_path), "--out", str(tmp_path / "cal.json"),
                "--cycles", str(cycles), "--noise-sigma", "0.1"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    calibrate(200)  # warm the caches
    small, large = calibrate(200), calibrate(800)
    capsys.readouterr()
    assert large <= small + 1_000_000, (small, large)


@pytest.mark.parametrize(
    "command, option, value, needle",
    [
        ("synth", "--amplitude", "nan", "amplitude must be finite"),
        ("synth", "--distance", "nan", "distance_R and velocity_v must be finite"),
        ("synth", "--noise-sigma", "nan", "noise_sigma must be finite"),
        ("synth", "--noise-sigma", "inf", "noise_sigma must be finite"),
        ("calibrate", "--noise-sigma", "nan", "noise_sigma must be finite"),
    ],
    ids=["synth-amplitude-nan", "synth-distance-nan", "synth-noise-nan", "synth-noise-inf",
         "calibrate-noise-nan"],
)
def test_non_finite_synthesis_input_exits_nonzero(
    config_path, tmp_path, capsys, command, option, value, needle
):
    # A non-finite level or target is refused before any file is written.
    argv = [command, "--config", str(config_path), "--out", str(tmp_path / "out"),
            "--cycles", "16", option, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err
    assert [p.name for p in tmp_path.iterdir()] == [config_path.name]


@pytest.mark.parametrize("command, levels, message", [
    ("synth", ["--amplitude", "1e39", "--distance", "0.04"],
     "amplitude 1e+39 and noise_sigma 0.0"),
    ("calibrate", ["--noise-sigma", "1e200"], "amplitude 0.0 and noise_sigma 1e+200"),
    ("process", ["--amplitude", "1e39", "--noise-sigma", "0.3"],
     "amplitude 1e+39 and noise_sigma 0.3"),
], ids=["synth", "calibrate", "process"])
def test_synthesis_levels_beyond_the_float32_export_exit_nonzero(
    config_path, tmp_path, capsys, command, levels, message
):
    # Cast to float32, these samples were infinite: numpy warned, and the export
    # or the front end then blamed its own input for them.
    extra = {"synth": ["--cycles", "2"], "calibrate": ["--cycles", "16"],
             "process": ["--calibration", str(_calibrate(config_path, tmp_path)),
                         "--cycles", "2", "--distance", "0.04"]}[command]
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    err = _refused([command, "--config", str(config_path), "--out", str(tmp_path / "out"),
                    *extra, *levels], ParameterError, capsys)
    assert err == f"error: {message} put cycle 0, ramp 0 beyond the float32 range\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "command, suffixes, first, second",
    [
        ("calibrate", [""], ["--cycles", "20", "--noise-sigma", "0.1", "--seed", "1"],
         ["--cycles", "20", "--noise-sigma", "0.1", "--seed", "2"]),
        ("synth", [".f32", ".json"], ["--cycles", "2"], ["--cycles", "3"]),
        ("blindmap", ["", ".grid.txt"], ["--resolution", "5"], ["--resolution", "7"]),
    ],
    ids=["calibration", "frames", "blind-map"],
)
def test_rewritten_output_replaces_the_old_file(
    config_path, tmp_path, capsys, command, suffixes, first, second
):
    # A rewrite replaces each output whole: another link to the old file
    # keeps the old bytes, so no reader can see a half-written file.
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), "--out", str(out)]
    assert main(argv + first) == 0
    old = {}
    for suffix in suffixes:
        path = tmp_path / f"out{suffix}"
        os.link(path, tmp_path / f"alias{suffix}")
        old[suffix] = path.read_bytes()
    assert main(argv + second) == 0
    for suffix, data in old.items():
        assert (tmp_path / f"alias{suffix}").read_bytes() == data
        assert (tmp_path / f"out{suffix}").read_bytes() != data
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []
    capsys.readouterr()


def test_jsonl_writes_null_for_invalid_cycles(config_path, tmp_path, capsys):
    # No target and no noise: every ramp is empty, so every cycle is invalid.
    cal = _calibrate(config_path, tmp_path)
    out = tmp_path / "run.jsonl"
    assert main(["process", "--config", str(config_path), "--calibration", str(cal),
                 "--out", str(out), "--format", "jsonl", "--cycles", "2",
                 "--amplitude", "0"]) == 0

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    records = [json.loads(line, parse_constant=refuse) for line in out.read_text().splitlines()]
    assert [r["status"] for r in records] == ["invalid", "invalid"]
    for field in ("R_m", "v_mps", "sigma_R_m", "sigma_v_mps", "spread"):
        assert records[0][field] is None
    capsys.readouterr()


def test_cli_import_loads_no_scipy(config_path, tmp_path):
    # Importing the CLI, synthesizing, calibrating and processing all run on
    # numpy alone, and none of them imports numpy.ma, which np.median's NaN
    # check would, at a cost every command pays at start-up.
    src = str(Path(lfisensor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, lfisensor.cli\n"
        "cfg, out = sys.argv[1:]\n"
        "assert lfisensor.cli.main(['synth', '--config', cfg, '--out', out + '/frames',"
        " '--cycles', '2', '--distance', '0.04', '--noise-sigma', '0.1']) == 0\n"
        "assert lfisensor.cli.main(['calibrate', '--config', cfg, '--out', out + '/cal.json',"
        " '--cycles', '16']) == 0\n"
        "assert lfisensor.cli.main(['process', '--config', cfg, '--calibration',"
        " out + '/cal.json', '--input', out + '/frames', '--out', out + '/run.csv']) == 0\n"
        "print([m for m in sys.modules if m.startswith('scipy') or m == 'numpy.ma'])"
    )
    result = subprocess.run([sys.executable, "-c", code, str(config_path), str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "[]"


def test_text_config_still_parses_numbers_from_strings(tmp_path, capsys):
    # A flat config holds strings; "2e6" is 2 MHz there, unlike in a JSON file.
    config = tmp_path / "sensor.cfg"
    save_working_point(make_wp(), config)
    lines = [ln for ln in config.read_text().splitlines() if not ln.startswith("sampling_rate_hz")]
    config.write_text("\n".join([*lines, "sampling_rate_hz = 2e6", "n_avg = 4"]) + "\n")
    cal = _calibrate(config, tmp_path)
    out = tmp_path / "run.csv"
    assert main(["process", "--config", str(config), "--calibration", str(cal), "--out", str(out),
                 "--cycles", "5", "--distance", "0.04"]) == 0
    assert len(out.read_text().splitlines()) == 6
    capsys.readouterr()


#: Any JSON value: scalars of every type (NaN and infinities included, which
#: Python's json module writes and reads) and small lists and objects of them.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _fuzz_object(valid: dict):
    """``valid`` with each key kept, dropped or given any JSON value, plus extra keys."""
    def edit(actions, extra):
        edited = {}
        for key, (action, value) in zip(valid, actions):
            if action == "keep":
                edited[key] = valid[key]
            elif action == "replace":
                edited[key] = value
        return {**edited, **extra}

    action = st.tuples(st.sampled_from(["keep", "keep", "drop", "replace"]), _JSON)
    return st.builds(edit, st.lists(action, min_size=len(valid), max_size=len(valid)),
                     st.dictionaries(st.text(max_size=8), _JSON, max_size=2))


@pytest.fixture(scope="module")
def replay_files(tmp_path_factory):
    """A config, a calibration and a valid two-cycle export, with the export's
    sidecar as a dict and its raw bytes."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "sensor.cfg"
    save_working_point(make_wp(), config)
    cal = _calibrate(config, tmp)
    assert main(["synth", "--config", str(config), "--out", str(tmp / "frames"),
                 "--cycles", "2", "--distance", "0.04"]) == 0
    sidecar = json.loads((tmp / "frames.json").read_text())
    return tmp, config, cal, sidecar, (tmp / "frames.f32").read_bytes()


def _exits_with_an_error(argv):
    """``main(argv)`` returns 1 and prints one ``error: `` line, not a traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main(argv) == 1
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
    return err.getvalue()


def _with_working_point(sidecar, wp):
    return {**sidecar, "working_point": wp}


@given(data=st.data(), raw_offset=st.integers(-4, 4))
@settings(max_examples=150, deadline=None)
def test_fuzzed_frame_sidecars_and_lengths_end_in_a_package_error(replay_files, data, raw_offset):
    tmp, config, cal, valid, raw = replay_files
    sidecar = data.draw(_JSON | _fuzz_object(valid) | st.builds(
        _with_working_point, _fuzz_object(valid), _fuzz_object(valid["working_point"])))
    assume(sidecar != valid or raw_offset != 0)
    (tmp / "fuzzed.json").write_text(json.dumps(sidecar))
    (tmp / "fuzzed.f32").write_bytes(raw[: len(raw) + raw_offset] + b"\0" * raw_offset)
    err = _exits_with_an_error([
        "process", "--config", str(config), "--calibration", str(cal),
        "--out", str(tmp / "run.csv"), "--input", str(tmp / "fuzzed")])
    # FramingError names a file; a working point unlike the config's is a ParameterError.
    assert "fuzzed" in err or "working point differs" in err


@given(model=_fuzz_object(TRUE_COEFFS.to_dict()) | _JSON | st.binary(max_size=16))
@settings(max_examples=150, deadline=None)
def test_fuzzed_noise_model_files_end_in_a_package_error(replay_files, model):
    tmp, config, cal, _, _ = replay_files
    path = tmp / "noise.json"
    if isinstance(model, bytes):
        path.write_bytes(model)
    else:
        path.write_text(json.dumps(model))
    argv = ["process", "--config", str(config), "--calibration", str(cal), "--noise-model",
            str(path), "--out", str(tmp / "run.csv"), "--cycles", "2", "--distance", "0.04"]
    if _is_noise_model(model):
        expected = NoiseModelCoefficients(**{k: float(v) for k, v in model.items()})
        assert NoiseModelCoefficients.from_dict(model) == expected
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    else:
        _exits_with_an_error(argv)


#: The keys of a flat config file: the working point's and the pipeline's.
_CONFIG_KEYS = [*WORKING_POINT_KEYS.values(),
                *(f.name for f in fields(PipelineConfig) if f.type in ("int", "float", "str"))]
#: Any value text: numbers as text, the interpolator names, and any text.
_CONFIG_VALUE = (st.integers().map(str) | st.floats().map(repr)
                 | st.sampled_from(["weighted_average", "gaussian"]) | st.text(max_size=12))
#: A ``key = value`` line with a known or a junk key, or any line at all.
_CONFIG_LINE = (st.builds("{} = {}".format, st.sampled_from(_CONFIG_KEYS) | st.text(max_size=8),
                          _CONFIG_VALUE)
                | st.text(max_size=16))


@st.composite
def _config_texts(draw, valid: list):
    """The lines of ``valid``, each kept, dropped or replaced, and up to four
    more lines anywhere: any line, or a copy of a valid one (a duplicate key)."""
    lines = []
    for line in valid:
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if action != "drop":
            lines.append(line if action == "keep" else draw(_CONFIG_LINE))
    for line in draw(st.lists(_CONFIG_LINE | st.sampled_from(valid), max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


_VALID_CONFIG = [f"{k} = {v}" for k, v in make_wp().to_dict().items()] + ["n_avg = 4"]


@given(text=_config_texts(_VALID_CONFIG), command=st.sampled_from(["mindist", "blindmap"]))
@example(text="\n".join(_VALID_CONFIG) + "\n", command="mindist")
@settings(max_examples=200, deadline=None)
def test_fuzzed_config_files_exit_0_or_with_one_error_line(tmp_path_factory, text, command):
    tmp = tmp_path_factory.mktemp("config")
    config = tmp / "sensor.cfg"
    config.write_text(text, encoding="utf-8")
    argv = [command, "--config", str(config), "--out", str(tmp / "out")]
    if command == "blindmap":
        argv += ["--resolution", "3"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1) and "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def _is_noise_model(model) -> bool:
    """Every noise-model key and no other, each a finite number (not a bool),
    and a fit residual >= 0."""
    return (isinstance(model, dict) and set(model) == set(TRUE_COEFFS.to_dict())
            and all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                    for v in model.values())
            and model["fit_residual"] >= 0)


def _is_calibration(payload, valid) -> bool:
    """Every calibration key and no other, the version an int 3, a count of at least
    the cycles ``calibrate`` needs, and the rest equal to ``valid`` (a rate may be an
    int)."""
    def same(key):
        kinds = (int, float) if key == "sampling_rate_hz" else (type(valid[key]),)
        return type(payload[key]) in kinds and payload[key] == valid[key]

    return (isinstance(payload, dict) and set(payload) == set(valid)
            and type(payload["cycles"]) is int and payload["cycles"] >= MIN_CALIBRATION_CYCLES
            and all(same(key) for key in valid if key != "cycles"))


@given(payload=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_calibration_files_end_in_a_package_error(replay_files, payload):
    tmp, config, cal, _, _ = replay_files
    valid = json.loads(cal.read_text())
    payload = payload.draw(_JSON | _fuzz_object(valid) | st.binary(max_size=16))
    path = tmp / "fuzzed-cal.json"
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(json.dumps(payload))
    argv = ["process", "--config", str(config), "--calibration", str(path),
            "--out", str(tmp / "run.csv"), "--cycles", "2", "--distance", "0.04"]
    if _is_calibration(payload, valid):
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    else:
        assert "fuzzed-cal.json" in _exits_with_an_error(argv)


#: Text for one observation cell: inf, nan and numbers past a float's range,
#: zero and negatives, any float, and text that is not a number.
_NUMBER = st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "1e-400", "1e-320", "0",
                           "-0", "-1"])
_CELL = st.one_of(_NUMBER, _NUMBER, st.floats().map(repr), st.text(max_size=6))

_HEADER = ",".join(OBSERVATION_FIELDS)
#: Header lines: the one that reads, spaced, reordered, short, long and empty.
_HEADERS = st.just(_HEADER) | st.sampled_from([
    " , ".join(OBSERVATION_FIELDS),
    ",".join(reversed(OBSERVATION_FIELDS)),
    ",".join(OBSERVATION_FIELDS[:-1]),
    ",".join([*OBSERVATION_FIELDS, "extra"]),
    _HEADER.upper(),
    "",
])


def _observation_csv(n, seed, header=_HEADER, column=None, cells=(), counts=()):
    """An observation CSV and whether it is an untouched valid file: ``n`` rows
    of a noise-free fit, under ``header``; then ``column`` (None, or a mode and
    the source and target regressor columns) made equal to, ten times or
    constant, the given ``(row, column, text)`` cells replaced, and the given
    ``(row, field count)`` rows cut or padded."""
    observations = _synthetic_observations(TRUE_COEFFS, np.random.default_rng(seed), n=n)
    rows = [[format(getattr(obs, name), ".12g") for name in OBSERVATION_FIELDS]
            for obs in observations]
    if column:
        # An equal or tenfold copy is collinear (the latter with the intercept).
        mode, source, target = column
        for row in rows:
            row[target] = {"equal": row[source], "constant": rows[0][target],
                           "tenfold": format(10 * float(row[source]), ".12g")}[mode]
    for r, c, text in cells:
        rows[r][c] = text
    for r, count in counts:
        rows[r] = (rows[r] + ["1"] * count)[:count]
    pristine = (header == _HEADER and n >= 12 and not column and not cells
                and all(count == len(OBSERVATION_FIELDS) for _, count in counts))
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n", pristine


@st.composite
def _observation_csvs(draw):
    """A valid file of 12 to 16 rows with 0 to 3 defects, each a drawn header,
    column, cell or field count; a cell is the likeliest."""
    n = draw(st.integers(12, 16), label="rows")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    kinds = draw(st.lists(st.sampled_from(["cell", "cell", "cell", "header", "column", "count"]),
                          max_size=3), label="defects")
    rows, fields = st.integers(0, n - 1), st.integers(0, len(OBSERVATION_FIELDS) - 1)
    headers = [draw(_HEADERS, label="header") for kind in kinds if kind == "header"]
    columns = [(draw(st.sampled_from(["equal", "tenfold", "constant"]), label="column"),
                *draw(st.lists(st.integers(0, 4), min_size=2, max_size=2, unique=True)))
               for kind in kinds if kind == "column"]
    cells = [draw(st.tuples(rows, fields, _CELL), label="cell")
             for kind in kinds if kind == "cell"]
    counts = [draw(st.tuples(rows, st.integers(0, 9)), label="field count")
              for kind in kinds if kind == "count"]
    return _observation_csv(n, seed, headers[-1] if headers else _HEADER,
                            columns[-1] if columns else None, cells, counts)


@pytest.fixture(scope="module")
def observation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("observations")


@given(case=_observation_csvs())
# Three that must not reach the fit: an inf regressor, one read from 1e400,
# and a sqrt(n_avg) * sigma that underflows to 0, whose log10 is a domain error.
@example(case=_observation_csv(14, 3, cells=[(5, 2, "inf")]))
@example(case=_observation_csv(14, 3, cells=[(0, 4, "1e400")]))
@example(case=_observation_csv(14, 3, cells=[(7, 5, "1e-320"), (7, 6, "1e-320")]))
# A field past the csv module's 131,072-character limit, which csv.reader refuses.
@example(case=_observation_csv(14, 3, cells=[(4, 2, "1" * 131_073)]))
@settings(max_examples=200, deadline=None)
def test_fuzzed_observation_csvs_end_in_a_package_error(observation_dir, case):
    # Every CSV either fits or ends in one error line, never in a traceback.
    text, pristine = case
    path = observation_dir / "fuzzed-observations.csv"
    path.write_text(text)
    argv = ["fitnoise", "--observations", str(path),
            "--out", str(observation_dir / "fuzzed-noise.json")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert out.getvalue().startswith("noise model: ") and err.getvalue() == ""
    else:
        assert rc == 1 and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    if pristine:
        assert rc == 0
