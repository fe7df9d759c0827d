import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfisensor
from lfisensor import NoiseModelCoefficients, blind_map
from lfisensor.analysis import write_observations_csv
from lfisensor.cli import _CSV_HEADER, main
from lfisensor.modulation import save_working_point

from conftest import make_wp
from test_analysis import TRUE_COEFFS, _synthetic_observations


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
    assert "calibration" in capsys.readouterr().err


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    save_working_point(make_wp(), config)
    config.write_text(config.read_text() + "typo_key = 1\n")
    rc = main(["mindist", "--config", str(config), "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "typo_key" in capsys.readouterr().err


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
        ("[0.35, -0.6]", "key-value"),
    ],
    ids=["missing-a2", "not-json", "not-an-object"],
)
def test_malformed_noise_model_exits_nonzero(config_path, tmp_path, capsys, text, needle):
    cal = _calibrate(config_path, tmp_path)
    noise = tmp_path / "noise.json"
    noise.write_text(text)
    rc = main(["process", "--config", str(config_path), "--calibration", str(cal),
               "--noise-model", str(noise), "--out", str(tmp_path / "run.csv"),
               "--cycles", "2", "--distance", "0.04"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err


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


def test_missing_config_is_parser_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["mindist", "--out", str(tmp_path / "o.json")])
    assert excinfo.value.code == 2


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


def _process_with_calibration(config_path, tmp_path, cal):
    return main(["process", "--config", str(config_path), "--calibration", str(cal),
                 "--out", str(tmp_path / "run.csv"), "--cycles", "2", "--distance", "0.04"])


def _refuse_calibration(config_path, tmp_path, capsys, edit, needle):
    """``process`` with an edited calibration file ends in one error line naming it."""
    cal = _calibrate(config_path, tmp_path)
    payload = edit(json.loads(cal.read_text()))
    cal.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    assert _process_with_calibration(config_path, tmp_path, cal) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: calibration ") and str(cal) in err and needle in err


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
        (lambda payload: {"format_version": 2}, "has no key 'reference_mean'"),
        (lambda payload: {**payload, "cycles": None}, "malformed"),
        (lambda payload: {**payload, "format_version": 1},
         "unsupported calibration format version 1"),
        (lambda payload: {**payload, "reference_mean": [
            payload["reference_mean"][0][:-1], *payload["reference_mean"][1:]]}, "malformed"),
        # One bad bin would otherwise degrade (NaN) or invalidate (Inf) every cycle.
        (_set_bin("reference_sigma", 2, math.nan), "reference_sigma must be finite"),
        (_set_bin("reference_sigma", 0, math.inf), "reference_sigma must be finite"),
        (_set_bin("reference_mean", 3, -1e-3), "reference_mean must be finite and nonnegative"),
    ],
    ids=["not-json", "missing-key", "null-cycles", "version-1", "ragged", "nan", "inf",
         "negative"],
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


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda sidecar: "nope", "is not JSON"),
        (lambda sidecar: {"format_version": 2}, "has no key 'working_point'"),
        (lambda sidecar: [], "not a JSON object"),
        (lambda sidecar: {**sidecar, "cycles": "many"}, "'cycles' must be a count"),
        (lambda sidecar: {**sidecar, "format_version": 1}, "unsupported frame format version 1"),
    ],
    ids=["not-json", "no-working-point", "not-an-object", "many-cycles", "version-1"],
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
    rc = main(["process", "--config", str(config_path), "--calibration", str(cal),
               "--out", str(tmp_path / "run.csv"), "--input", str(stem)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "frames.json" in err and needle in err


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
    # Importing the CLI, synthesizing and calibrating all run on numpy alone.
    src = str(Path(lfisensor.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, lfisensor.cli\n"
        "cfg, out = sys.argv[1:]\n"
        "assert lfisensor.cli.main(['synth', '--config', cfg, '--out', out + '/frames',"
        " '--cycles', '2', '--distance', '0.04', '--noise-sigma', '0.1']) == 0\n"
        "assert lfisensor.cli.main(['calibrate', '--config', cfg, '--out', out + '/cal.json',"
        " '--cycles', '16']) == 0\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    result = subprocess.run([sys.executable, "-c", code, str(config_path), str(tmp_path)],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip().splitlines()[-1] == "[]"
