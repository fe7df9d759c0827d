"""Command-line front end: calibration capture, stream processing, analyses.

Each ``cmd_*`` writes its outputs atomically and returns its input
provenance, its output paths and its summary; :func:`main` alone then writes
the run manifest (config path, input provenance, output paths, tool
version) and prints the summary, or removes the outputs if the manifest
cannot be written.  Every command is idempotent given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from . import __version__
from .analysis import (
    NoiseModelCoefficients,
    blind_map,
    fit_noise_model,
    min_reliable_distance,
    read_observations_csv,
    write_blind_map_csv,
    write_blind_map_grid,
)
from .errors import CalibrationError, LfiError, ParameterError
from .modulation import open_atomic, read_json_object, write_atomic
from .pipeline import PipelineConfig, read_config_file, run_stream, synthetic_cycles
from .simulator import GroundTruth, read_frames, write_frames
from .spectral import Calibration, calibrate, row_medians

_CSV_HEADER = (
    "cycle,t_s,R_m,v_mps,sigma_R_m,sigma_v_mps,status,spread,"
    "f_b0_hz,f_b1_hz,f_b2_hz,f_b3_hz,intensity0,intensity1,intensity2,intensity3"
)


def _write_manifest(out, command: str, config_path, inputs: dict, outputs) -> None:
    manifest = {
        "tool": "lfisensor",
        "version": __version__,
        "command": command,
        "config": str(config_path) if config_path else None,
        "inputs": inputs,
        "outputs": [str(p) for p in outputs],
    }
    write_atomic(f"{out}.manifest.json", json.dumps(manifest, sort_keys=True, indent=1))


def _record_status(record) -> str:
    return "warmup" if record.warmup else record.measurement.status


#: A CSV row: the cycle index, then each number as ``format(x, ".12g")``.
_CSV_ROW = "%d," + "%.12g," * 5 + "%s" + ",%.12g" * 9


def _record_row(record) -> str:
    m, (p0, p1, p2, p3) = record.measurement, record.peaks
    return _CSV_ROW % (
        record.cycle_index, record.timestamp, m.distance_R, m.velocity_v, m.sigma_R, m.sigma_v,
        _record_status(record), m.cluster_spread,
        p0.beat_frequency, p1.beat_frequency, p2.beat_frequency, p3.beat_frequency,
        p0.intensity, p1.intensity, p2.intensity, p3.intensity,
    )


def _json_number(x):
    """``x``, or ``None`` (JSON ``null``) for the NaN and infinities JSON lacks."""
    return x if math.isfinite(x) else None


def _record_json(record) -> str:
    m = record.measurement
    return json.dumps(
        {
            "cycle": record.cycle_index,
            "t_s": record.timestamp,
            "R_m": _json_number(m.distance_R),
            "v_mps": _json_number(m.velocity_v),
            "sigma_R_m": _json_number(m.sigma_R),
            "sigma_v_mps": _json_number(m.sigma_v),
            "status": _record_status(record),
            "spread": _json_number(m.cluster_spread),
            "sign_combo": list(m.sign_combo),
            "selected_ramps": list(m.selected_ramps),
            "f_b_hz": [_json_number(p.beat_frequency) for p in record.peaks],
            "intensity": [_json_number(p.intensity) for p in record.peaks],
        },
        sort_keys=True,
    )


#: The synthesis options, each with its value when not given.  A replay
#: (``--input``) would ignore them, so it refuses them.
_SYNTHESIS_DEFAULTS = {"cycles": None, "seed": 0, "noise_sigma": 0.0, "distance": 0.0,
                       "velocity": 0.0, "amplitude": 1.0}


def _source_from_args(args, wp, skip):
    """Cycle source plus a provenance dict for the manifest.

    ``--input`` replays a frame file from ``skip`` samples in.  Otherwise the
    source is seeded synthesis; commands without the target options
    (``calibrate``) synthesize no-target cycles.
    """
    given = {k: v for k, v in vars(args).items() if k in _SYNTHESIS_DEFAULTS and v is not None}
    if getattr(args, "input", None):
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise ParameterError(f"--input replays a frame file, so it takes no {flags}")
        return read_frames(args.input, wp, skip), {"replay": str(args.input)}
    s = {**_SYNTHESIS_DEFAULTS, **given}
    if s["cycles"] is None:
        raise ParameterError("either --input or --cycles is required" if "input" in args
                             else "--cycles is required")
    synthetic = {"cycles": s["cycles"], "seed": s["seed"], "noise_sigma": s["noise_sigma"]}
    if "distance" in args:
        synthetic.update(distance_m=s["distance"], velocity_mps=s["velocity"],
                         amplitude=s["amplitude"])
    else:
        s["amplitude"] = 0.0
    source = synthetic_cycles(wp, GroundTruth(s["distance"], s["velocity"]), s["amplitude"],
                              s["noise_sigma"], s["seed"], s["cycles"])
    return source, {"synthetic": synthetic}


def cmd_synth(args) -> tuple:
    wp, _ = read_config_file(args.config)
    cycles, provenance = _source_from_args(args, wp, 0)  # synth replays nothing
    write_frames(args.out, cycles, wp)
    return (provenance, [f"{args.out}.f32", f"{args.out}.json"],
            f"wrote {args.cycles} cycles ({4 * args.cycles} frames) to {args.out}.f32")


def cmd_calibrate(args) -> tuple:
    wp, settings = read_config_file(args.config)
    source, provenance = _source_from_args(args, wp, settings["sync_offset_samples"])
    cal = calibrate(source, wp, settings["fft_bins"], settings["sync_offset_samples"])
    cal.save(args.out)
    return provenance, [args.out], "\n".join(
        f"ramp {i}: median floor {mean:.6g}, median sigma {sigma:.6g} ({cal.n_cycles} cycles)"
        for i, (mean, sigma) in enumerate(zip(row_medians(cal.reference_mean),
                                              row_medians(cal.reference_sigma))))


def cmd_process(args) -> tuple:
    cal = Calibration.load(args.calibration)
    noise_model = read_json_object(
        args.noise_model, [f.name for f in fields(NoiseModelCoefficients)],
        NoiseModelCoefficients.from_dict, ParameterError, "noise model",
    ) if args.noise_model else None
    wp, settings = read_config_file(args.config)
    try:
        cfg = PipelineConfig(wp, cal, noise_model=noise_model, **settings)
    except CalibrationError as exc:  # a valid file made for another working point
        raise CalibrationError(f"calibration {args.calibration} does not fit: {exc}") from None
    source, provenance = _source_from_args(args, wp, settings["sync_offset_samples"])
    provenance["calibration"] = str(args.calibration)
    if args.noise_model:
        provenance["noise_model"] = str(args.noise_model)
    format_record = _record_json if args.format == "jsonl" else _record_row
    n_records = 0
    with open_atomic(args.out) as fh:
        if args.format == "csv":
            fh.write(f"{_CSV_HEADER}\n".encode())
        for record in run_stream(source, cfg):
            fh.write(f"{format_record(record)}\n".encode())
            n_records += 1
    return provenance, [args.out], f"wrote {n_records} records to {args.out}"


def cmd_blindmap(args) -> tuple:
    wp, _ = read_config_file(args.config)
    v_range, r_range = (args.v_min, args.v_max), (args.r_min, args.r_max)
    bm = blind_map(wp, v_range, r_range, (args.resolution, args.resolution))
    grid_path = f"{args.out}.grid.txt"
    write_blind_map_csv(bm, args.out)
    write_blind_map_grid(bm, grid_path)
    inputs = {"v_range_mps": v_range, "r_range_m": r_range, "resolution": args.resolution}
    worst = int(bm.blind_count.max())
    return (inputs, [args.out, grid_path],
            f"blind map {args.resolution}x{args.resolution}, worst cell: {worst} blind ramps")


def cmd_mindist(args) -> tuple:
    wp, _ = read_config_file(args.config)
    distance = min_reliable_distance(wp, args.v_max)
    inputs = {"v_max_mps": args.v_max}
    result = {"min_reliable_distance_m": _json_number(distance), **inputs}
    write_atomic(args.out, json.dumps(result, sort_keys=True))
    return (inputs, [args.out],
            f"minimum reliable distance: {1e3 * distance:.3f} mm (|v| <= {args.v_max} m/s)")


def cmd_fitnoise(args) -> tuple:
    observations = read_observations_csv(args.observations)
    coeffs = fit_noise_model(observations)
    write_atomic(args.out, json.dumps(coeffs.to_dict(), sort_keys=True))
    return ({"observations": str(args.observations), "count": len(observations)}, [args.out],
            "noise model: " + " ".join(f"{k}={v:.6g}" for k, v in coeffs.to_dict().items()))


def _build_parser() -> argparse.ArgumentParser:
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output path (or stem)")

    config = argparse.ArgumentParser(add_help=False, parents=[out])
    config.add_argument("--config", required=True, help="flat key-value config file")

    synthesis = argparse.ArgumentParser(add_help=False)
    synthesis.add_argument("--cycles", type=int, help="synthesize this many cycles")
    synthesis.add_argument("--seed", type=int, help="stream seed (default 0)")
    synthesis.add_argument("--noise-sigma", type=float, help="noise sigma (default 0)")

    replay = argparse.ArgumentParser(add_help=False, parents=[synthesis])
    replay.add_argument("--input", help="replay an exported frame file stem")

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--distance", type=float, help="target R in m (default 0)")
    target.add_argument("--velocity", type=float, help="target v in m/s (default 0)")
    target.add_argument("--amplitude", type=float, help="target amplitude (default 1)")

    parser = argparse.ArgumentParser(
        prog="lfisensor",
        description="FMCW laser-feedback-interferometry sensor processing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[config, synthesis, target],
                       help="export synthetic frames")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", parents=[config, replay],
                       help="build a no-target calibration profile")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("process", parents=[config, replay, target],
                       help="run the measurement pipeline")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--calibration", required=True, help="calibration profile file")
    p.add_argument("--noise-model", help="noise-model coefficient file")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("blindmap", parents=[config], help="map blind ramp counts")
    p.add_argument("--v-min", type=float, default=-0.1)
    p.add_argument("--v-max", type=float, default=0.1)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=0.05)
    p.add_argument("--resolution", type=int, default=101)
    p.set_defaults(func=cmd_blindmap)

    p = sub.add_parser("mindist", parents=[config], help="minimum reliable distance")
    p.add_argument("--v-max", type=float, default=0.1)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("fitnoise", parents=[out], help="fit the noise model")
    p.add_argument("--observations", required=True, help="observation CSV file")
    p.set_defaults(func=cmd_fitnoise)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        inputs, outputs, summary = args.func(args)
        try:
            _write_manifest(args.out, args.command, getattr(args, "config", None), inputs, outputs)
        except OSError as exc:  # a run without its manifest leaves no output
            for path in outputs:
                os.remove(path)
            raise OSError(f"cannot write {args.out}.manifest.json: {exc.strerror}") from None
        print(summary)
        return 0
    except (LfiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
