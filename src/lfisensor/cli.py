"""Command-line front end: calibration capture, stream processing, analyses.

Every command writes its outputs atomically together with a run manifest
(config snapshot, input provenance, output paths, tool version) and is
idempotent given identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

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
from .errors import (
    AliasingError,
    CalibrationError,
    DegeneratePairError,
    FitError,
    FramingError,
    NoReliableDistanceError,
    ParameterError,
)
from .modulation import write_atomic
from .pipeline import (
    config_from_file,
    read_config_file,
    replay_cycles,
    run_stream,
    synthetic_cycles,
)
from .simulator import GroundTruth, write_frames
from .spectral import Calibration, calibrate

_ERRORS = (
    AliasingError,
    CalibrationError,
    DegeneratePairError,
    FitError,
    FramingError,
    NoReliableDistanceError,
    ParameterError,
    OSError,
)

_CSV_HEADER = (
    "cycle,t_s,R_m,v_mps,sigma_R_m,sigma_v_mps,status,spread,"
    "f_b0_hz,f_b1_hz,f_b2_hz,f_b3_hz,intensity0,intensity1,intensity2,intensity3"
)


def _fmt(x) -> str:
    return format(float(x), ".12g")


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


def _record_row(record) -> str:
    m = record.measurement
    fields = [
        str(record.cycle_index),
        _fmt(record.timestamp),
        _fmt(m.distance_R),
        _fmt(m.velocity_v),
        _fmt(m.sigma_R),
        _fmt(m.sigma_v),
        _record_status(record),
        _fmt(m.cluster_spread),
    ]
    fields += [_fmt(p.beat_frequency) for p in record.peaks]
    fields += [_fmt(p.intensity) for p in record.peaks]
    return ",".join(fields)


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


def _synthetic_target(args):
    """Target, amplitude and manifest provenance of a seeded synthetic source.

    Commands without the target options (``calibrate``) synthesize
    no-target cycles.
    """
    if args.cycles is None:
        raise ParameterError("either --input or --cycles is required")
    synthetic = {"cycles": args.cycles, "seed": args.seed, "noise_sigma": args.noise_sigma}
    if not hasattr(args, "distance"):
        return GroundTruth(0.0, 0.0), 0.0, {"synthetic": synthetic}
    synthetic.update(
        distance_m=args.distance, velocity_mps=args.velocity, amplitude=args.amplitude
    )
    return GroundTruth(args.distance, args.velocity), args.amplitude, {"synthetic": synthetic}


def _source_from_args(args, wp):
    """Cycle source plus a provenance dict for the manifest."""
    if args.input:
        return (
            replay_cycles(args.input, expected_wp=wp),
            {"replay": str(args.input)},
        )
    gt, amplitude, provenance = _synthetic_target(args)
    source = synthetic_cycles(wp, gt, amplitude, args.noise_sigma, args.seed, args.cycles)
    return source, provenance


def cmd_synth(args) -> int:
    wp, _ = read_config_file(args.config)
    gt, amplitude, provenance = _synthetic_target(args)
    cycles = synthetic_cycles(wp, gt, amplitude, args.noise_sigma, args.seed, args.cycles)
    write_frames(args.out, list(cycles), wp)
    outputs = [f"{args.out}.f32", f"{args.out}.json"]
    _write_manifest(args.out, "synth", args.config, provenance, outputs)
    print(f"wrote {args.cycles} cycles ({4 * args.cycles} frames) to {args.out}.f32")
    return 0


def cmd_calibrate(args) -> int:
    wp, settings = read_config_file(args.config)
    source, provenance = _source_from_args(args, wp)
    cal = calibrate(source, wp, settings["fft_bins"])
    cal.save(args.out)
    _write_manifest(args.out, "calibrate", args.config, provenance, [args.out])
    for i, (mean, sigma) in enumerate(zip(cal.reference_mean, cal.reference_sigma)):
        print(
            f"ramp {i}: median floor {np.median(mean):.6g}, median sigma "
            f"{np.median(sigma):.6g} ({cal.n_cycles} frames)"
        )
    return 0


def cmd_process(args) -> int:
    cal = Calibration.load(args.calibration)
    noise_model = None
    if args.noise_model:
        try:
            values = json.loads(Path(args.noise_model).read_text())
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{args.noise_model} is not JSON: {exc}") from None
        noise_model = NoiseModelCoefficients.from_dict(values)
    cfg = config_from_file(args.config, cal, noise_model)
    source, provenance = _source_from_args(args, cfg.working_point)
    provenance["calibration"] = str(args.calibration)
    records = list(run_stream(source, cfg))
    if args.format == "jsonl":
        lines = map(_record_json, records)
    else:
        lines = [_CSV_HEADER, *map(_record_row, records)]
    write_atomic(args.out, "".join(line + "\n" for line in lines))
    _write_manifest(args.out, "process", args.config, provenance, [args.out])
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_blindmap(args) -> int:
    wp, _ = read_config_file(args.config)
    bm = blind_map(
        wp,
        (args.v_min, args.v_max),
        (args.r_min, args.r_max),
        (args.resolution, args.resolution),
    )
    grid_path = f"{args.out}.grid.txt"
    write_blind_map_csv(bm, args.out)
    write_blind_map_grid(bm, grid_path)
    _write_manifest(
        args.out,
        "blindmap",
        args.config,
        {
            "v_range_mps": [args.v_min, args.v_max],
            "r_range_m": [args.r_min, args.r_max],
            "resolution": args.resolution,
        },
        [args.out, grid_path],
    )
    worst = int(bm.blind_count.max())
    print(f"blind map {args.resolution}x{args.resolution}, worst cell: {worst} blind ramps")
    return 0


def cmd_mindist(args) -> int:
    wp, _ = read_config_file(args.config)
    distance = min_reliable_distance(wp, args.v_max, search_max=args.search_max)
    write_atomic(
        args.out,
        json.dumps(
            {"min_reliable_distance_m": distance, "v_max_mps": args.v_max},
            sort_keys=True,
        ),
    )
    _write_manifest(
        args.out,
        "mindist",
        args.config,
        {"v_max_mps": args.v_max, "search_max_m": args.search_max},
        [args.out],
    )
    print(f"minimum reliable distance: {1e3 * distance:.3f} mm (|v| <= {args.v_max} m/s)")
    return 0


def cmd_fitnoise(args) -> int:
    observations = read_observations_csv(args.observations)
    coeffs = fit_noise_model(observations)
    write_atomic(args.out, json.dumps(coeffs.to_dict(), sort_keys=True))
    _write_manifest(
        args.out,
        "fitnoise",
        args.config,
        {"observations": str(args.observations), "count": len(observations)},
        [args.out],
    )
    print(
        "noise model: "
        + " ".join(f"{k}={v:.6g}" for k, v in coeffs.to_dict().items())
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key-value config file")
    common.add_argument("--seed", type=int, default=0, help="stream seed")
    common.add_argument("--out", required=True, help="output path (or stem)")
    common.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="replay an exported frame file stem")
    source.add_argument("--cycles", type=int, help="synthesize this many cycles")
    source.add_argument("--noise-sigma", type=float, default=0.0)

    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--distance", type=float, default=0.0, help="target R in m")
    target.add_argument("--velocity", type=float, default=0.0, help="target v in m/s")
    target.add_argument("--amplitude", type=float, default=1.0)

    parser = argparse.ArgumentParser(
        prog="lfisensor",
        description="FMCW laser-feedback-interferometry sensor processing",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common, source, target],
                       help="export synthetic frames")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", parents=[common, source],
                       help="build a no-target calibration profile")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("process", parents=[common, source, target],
                       help="run the measurement pipeline")
    p.add_argument("--calibration", required=True, help="calibration profile file")
    p.add_argument("--noise-model", help="noise-model coefficient file")
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("blindmap", parents=[common], help="map blind ramp counts")
    p.add_argument("--v-min", type=float, default=-0.1)
    p.add_argument("--v-max", type=float, default=0.1)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=0.05)
    p.add_argument("--resolution", type=int, default=101)
    p.set_defaults(func=cmd_blindmap)

    p = sub.add_parser("mindist", parents=[common],
                       help="minimum reliable distance")
    p.add_argument("--v-max", type=float, default=0.1)
    p.add_argument("--search-max", type=float, default=0.1)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("fitnoise", parents=[common], help="fit the noise model")
    p.add_argument("--observations", required=True, help="observation CSV file")
    p.set_defaults(func=cmd_fitnoise)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    needs_config = args.command != "fitnoise"
    if needs_config and not args.config:
        parser.error(f"{args.command} requires --config")
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
