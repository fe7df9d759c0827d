"""Settings shared by the benchmark's processes.

Kept free of numpy and lfisensor imports: the set-up probe imports this
module inside the timed region.
"""

import hashlib
import os
from pathlib import Path

#: Speed of light (exact SI value), used by the benchmark's own oracle.
C = 299792458.0

#: Reference working point: 4 x 500-sample ramps at 2 MHz, 1 kHz cycles,
#: 10 kHz hardware high-pass.
WORKING_POINT = {
    "ramp_duration_s": 0.25e-3,
    "steep_slope_hz_per_s": 1e15,
    "ratio_rt": 0.5,
    "emitted_frequency_hz": C / 848e-9,
    "hp_cutoff_hz": 10e3,
    "sampling_rate_hz": 2e6,
}
CYCLE_S = 4 * WORKING_POINT["ramp_duration_s"]

#: Noise model attached on stream-wa16 (log-log coefficients).
NOISE_MODEL = {
    "a1": 0.35, "a2": -0.6, "a3": 0.22, "a4": 0.4, "a5": 0.55, "b": -3.2,
    "fit_residual": 0.0,
}

#: Stream workloads: pipeline settings per workload.
STREAMS = {
    "stream-wa16": {"interp_method": "weighted_average", "n_avg": 16, "noise_model": True},
    "stream-gauss1": {"interp_method": "gaussian", "n_avg": 1, "noise_model": False},
}
CLI_REPLAY = "cli-replay"
WORKLOADS = (*STREAMS, CLI_REPLAY)

#: Input signal: target amplitude and white-noise sigma (ADC units).
AMPLITUDE = 1.0
NOISE_SIGMA = 0.3
#: No-target cycles behind every calibration.
CALIBRATION_CYCLES = 64

#: Stream input pool: cycles, and piecewise-constant targets held for
#: SEGMENT_CYCLES cycles each, drawn over the ranges below.
POOL_CYCLES = 2000
SEGMENT_CYCLES = 125
R_RANGE = (0.01, 0.10)
V_MAX = 0.1
#: Every BLIND_EVERY-th segment has one ramp's true beat below the cutoff.
BLIND_EVERY = 4

#: cli-replay input: one fixed target.
REPLAY_CYCLES = 2000
REPLAY_DISTANCE = 0.05
REPLAY_VELOCITY = 0.02

#: Ground-truth tolerances of the correctness check.
R_TOL_ABS = 0.5e-3
R_TOL_REL = 0.005
V_TOL_ABS = 5e-3

#: Records hashed and counted exactly (a prefix every run completes).
DIGEST_CYCLES = 1000

#: numpy, BLAS and OpenMP are pinned to one thread in every process.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


def config_text(n_avg: int, interp_method: str) -> str:
    """Flat config file in the package's ``key = value`` format."""
    values = {k: repr(v) for k, v in WORKING_POINT.items()}
    values.update(n_avg=str(n_avg), interp_method=interp_method)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def stream_config(workload: str, cal_path):
    """Pipeline config of a stream workload, with its calibration loaded from disk."""
    from lfisensor import Calibration, NoiseModelCoefficients, PipelineConfig, WorkingPoint

    settings = STREAMS[workload]
    return PipelineConfig(
        working_point=WorkingPoint.from_dict(WORKING_POINT),
        calibration=Calibration.load(cal_path),
        interp_method=settings["interp_method"],
        n_avg=settings["n_avg"],
        noise_model=(NoiseModelCoefficients.from_dict(NOISE_MODEL)
                     if settings["noise_model"] else None),
    )


def child_env(root: Path) -> dict:
    """Environment of every subprocess: pinned threads, package from ``src``."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def source_digest(root: Path) -> str:
    """Short hash of the package and the input generator, keying the input cache."""
    h = hashlib.sha256()
    files = sorted((root / "src" / "lfisensor").glob("*.py"))
    files += [Path(__file__).with_name(name) for name in ("common.py", "checks.py", "gen.py")]
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
