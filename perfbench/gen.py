"""Generate the stream workloads' inputs for one seed.

Usage: python3 perfbench/gen.py --seed N --out DIR

Writes DIR/pool.npz (cycle samples, true targets, segment starts) and
DIR/cal.json (a saved 64-cycle no-target calibration).  Targets are
piecewise constant, drawn from the seed; the samples come from the
package's seeded simulator.  Runs in its own process so that the
measuring process never holds the generator's memory.
"""

import argparse
import os
import sys
from pathlib import Path

import checks
import common

os.environ.update(common.THREAD_ENV)

import numpy as np  # noqa: E402  (after pinning the thread counts)


def clear_target(rng):
    """A target with no ramp blind."""
    while True:
        distance = rng.uniform(*common.R_RANGE)
        velocity = rng.uniform(-common.V_MAX, common.V_MAX)
        if checks.blind_ramps(distance, velocity) == 0:
            return distance, velocity


def blind_target(rng):
    """A target with exactly one ramp blind: its true beat within a quarter of the cutoff."""
    wp = common.WORKING_POINT
    while True:
        distance = rng.uniform(*common.R_RANGE)
        slope = checks.SLOPES[rng.integers(4)]
        beat = rng.uniform(-0.25, 0.25) * wp["hp_cutoff_hz"]
        velocity = (beat * common.C - 2.0 * distance * slope) / wp["emitted_frequency_hz"]
        if abs(velocity) <= common.V_MAX and checks.blind_ramps(distance, velocity) == 1:
            return distance, velocity


def draw_targets(seed: int):
    """Per-cycle (R, v) and segment-start index, one draw per segment.

    Every BLIND_EVERY-th segment sits on a single-blind-ramp point, so that
    the pool has degraded cycles (a uniform draw rarely lands on one); the
    others have no blind ramp.  Segments have one length, so every seed's
    pool has the same mix.
    """
    rng = np.random.default_rng([seed, 7])
    targets = np.empty((common.POOL_CYCLES, 2))
    seg_start = np.empty(common.POOL_CYCLES, dtype=np.int64)
    for i, k in enumerate(range(0, common.POOL_CYCLES, common.SEGMENT_CYCLES)):
        blind = i % common.BLIND_EVERY == common.BLIND_EVERY - 1
        target = blind_target(rng) if blind else clear_target(rng)
        targets[k : k + common.SEGMENT_CYCLES] = target
        seg_start[k : k + common.SEGMENT_CYCLES] = k
    return targets, seg_start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    from lfisensor import GroundTruth, WorkingPoint, calibrate, synthetic_cycles

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wp = WorkingPoint.from_dict(common.WORKING_POINT)
    targets, seg_start = draw_targets(args.seed)
    truths = [GroundTruth(float(r), float(v)) for r, v in targets]
    samples = np.stack(list(synthetic_cycles(
        wp, truths.__getitem__, common.AMPLITUDE, common.NOISE_SIGMA,
        2 * args.seed, common.POOL_CYCLES,
    )))
    cal = calibrate(
        synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, common.NOISE_SIGMA,
                         2 * args.seed + 1, common.CALIBRATION_CYCLES),
        wp,
    )
    # Write under temporary names, then rename: an interrupted run leaves no
    # half-written cache entry.
    cal.save(out / "cal.json.tmp")
    with open(out / "pool.tmp.npz", "wb") as fh:
        np.savez(fh, samples=samples, targets=targets, seg_start=seg_start)
    os.replace(out / "cal.json.tmp", out / "cal.json")
    os.replace(out / "pool.tmp.npz", out / "pool.npz")
    return 0


if __name__ == "__main__":
    sys.exit(main())
