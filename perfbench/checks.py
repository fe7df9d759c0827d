"""Correctness check of the benchmark's outputs, independent of lfisensor.

A checked cycle fails when it is ``invalid`` although the oracle says at
most one ramp is blind, or when its R or v misses the ground truth by
more than the stated tolerance.  The blind-ramp oracle is the forward
model ``|2 R s + f_e v| / c < hp_cutoff`` per ramp, written here rather
than taken from ``lfisensor.analysis``.

Run ``python3 perfbench/checks.py`` to test the check itself: it feeds
wrong records and exits non-zero unless each is counted as failed.
"""

import math
import sys
from collections import Counter

import common

_WP = common.WORKING_POINT
_S = _WP["steep_slope_hz_per_s"]
SLOPES = (_S, -_S, _WP["ratio_rt"] * _S, -_WP["ratio_rt"] * _S)


def blind_ramps(distance: float, velocity: float) -> int:
    """Number of ramps whose true beat lies below the high-pass cutoff."""
    f_e = _WP["emitted_frequency_hz"]
    return sum(
        abs(2.0 * distance * s + f_e * velocity) / common.C < _WP["hp_cutoff_hz"]
        for s in SLOPES
    )


def judge(status, distance, velocity, sigma_r, sigma_v, true_r, true_v, needs_sigma):
    """Reason one checked cycle fails, or None when it passes."""
    if status == "invalid":
        if blind_ramps(true_r, true_v) <= 1:
            return "invalid with at most one blind ramp"
        return None
    if status not in ("ok", "degraded"):
        return f"status {status!r} on a checked cycle"
    # Written as `not <=` so that NaN fails.
    if not abs(distance - true_r) <= common.R_TOL_ABS + common.R_TOL_REL * true_r:
        return "R outside tolerance"
    if not abs(velocity - true_v) <= common.V_TOL_ABS:
        return "v outside tolerance"
    if needs_sigma and not (sigma_r > 0 and sigma_v > 0
                            and math.isfinite(sigma_r) and math.isfinite(sigma_v)):
        return "noise model attached but sigma missing"
    return None


class Tally:
    """Checked and failed cycle counts, with the reasons for failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()

    def add(self, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1


def self_test() -> None:
    """Raise unless the check fails wrong records and passes right ones."""
    r, v = 0.05, 0.04  # no ramp blind
    cases = [
        ("correct record", ("ok", r, v, 1e-6, 1e-6), False),
        ("flipped v sign", ("ok", r, -v, 1e-6, 1e-6), True),
        ("R off by 1 mm", ("degraded", r + 1e-3, v, 1e-6, 1e-6), True),
        ("invalid on a non-blind cycle", ("invalid", math.nan, math.nan, math.nan, math.nan), True),
        ("NaN distance", ("ok", math.nan, v, 1e-6, 1e-6), True),
        ("warmup on a checked cycle", ("warmup", r, v, 1e-6, 1e-6), True),
        ("missing sigma", ("ok", r, v, math.nan, math.nan), True),
    ]
    for name, record, should_fail in cases:
        tally = Tally()
        tally.add(judge(*record, r, v, needs_sigma=True))
        if tally.failed != int(should_fail):
            raise RuntimeError(f"correctness check self-test: {name} not judged right")
    # A target 0.1 mm away puts every beat below the cutoff: invalid is right.
    if blind_ramps(1e-4, 0.0) != 4 or judge("invalid", *[math.nan] * 4, 1e-4, 0.0, True):
        raise RuntimeError("correctness check self-test: blind target not excused")


if __name__ == "__main__":
    self_test()
    print("correctness check self-test passed")
    sys.exit(0)
