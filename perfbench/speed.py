"""Machine-speed reference, timed next to the workload.

The benchmark's host shares its CPUs with other tenants, and its speed
changes by up to 1.8x within seconds: identical runs spread 15-50 % in raw
wall time.  A fixed kernel of numpy and interpreter work (the mix a sensor
cycle does) is timed between the workload's blocks.  A timing scaled by
``NOMINAL_US / kernel time`` is the time the work would take on a machine
where one kernel unit takes NOMINAL_US, and it no longer depends on which
speed the host had during the run.

The kernel and NOMINAL_US are part of the benchmark's definition: changing
either changes every normalised number.
"""

import math
import time

import numpy as np

#: Kernel time per unit on the nominal machine, chosen so that nominal cycle
#: times are close to this host's slower mode (stream-wa16 about 1.6 ms).
NOMINAL_US = 100.0
#: Kernel units per sample (about 0.5-0.8 ms here).
UNITS = 5

_FRAME = np.random.default_rng(20250610).standard_normal(500)
_WINDOW = np.hamming(500)


def _unit() -> float:
    padded = np.zeros(2048)
    padded[:500] = _FRAME * _WINDOW
    magnitudes = np.abs(np.fft.rfft(padded))
    acc = float(np.median(magnitudes[magnitudes > 0]))
    for k in range(100):
        acc = math.sqrt(acc * acc + k) * 0.5
    return acc


def sample() -> float:
    """Kernel time per unit right now, in us (after one untimed unit warms the caches)."""
    _unit()
    start = time.perf_counter_ns()
    for _ in range(UNITS):
        _unit()
    return (time.perf_counter_ns() - start) / 1e3 / UNITS


def factor(samples) -> float:
    """Scale from this host's time to nominal time, averaged over samples evenly spread in time."""
    return sum(NOMINAL_US / s for s in samples) / len(samples)
