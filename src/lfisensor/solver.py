"""Distance/velocity solver with four-ramp sign disambiguation.

Magnitude spectra hide the beat sign, and in short-range high-velocity
regimes both signs are plausible for every ramp.  The solver keeps the
three strongest ramps and, under each sign assignment, fits the
least-squares line through the kept beats, beat against ramp slope: its
slope is ``2R/c`` and its intercept ``f_e v / c``.  Assignments are scored
by their spread ``K |n . f|``, the scatter of the three pairwise solutions,
with ``n`` the unit normal to the triple's design columns; a positive
distance resolves the remaining mirror ambiguity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegeneratePairError, ParameterError
from .modulation import SPEED_OF_LIGHT, WorkingPoint, ramp_slopes
from .simulator import signed_beat

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_INVALID = "invalid"

#: Reference scales mixing distance and velocity scatter into one score
#: (short-range operating envelope: a few cm, up to ~0.1 m/s).
DEFAULT_R_REF = 0.05
DEFAULT_V_REF = 0.1

@dataclass(slots=True)
class Measurement:
    """Disambiguated distance/velocity result with solver diagnostics."""

    distance_R: float
    velocity_v: float
    sigma_R: float
    sigma_v: float
    sign_combo: tuple  # +1/-1 per selected ramp
    selected_ramps: tuple  # the 3 ramp indices kept
    cluster_spread: float
    status: str


def pair_solution(f1: float, s1: float, f2: float, s2: float, f_e: float):
    """Solve one ramp pair of signed beats for (R, v)."""
    if s1 == s2:
        raise DegeneratePairError(f"ramp slopes must differ, both are {s1}")
    if f_e == 0:
        raise ParameterError("emitted frequency must be nonzero")
    delta = s1 - s2
    distance = SPEED_OF_LIGHT * (f1 - f2) / (2.0 * delta)
    velocity = SPEED_OF_LIGHT * (f2 * s1 - f1 * s2) / (f_e * delta)
    return distance, velocity


def propagate_noise(sigma_f1: float, sigma_f2: float, s1: float, s2: float, f_e: float):
    """Propagate per-ramp beat-frequency sigmas to (sigma_R, sigma_v)."""
    if s1 == s2:
        raise DegeneratePairError(f"ramp slopes must differ, both are {s1}")
    if sigma_f1 < 0 or sigma_f2 < 0:
        raise ParameterError("beat-frequency sigmas must be >= 0")
    delta = abs(s1 - s2)
    sigma_r = SPEED_OF_LIGHT * math.hypot(sigma_f1, sigma_f2) / (2.0 * delta)
    wavelength = SPEED_OF_LIGHT / f_e
    sigma_v = wavelength * math.hypot(s1 * sigma_f2, s2 * sigma_f1) / delta
    return sigma_r, sigma_v


def baseline_measurement(f_up: float, f_down: float, wp: WorkingPoint):
    """Symmetric-triangle baseline: (R, v) from the steep triangle's beat pair.

    The pair splits into ``f_R = (f_up + f_down) / 2`` and
    ``f_v = (f_up - f_down) / 2``.  Valid only while the distance term
    dominates the Doppler term; its short-range failure is what the
    sign-enumerating solver fixes.
    """
    f_r, f_v = 0.5 * (f_up + f_down), 0.5 * (f_up - f_down)
    distance = SPEED_OF_LIGHT * f_r / (2.0 * wp.steep_slope)
    velocity = SPEED_OF_LIGHT * f_v / wp.emitted_frequency
    return distance, velocity


def _invalid_measurement() -> Measurement:
    return Measurement(math.nan, math.nan, math.nan, math.nan, (), (), math.nan, STATUS_INVALID)


#: The 4 sign assignments that lead with +, in itertools.product order.
_SIGNS = tuple((1, *rest) for rest in itertools.product((1, -1), repeat=2))


@lru_cache(maxsize=4)
def triple_tables(wp: WorkingPoint) -> dict:
    """For each kept ramp triple ``(i, j, k)`` of ``wp``: its signed slopes, the unit
    normal ``n`` to its design columns ``(1, 1, 1)`` and ``(s_0, s_1, s_2)``, the
    constant ``K`` and ``(w_R, w_v)``, the weights of the reported R and v on the
    triple's three signed beats (cached and shared: do not modify).

    R and v are the least-squares line through the kept beats, beat against slope:
    with ``S = sum((s_k - s_mean)**2)``, ``w_R,k = c (s_k - s_mean) / (2 S)`` and
    ``w_v,k = (c / f_e) (1/3 - s_mean (s_k - s_mean) / S)``.  The spread, the
    scatter ``sqrt(var(R) / DEFAULT_R_REF**2 + var(v) / DEFAULT_V_REF**2)`` of the
    three pairwise solutions, is zero on beats in the design's span and linear off
    it, so it is ``K |n . f|``, ``K`` being that scatter at ``f = n``.
    """
    slopes, f_e, c = ramp_slopes(wp), wp.emitted_frequency, SPEED_OF_LIGHT
    tables = {}
    for triple in itertools.combinations(range(4), 3):
        s = [slopes[i] for i in triple]
        mean = sum(s) / 3.0
        dev = [x - mean for x in s]
        scale = sum(d * d for d in dev)
        w_r = tuple(c * d / (2.0 * scale) for d in dev)
        w_v = tuple(c / f_e * (1.0 / 3.0 - mean * d / scale) for d in dev)
        normal = (s[1] - s[2], s[2] - s[0], s[0] - s[1])
        normal = tuple(x / math.hypot(*normal) for x in normal)
        solutions = [pair_solution(normal[a], s[a], normal[b], s[b], f_e)
                     for a, b in itertools.combinations(range(3), 2)]
        r_mean, v_mean = (sum(column) / 3.0 for column in zip(*solutions))
        k = math.hypot(*[(r - r_mean) / DEFAULT_R_REF for r, _ in solutions],
                       *[(v - v_mean) / DEFAULT_V_REF for _, v in solutions]) / math.sqrt(3.0)
        tables[triple] = (tuple(s), normal, k, (w_r, w_v))
    return tables


def _sign_combos(magnitudes, table) -> list:
    """Score the 4 sign assignments of three beat magnitudes that lead with +.

    ``table`` is the kept triple's entry of :func:`triple_tables`.  Returns
    ``(signs, R, v, spread)`` rows in :data:`_SIGNS` order: R and v of the
    least-squares line through the signed beats ``f``, and the spread ``K |n . f|``.
    The weights of R and of ``n . f`` sum to zero, so both are taken on the beat
    differences ``f_k - f_0``: three equal beats give R = 0 exactly.  Flipping every
    sign negates ``f``, hence R and v exactly, and leaves the spread unchanged:
    these rows stand for all eight assignments.
    """
    m0, m1, m2 = magnitudes
    _, (_, n1, n2), k, ((_, r1, r2), (v0, v1, v2)) = table
    rows = []
    for signs in _SIGNS:
        f1, f2 = signs[1] * m1, signs[2] * m2
        d1, d2 = f1 - m0, f2 - m0
        rows.append((signs, r1 * d1 + r2 * d2, v0 * m0 + v1 * f1 + v2 * f2,
                     k * abs(n1 * d1 + n2 * d2)))
    return rows


def disambiguate(peaks, wp: WorkingPoint) -> Measurement:
    """Turn a cycle's four peak estimates, in ramp order, into one signed (R, v) measurement.

    Steps: (1) keep the three highest-intensity valid peaks; (2) take each
    sign assignment of their magnitudes that leads with +; (3) score it by its
    spread ``K |n . f|``, the scatter of the three pairwise solutions; (4) turn
    each least-spread assignment into its positive-distance form, itself when
    its R > 0 and its mirror (every sign flipped, which ties by construction)
    when its R < 0; (5) report R and v of the least-squares line through the
    kept beats (:func:`triple_tables`).

    Sigmas are left NaN.  Fewer than three valid peaks, or no
    positive-distance solution, yields an invalid measurement.
    """
    if len(peaks) != 4:
        raise ParameterError(f"disambiguate expects one peak estimate per ramp, got {len(peaks)}")
    valid = [i for i, p in enumerate(peaks) if p.valid]
    if len(valid) < 3:
        return _invalid_measurement()

    if len(valid) == 4:
        # Drop the weakest; of equal intensities, the higher ramp goes.
        valid.remove(min(reversed(valid), key=lambda i: peaks[i].intensity))
        status = STATUS_OK
    else:
        status = STATUS_DEGRADED
    indices = tuple(valid)
    table = triple_tables(wp)[indices]

    combos = _sign_combos([peaks[i].beat_frequency for i in indices], table)
    best_spread = min(spread for _, _, _, spread in combos)
    least = [c for c in combos if c[3] == best_spread]
    # In itertools.product order over all eight assignments: the rows, then the
    # mirrors, which product() lists in reverse.  A mirror estimate is 0.0 - x,
    # not -x: a direct solve sums to +0.0, never -0.0, when its terms cancel.
    positive = [c for c in least if c[1] > 0.0] + [
        (tuple(-s for s in signs), 0.0 - r, 0.0 - v, spread)
        for signs, r, v, spread in reversed(least) if r < 0.0
    ]
    if not positive:
        return _invalid_measurement()
    # One row as it is; of a measure-zero tie, the first whose beats sit farthest from blind.
    signs, distance, velocity, spread = positive[0] if len(positive) == 1 else max(
        positive, key=lambda row: min(abs(signed_beat(wp, s, row[1], row[2])) for s in table[0]))
    return Measurement(distance, velocity, math.nan, math.nan, signs, indices, spread, status)
