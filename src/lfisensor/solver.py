"""Distance/velocity solver with four-ramp sign disambiguation.

Magnitude spectra hide the beat sign, and in short-range high-velocity
regimes both signs are plausible for every ramp.  The solver keeps the
three strongest ramps, scores each sign assignment by how tightly its
three pairwise solutions cluster, and resolves the remaining mirror
ambiguity by requiring a positive distance.
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

@dataclass
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
    return Measurement(
        distance_R=math.nan,
        velocity_v=math.nan,
        sigma_R=math.nan,
        sigma_v=math.nan,
        sign_combo=(),
        selected_ramps=(),
        cluster_spread=math.nan,
        status=STATUS_INVALID,
    )


#: The 4 sign assignments that lead with +, in itertools.product order.
_SIGNS = tuple((1, *rest) for rest in itertools.product((1, -1), repeat=2))


def _var3(a: float, b: float, c: float) -> float:
    """``np.var`` of three floats, bit for bit (``d * d``, not ``d**2``)."""
    mean = (a + b + c) / 3.0
    da, db, dc = a - mean, b - mean, c - mean
    return (da * da + db * db + dc * dc) / 3.0


@lru_cache(maxsize=4)
def triple_tables(wp: WorkingPoint) -> dict:
    """For each kept ramp triple ``(i, j, k)`` of ``wp``: its signed slopes, then
    ``2 dS`` and ``f_e dS`` of its pairs ``(i, j)``, ``(i, k)`` and ``(j, k)``,
    ``dS`` being the pair's slope difference, and last ``(w_R, w_v)``, the weights of
    the reported R and v on the triple's three signed beats: as means of the three
    pairwise solutions, both are linear in the beats (cached and shared: do not modify)."""
    slopes, f_e, c = ramp_slopes(wp), wp.emitted_frequency, SPEED_OF_LIGHT
    tables = {}
    for triple in itertools.combinations(range(4), 3):
        s = [slopes[i] for i in triple]
        d01, d02, d12 = s[0] - s[1], s[0] - s[2], s[1] - s[2]
        w_r, w_v = [0.0] * 3, [0.0] * 3
        for (a, b), d in zip(itertools.combinations(range(3), 2), (d01, d02, d12)):
            k_r, k_v = c / (6.0 * d), c / (3.0 * f_e * d)
            w_r[a], w_r[b] = w_r[a] + k_r, w_r[b] - k_r
            w_v[a], w_v[b] = w_v[a] - k_v * s[b], w_v[b] + k_v * s[a]
        tables[triple] = (tuple(s), 2.0 * d01, 2.0 * d02, 2.0 * d12,
                          f_e * d01, f_e * d02, f_e * d12, (tuple(w_r), tuple(w_v)))
    return tables


def _sign_combos(magnitudes, table) -> list:
    """Score the 4 sign assignments of three beat magnitudes that lead with +.

    ``table`` is the kept triple's entry of :func:`triple_tables`.  Returns
    ``(signs, mean R, mean v, spread)`` rows in :data:`_SIGNS` order.  Each
    pair is solved as in :func:`pair_solution` and the spread is
    ``sqrt(var(R) / DEFAULT_R_REF**2 + var(v) / DEFAULT_V_REF**2)``.
    Flipping every sign negates each beat, hence each pairwise (R, v) and
    both means exactly, and leaves the spread unchanged: these rows stand
    for all eight assignments.
    """
    m0, m1, m2 = magnitudes
    (s0, s1, s2), r01, r02, r12, v01, v02, v12, _ = table
    c = SPEED_OF_LIGHT
    r_scale, v_scale = DEFAULT_R_REF**2, DEFAULT_V_REF**2
    rows = []
    for signs in _SIGNS:
        f1, f2 = signs[1] * m1, signs[2] * m2
        dist = (c * (m0 - f1) / r01, c * (m0 - f2) / r02, c * (f1 - f2) / r12)
        vel = (
            c * (f1 * s0 - m0 * s1) / v01,
            c * (f2 * s0 - m0 * s2) / v02,
            c * (f2 * s1 - f1 * s2) / v12,
        )
        spread = math.sqrt(_var3(*dist) / r_scale + _var3(*vel) / v_scale)
        rows.append((signs, sum(dist) / 3.0, sum(vel) / 3.0, spread))
    return rows


def disambiguate(peaks, wp: WorkingPoint) -> Measurement:
    """Turn a cycle's four peak estimates, in ramp order, into one signed (R, v) measurement.

    Steps: (1) keep the three highest-intensity valid peaks; (2) solve the
    three ramp pairs under each sign assignment of their magnitudes that
    leads with +; (3) score assignments by normalized solution scatter;
    (4) turn each least-scatter assignment into its positive-distance form,
    itself when its mean R > 0 and its mirror (every sign flipped, which
    ties by construction) when its mean R < 0; (5) report the mean of the
    three pairwise solutions.

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
    # mirrors, which product() lists in reverse.  A mirror mean is 0.0 - mean,
    # not -mean: a direct solve sums to +0.0, never -0.0, when the pairwise
    # values cancel.
    positive = [c for c in least if c[1] > 0.0] + [
        (tuple(-s for s in signs), 0.0 - mean_r, 0.0 - mean_v, spread)
        for signs, mean_r, mean_v, spread in reversed(least) if mean_r < 0.0
    ]
    if not positive:
        return _invalid_measurement()
    if len(positive) > 1:
        # Measure-zero tie between non-mirrored combos: prefer the one whose
        # implied beats sit farthest from the blind region.
        def blind_margin(combo):
            _, mean_r, mean_v, _ = combo
            return min(abs(signed_beat(wp, s, mean_r, mean_v)) for s in table[0])

        positive.sort(key=blind_margin, reverse=True)
    signs, mean_r, mean_v, spread = positive[0]

    return Measurement(
        distance_R=mean_r,
        velocity_v=mean_v,
        sigma_R=math.nan,
        sigma_v=math.nan,
        sign_combo=signs,
        selected_ramps=indices,
        cluster_spread=spread,
        status=status,
    )
