"""Offline analyses: blind-region maps, minimum reliable distance, noise model.

A ramp is blind where its beat magnitude falls below the hardware
high-pass cutoff.  Up to one blind ramp is tolerated by the solver's
drop-one redundancy; the minimum reliable distance is the smallest
distance at which no velocity in range makes two ramps blind at once.

The noise model is log-log-linear: ``log10(sqrt(n_avg) sigma_fb)``
regressed on the logs of ramp rate, slope, beat frequency, velocity and
distance plus an intercept.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import FitError, NoReliableDistanceError, ParameterError
from .modulation import (
    SPEED_OF_LIGHT,
    WorkingPoint,
    build_cycle,
    decode_fields,
    ramp_slopes,
    write_atomic,
)
from .simulator import GroundTruth, signed_beat

OBSERVATION_FIELDS = (
    "f_ramp_rate",
    "slope_S",
    "beat_f_b",
    "velocity_v",
    "distance_R",
    "n_avg",
    "observed_sigma_fb",
)

_REGRESSOR_FIELDS = OBSERVATION_FIELDS[:5]


@dataclass
class BlindMap:
    """Per-cell count of blind ramps over a (velocity, distance) grid."""

    v_axis: np.ndarray
    r_axis: np.ndarray
    blind_count: np.ndarray  # shape (len(r_axis), len(v_axis)), values 0..4


@dataclass(frozen=True)
class NoiseModelCoefficients:
    """Log-log slopes and intercept of the beat-frequency noise model."""

    a1: float  # ramp rate
    a2: float  # slope
    a3: float  # beat frequency
    a4: float  # velocity
    a5: float  # distance
    b: float
    fit_residual: float

    def __post_init__(self):
        values = (self.a1, self.a2, self.a3, self.a4, self.a5, self.b)
        if not all(math.isfinite(v) for v in values):
            raise ParameterError("noise-model coefficients must be finite")
        if not self.fit_residual >= 0:
            raise ParameterError("fit_residual must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict) -> "NoiseModelCoefficients":
        """Inverse of :meth:`to_dict`; every key is required."""
        return cls(**decode_fields(cls, values))


@dataclass(frozen=True)
class NoiseObservation:
    """One measured beat-frequency noise level and its operating point."""

    f_ramp_rate: float
    slope_S: float
    beat_f_b: float
    velocity_v: float
    distance_R: float
    n_avg: float
    observed_sigma_fb: float

    def __post_init__(self):
        for name in OBSERVATION_FIELDS:
            value = getattr(self, name)
            if not value > 0:
                raise ParameterError(
                    f"{name} must be strictly positive (log domain), got {value}"
                )


def blind_map(wp: WorkingPoint, v_range, r_range, resolution) -> BlindMap:
    """Count blind ramps per cell of a (velocity, distance) grid.

    ``resolution`` is the number of grid points per axis, either one
    count for both axes or a (n_v, n_r) pair.
    """
    if isinstance(resolution, int):
        n_v = n_r = resolution
    else:
        n_v, n_r = resolution
    if n_v < 1 or n_r < 1:
        raise ParameterError(f"resolution must be positive, got {resolution}")
    v_lo, v_hi = v_range
    r_lo, r_hi = r_range
    if not (v_hi > v_lo and r_hi > r_lo):
        raise ParameterError("grid ranges must be nonempty")
    v_axis = np.linspace(v_lo, v_hi, n_v)
    r_axis = np.linspace(r_lo, r_hi, n_r)
    counts = np.zeros((n_r, n_v), dtype=int)
    for ramp in build_cycle(wp):
        beats = (
            2.0 * r_axis[:, None] * ramp.slope
            + wp.emitted_frequency * v_axis[None, :]
        ) / SPEED_OF_LIGHT
        counts += np.abs(beats) < wp.hp_cutoff
    return BlindMap(v_axis=v_axis, r_axis=r_axis, blind_count=counts)


def min_reliable_distance(wp: WorkingPoint, v_max: float, search_max: float = 0.1) -> float:
    """Smallest distance with at most one blind ramp for all |v| <= v_max.

    Ramp i is blind on the open velocity interval of half-width
    ``c h / f_e`` around ``-2 R S_i / f_e``.  Ramps i and j share a blind
    velocity in range exactly when ``R |S_i - S_j| < c h`` and
    ``2 R max(|S_i|, |S_j|) < f_e v_max + c h``, so the bound is the
    largest, over the six ramp pairs, of the smaller of the two distances
    where these turn to equalities.
    """
    if v_max <= 0:
        raise ParameterError(f"v_max must be > 0, got {v_max}")
    ch = SPEED_OF_LIGHT * wp.hp_cutoff
    reach = wp.emitted_frequency * v_max + ch
    distance = max(
        min(ch / abs(si - sj), reach / (2.0 * max(abs(si), abs(sj))))
        for si, sj in combinations(ramp_slopes(wp), 2)
    )
    if distance > search_max:
        raise NoReliableDistanceError(
            f"no reliable distance below the search bound {search_max} m"
        )
    return distance


def _design_matrix(observations):
    rows = [
        [
            math.log10(obs.f_ramp_rate),
            math.log10(obs.slope_S),
            math.log10(obs.beat_f_b),
            math.log10(obs.velocity_v),
            math.log10(obs.distance_R),
            1.0,
        ]
        for obs in observations
    ]
    target = [
        math.log10(math.sqrt(obs.n_avg) * obs.observed_sigma_fb)
        for obs in observations
    ]
    return np.asarray(rows), np.asarray(target)


def _collinear_columns(design: np.ndarray):
    """Names of regressor columns expressible from the remaining columns."""
    names = []
    for j, name in enumerate(_REGRESSOR_FIELDS):
        column = design[:, j]
        others = np.delete(design, j, axis=1)
        fitted = others @ np.linalg.lstsq(others, column, rcond=None)[0]
        scale = np.linalg.norm(column - column.mean()) or 1.0
        if np.linalg.norm(column - fitted) < 1e-8 * scale:
            names.append(name)
    return names


def fit_noise_model(observations) -> NoiseModelCoefficients:
    """Ordinary least squares for the log-log noise model.

    Requires at least 12 observations with at least two distinct values
    per regressor; a rank-deficient design raises a fit error naming the
    collinear regressors.
    """
    observations = list(observations)
    if len(observations) < 12:
        raise FitError(
            f"noise-model fit needs >= 12 observations, got {len(observations)}"
        )
    for name in _REGRESSOR_FIELDS:
        if len({getattr(obs, name) for obs in observations}) < 2:
            raise FitError(f"regressor {name} has fewer than 2 distinct values")
    design, target = _design_matrix(observations)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        names = _collinear_columns(design) or list(_REGRESSOR_FIELDS)
        raise FitError(f"design matrix is rank deficient; collinear: {names}")
    coeffs, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coeffs - target) ** 2)))
    # The coefficients come in field order: a1 .. a5, b.
    return NoiseModelCoefficients(*coeffs.tolist(), fit_residual=residual)


def predict_sigma_fb(
    coeffs: NoiseModelCoefficients,
    f_ramp_rate: float,
    slope_S: float,
    beat_f_b: float,
    velocity_v: float,
    distance_R: float,
    n_avg: float = 1.0,
) -> float:
    """Beat-frequency noise predicted by the model at an operating point."""
    regressors = {
        "f_ramp_rate": f_ramp_rate,
        "slope_S": slope_S,
        "beat_f_b": beat_f_b,
        "velocity_v": velocity_v,
        "distance_R": distance_R,
        "n_avg": n_avg,
    }
    for name, value in regressors.items():
        if not value > 0:
            raise ParameterError(
                f"{name} must be strictly positive (log domain), got {value}"
            )
    exponent = (
        coeffs.a1 * math.log10(f_ramp_rate)
        + coeffs.a2 * math.log10(slope_S)
        + coeffs.a3 * math.log10(beat_f_b)
        + coeffs.a4 * math.log10(velocity_v)
        + coeffs.a5 * math.log10(distance_R)
        + coeffs.b
    )
    return 10.0**exponent / math.sqrt(n_avg)


def count_blind_ramps(wp: WorkingPoint, distance: float, velocity: float) -> int:
    """Direct per-ramp blind count at one (R, v) point."""
    gt = GroundTruth(distance_R=distance, velocity_v=velocity)
    return sum(
        abs(signed_beat(wp, ramp, gt)) < wp.hp_cutoff for ramp in build_cycle(wp)
    )


def write_blind_map_csv(bm: BlindMap, path) -> None:
    """Long-format CSV: one (v, R, count) row per grid cell, CRLF line ends."""
    rows = ["v_mps,distance_m,blind_count"]
    rows += [
        f"{v:.12g},{r:.12g},{int(bm.blind_count[i, j])}"
        for i, r in enumerate(bm.r_axis)
        for j, v in enumerate(bm.v_axis)
    ]
    write_atomic(path, "\r\n".join(rows) + "\r\n")


def write_blind_map_grid(bm: BlindMap, path) -> None:
    """Dense whitespace grid (rows = distance, columns = velocity) for plotting."""
    lines = [
        "# v_axis_mps: " + " ".join(format(v, ".12g") for v in bm.v_axis),
        "# r_axis_m: " + " ".join(format(r, ".12g") for r in bm.r_axis),
    ]
    lines += [" ".join(str(int(c)) for c in row) for row in bm.blind_count]
    write_atomic(path, "\n".join(lines) + "\n")


def write_observations_csv(observations, path) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(OBSERVATION_FIELDS)
    for obs in observations:
        writer.writerow([format(getattr(obs, name), ".12g") for name in OBSERVATION_FIELDS])
    write_atomic(path, text.getvalue())


def read_observations_csv(path):
    """Load noise observations from CSV with a header matching the field names."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(OBSERVATION_FIELDS):
            raise ParameterError(
                f"observation CSV must start with header {','.join(OBSERVATION_FIELDS)}"
            )
        observations = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(OBSERVATION_FIELDS):
                raise ParameterError(f"observation row has {len(row)} fields: {row!r}")
            values = {}
            for name, field in zip(OBSERVATION_FIELDS, row):
                try:
                    values[name] = float(field)
                except ValueError:
                    raise ParameterError(
                        f"{path} line {reader.line_num}, column {name}: "
                        f"{field!r} is not a number"
                    ) from None
            observations.append(NoiseObservation(**values))
    return observations
