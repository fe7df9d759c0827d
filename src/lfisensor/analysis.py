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
from dataclasses import asdict, dataclass, fields
from itertools import combinations

import numpy as np

from .errors import FitError, ParameterError, check_integer, check_work, is_real
from .modulation import SPEED_OF_LIGHT, WorkingPoint, decode_fields, open_atomic, ramp_slopes
from .simulator import signed_beat

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
        for name in ("a1", "a2", "a3", "a4", "a5", "b"):
            if not (is_real(v := getattr(self, name)) and math.isfinite(v)):
                raise ParameterError(f"noise-model coefficients must be finite: {name} is {v!r}")
        if not (is_real(self.fit_residual) and self.fit_residual >= 0):
            raise ParameterError(f"fit_residual must be >= 0, got {self.fit_residual!r}")

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
            if not 0 < value < math.inf:
                raise ParameterError(
                    f"{name} must be finite and strictly positive (log domain), got {value}"
                )
        # The fit's target is the log of this product, so it must not round to 0 or inf.
        normalized = math.sqrt(self.n_avg) * self.observed_sigma_fb
        if not 0 < normalized < math.inf:
            raise ParameterError(
                f"sqrt(n_avg) * observed_sigma_fb must be finite and > 0, got {normalized}"
            )


#: The observation CSV's columns, the fields of :class:`NoiseObservation` in order.
OBSERVATION_FIELDS = tuple(f.name for f in fields(NoiseObservation))
_REGRESSOR_FIELDS = OBSERVATION_FIELDS[:5]


def blind_map(wp: WorkingPoint, v_range, r_range, resolution) -> BlindMap:
    """Count blind ramps per cell of a (velocity, distance) grid.

    ``resolution`` is the (n_v, n_r) pair of grid points per axis, two integers; each
    range is a tuple or list of two finite real numbers, and distances start at 0 or beyond.
    """
    if not (isinstance(resolution, (tuple, list)) and len(resolution) == 2):
        raise ParameterError(f"resolution must be a pair, got {resolution!r}")
    n_v, n_r = resolution
    for name, n in (("n_v", n_v), ("n_r", n_r)):
        check_integer(f"resolution's {name}", n)
    if n_v < 1 or n_r < 1:
        raise ParameterError(f"resolution must be positive, got {resolution}")
    # Per cell: the int64 count and about three float64 temporaries of one ramp's pass.
    work = 32 * n_v * n_r
    check_work(work, f"resolution {resolution} needs {work} bytes of blind-map grid")
    for name, pair in (("v_range", v_range), ("r_range", r_range)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(is_real(b) and math.isfinite(b) for b in pair)):
            raise ParameterError(f"grid ranges must be finite pairs of reals: {name} is {pair!r}")
    (v_lo, v_hi), (r_lo, r_hi) = v_range, r_range
    if r_lo < 0:
        raise ParameterError(
            f"distance range must start at >= 0 (negative R is the mirrored invalid "
            f"solution), got {r_range}")
    if not (v_hi > v_lo and r_hi > r_lo):
        raise ParameterError("grid ranges must be nonempty")
    v_axis = np.linspace(v_lo, v_hi, n_v)
    r_axis = np.linspace(r_lo, r_hi, n_r)
    counts = np.zeros((n_r, n_v), dtype=int)
    for slope in ramp_slopes(wp):
        counts += np.abs(signed_beat(wp, slope, r_axis[:, None], v_axis[None, :])) < wp.hp_cutoff
    return BlindMap(v_axis=v_axis, r_axis=r_axis, blind_count=counts)


def min_reliable_distance(wp: WorkingPoint, v_max: float) -> float:
    """Smallest distance with at most one blind ramp for all |v| <= v_max.

    Ramp i is blind on the open velocity interval of half-width
    ``c h / f_e`` around ``-2 R S_i / f_e``.  Ramps i and j share a blind
    velocity in range exactly when ``R |S_i - S_j| < c h`` and
    ``2 R max(|S_i|, |S_j|) < f_e v_max + c h``, so the bound is the
    largest, over the six ramp pairs, of the smaller of the two distances
    where these turn to equalities.
    """
    if not (is_real(v_max) and 0 < v_max < math.inf):
        raise ParameterError(f"v_max must be finite and > 0, got {v_max!r}")
    ch = SPEED_OF_LIGHT * wp.hp_cutoff
    reach = wp.emitted_frequency * v_max + ch
    return max(
        min(ch / abs(si - sj), reach / (2.0 * max(abs(si), abs(sj))))
        for si, sj in combinations(ramp_slopes(wp), 2)
    )


def fit_noise_model(observations) -> NoiseModelCoefficients:
    """Ordinary least squares for the log-log noise model.

    Requires at least 12 observations with at least two distinct values
    per regressor; a rank-deficient design raises a fit error naming the
    collinear regressors, each one a null vector of the design weighs.
    """
    observations = list(observations)
    if len(observations) < 12:
        raise FitError(
            f"noise-model fit needs >= 12 observations, got {len(observations)}"
        )
    for name in _REGRESSOR_FIELDS:
        if len({getattr(obs, name) for obs in observations}) < 2:
            raise FitError(f"regressor {name} has fewer than 2 distinct values")
    design = np.asarray([[math.log10(getattr(obs, name)) for name in _REGRESSOR_FIELDS] + [1.0]
                         for obs in observations])
    target = np.asarray([math.log10(math.sqrt(obs.n_avg) * obs.observed_sigma_fb)
                         for obs in observations])
    if (rank := np.linalg.matrix_rank(design)) < design.shape[1]:
        # Column j is a combination of the others exactly when a null vector is nonzero at j.
        weights = np.abs(np.linalg.svd(design, full_matrices=False)[2][rank:]).max(axis=0)
        names = [name for name, weight in zip(_REGRESSOR_FIELDS, weights) if weight > 1e-8]
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
    n_avg: float,
) -> float:
    """Beat-frequency noise predicted by the model at an operating point, the package's
    one evaluation of it: ``10**exponent / sqrt(n_avg)``, the exponent summed left to right.

    A point outside the log domain raises :class:`ParameterError` naming its field, and
    so does a prediction that is not finite and > 0 (a model far outside its fitted
    domain overflows or underflows).
    """
    if not (f_ramp_rate > 0 and slope_S > 0 and beat_f_b > 0 and velocity_v > 0
            and distance_R > 0 and n_avg > 0):  # NaN fails too; only then name the field
        point = (f_ramp_rate, slope_S, beat_f_b, velocity_v, distance_R, n_avg)
        name, value = next((n, v) for n, v in zip(OBSERVATION_FIELDS, point) if not v > 0)
        raise ParameterError(f"{name} must be strictly positive (log domain), got {value}")
    exponent = (coeffs.a1 * math.log10(f_ramp_rate) + coeffs.a2 * math.log10(slope_S)
                + coeffs.a3 * math.log10(beat_f_b) + coeffs.a4 * math.log10(velocity_v)
                + coeffs.a5 * math.log10(distance_R) + coeffs.b)
    try:
        sigma = 10.0**exponent / math.sqrt(n_avg)
    except OverflowError:
        sigma = math.inf
    if not 0.0 < sigma < math.inf:
        raise ParameterError(f"noise model predicts sigma_fb = {sigma} at this point")
    return sigma


def write_blind_map_csv(bm: BlindMap, path) -> None:
    """Long-format CSV: one (v, R, count) row per grid cell, CRLF line ends."""
    v_axis = [format(v, ".12g") for v in bm.v_axis.tolist()]
    with open_atomic(path) as fh:
        fh.write(b"v_mps,distance_m,blind_count\r\n")
        for r, counts in zip(bm.r_axis.tolist(), bm.blind_count):
            fh.write("".join(f"{v},{r:.12g},{c}\r\n"
                             for v, c in zip(v_axis, counts.tolist())).encode())


def write_blind_map_grid(bm: BlindMap, path) -> None:
    """Dense whitespace grid (rows = distance, columns = velocity) for plotting."""
    with open_atomic(path) as fh:
        for name, axis in (("v_axis_mps", bm.v_axis), ("r_axis_m", bm.r_axis)):
            fh.write(f"# {name}: {' '.join(format(x, '.12g') for x in axis)}\n".encode())
        for counts in bm.blind_count:
            fh.write((" ".join(map(str, counts.tolist())) + "\n").encode())


def read_observations_csv(path):
    """Load noise observations from CSV with a header matching the field names."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"observation CSV {path} is not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise ParameterError(f"observation CSV {path} line {reader.line_num}: {exc}") from None
    if not rows or [h.strip() for h in rows[0][1]] != list(OBSERVATION_FIELDS):
        raise ParameterError(
            f"observation CSV must start with header {','.join(OBSERVATION_FIELDS)}"
        )
    observations = []
    for line, row in rows[1:]:
        if not row:
            continue
        try:
            if len(row) != len(OBSERVATION_FIELDS):
                raise ParameterError(f"observation row has {len(row)} fields: {row!r}")
            values = decode_fields(NoiseObservation, dict(zip(OBSERVATION_FIELDS, row)), text=True)
            observations.append(NoiseObservation(**values))
        except ParameterError as exc:
            raise ParameterError(f"{path} line {line}: {exc}") from None
    return observations
