import numpy as np
import pytest

from lfisensor import GroundTruth, WorkingPoint, calibrate, synthetic_cycles, write_frames

#: Speed of light used by independent test oracles (CODATA exact value).
C = 299792458.0


def make_wp(**overrides) -> WorkingPoint:
    """Short-range working point used across the suite.

    Steep slope 1e15 Hz/s, rt 0.5, 0.25 ms ramps at 2 MHz sampling:
    1 kHz measurement rate, beats up to ~0.8 MHz, 500-sample frames.
    """
    kwargs = dict(
        ramp_duration=0.25e-3,
        steep_slope=1e15,
        ratio_rt=0.5,
        sampling_rate=2e6,
        hp_cutoff=10e3,
    )
    kwargs.update(overrides)
    return WorkingPoint(**kwargs)


@pytest.fixture(scope="session")
def wp() -> WorkingPoint:
    return make_wp()


@pytest.fixture(scope="session")
def quiet_cal(wp):
    """Calibration from noise-free no-target cycles (all-zero reference)."""
    cycles = synthetic_cycles(wp, GroundTruth(0.0, 0.0), 0.0, 0.0, seed=11, n_cycles=16)
    return calibrate(cycles, wp)


@pytest.fixture(scope="session")
def noisy_cal(wp):
    """Calibration from seeded white-noise no-target cycles."""
    cycles = synthetic_cycles(
        wp, GroundTruth(0.0, 0.0), 0.0, noise_sigma=0.3, seed=13, n_cycles=64
    )
    return calibrate(cycles, wp)


def true_slopes(wp) -> np.ndarray:
    """Independent oracle: the signed slopes (+S, -S, +rt*S, -rt*S) of ramps 0-3."""
    s = wp.steep_slope
    return np.array([s, -s, wp.ratio_rt * s, -wp.ratio_rt * s])


def true_beats(wp, distance, velocity) -> np.ndarray:
    """Independent forward model: signed beats of the four ramps."""
    return (2.0 * distance * true_slopes(wp) + wp.emitted_frequency * velocity) / C


def estimate_weights(wp, triple) -> list:
    """Independent oracle: ``(w_R, w_v)`` of each ramp of ``triple``, the weights of
    the solver's reported (R, v), the least-squares line through the ramps' signed
    beats, on those beats: the columns of the pseudo-inverse of the 3x2 design
    ``[2 s_k / c, f_e / c]`` of ``f_k = (2 R s_k + f_e v) / c``."""
    slopes = true_slopes(wp)[list(triple)]
    design = np.column_stack([2.0 * slopes / C, np.full(3, wp.emitted_frequency / C)])
    return [tuple(column) for column in np.linalg.pinv(design).T.tolist()]


def write_offset_export(stem, wp, aligned, skip) -> None:
    """Export the rows of ``aligned`` as a capture whose first whole cycle starts ``skip``
    samples in: ``skip`` foreign samples, then the aligned samples, cut into as many
    cycle-long rows as ``aligned`` has.  Replayed ``skip`` samples in, it gives every
    aligned cycle but the last, whose tail the cut leaves out."""
    foreign = np.random.default_rng(skip).normal(size=skip)
    stream = np.concatenate([foreign, np.ravel(aligned)])[: np.size(aligned)]
    write_frames(stem, stream.reshape(len(aligned), wp.samples_per_cycle), wp)


def poke_raw(path, index, value) -> None:
    """Set sample ``index`` of a raw float32 file to ``value``, which may be one
    that ``write_frames`` refuses to write."""
    samples = np.fromfile(path, dtype="<f4")
    samples[index] = value
    samples.tofile(path)
