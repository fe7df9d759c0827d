"""Golden corpus: a seeded synth -> calibrate -> process run must not change.

The target sits at the edge of the shallow-up ramp's blind band, so the
200-cycle record mixes ok and degraded cycles; a noise model fills the
sigmas and ``n_avg`` 8 makes the averaging window wrap many times.  Each
output file's sha256 is pinned: a change to any byte of the frames, the
calibration or the records fails here.  A deliberate output change must
update these digests and say why in CHANGES.md.

The same bytes must come out under any OpenBLAS kernel and without numpy's
AVX-512 dispatch: the weighted average is a fixed-order numpy sum, so the
processing of this corpus calls no BLAS routine, nor does any other
processing path.  What still depends on the machine: the Gaussian fit's
``math.log`` and ``math.exp`` (libm; glibc on x86-64 picks FMA variants of
both at run time; not in this corpus), ``np.abs`` of the spectrum below AVX2
dispatch, and the synthesis product (BLAS), whose differences the float32
frame export hides.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lfisensor
from lfisensor.cli import main
from lfisensor.modulation import save_working_point

from conftest import make_wp

GOLDEN_SHA256 = {
    "frames.f32": "cf25e5ddc42487837a2caad3c5ee9d3556ad4977f296ef7729a7c46e4f36cb73",
    "frames.json": "6142d193b6703d974402daaf54651b7ba466b944d1f0c1564ba5995b8b5a8508",
    "cal.json": "6c0ec1ab51f313c87b04347e25593467b0556afae42353f072ee75c87eb75427",
    "run.csv": "d093c048e0b7b004fe2ca3452338ff7a493a1ea42300bba83d6d210a7cddd156",
    "run.jsonl": "f9a3ac4c953a8a412a6b79d13903d9e646c78dd2eed4fa770913d26830763240",
}

NOISE_MODEL = {
    "a1": 0.35, "a2": -0.6, "a3": 0.22, "a4": 0.4, "a5": 0.55, "b": -3.2,
    "fit_residual": 0.0,
}


def build_corpus(d):
    """Write the five golden files into the directory ``d``."""
    config = d / "sensor.cfg"
    save_working_point(make_wp(), config)
    with open(config, "a") as fh:
        fh.write("n_avg = 8\n")
    noise = d / "noise.json"
    noise.write_text(json.dumps(NOISE_MODEL))
    common = ["--config", str(config), "--noise-sigma", "0.3"]
    assert main(["synth", *common, "--out", str(d / "frames"), "--cycles", "200",
                 "--distance", "0.03", "--velocity", "-0.081", "--seed", "7"]) == 0
    assert main(["calibrate", *common, "--out", str(d / "cal.json"), "--cycles", "64",
                 "--seed", "5"]) == 0
    for fmt in ("csv", "jsonl"):
        assert main(["process", "--config", str(config), "--input", str(d / "frames"),
                     "--calibration", str(d / "cal.json"), "--noise-model", str(noise),
                     "--format", fmt, "--out", str(d / f"run.{fmt}")]) == 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    build_corpus(d)
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_output_bytes(corpus, name):
    digest = hashlib.sha256((corpus / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]


def test_golden_run_covers_ok_degraded_and_sigmas(corpus):
    records = [json.loads(line) for line in (corpus / "run.jsonl").read_text().splitlines()]
    statuses = {r["status"] for r in records}
    assert len(records) == 200
    assert {"warmup", "ok", "degraded"} <= statuses
    assert all(r["sigma_R_m"] > 0 for r in records if r["status"] in ("ok", "degraded"))


_NUMPY = np.show_config(mode="dicts")
_BLAS_CONFIG = _NUMPY.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "")
_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_CORES = pytest.mark.skipif("DYNAMIC_ARCH" not in _BLAS_CONFIG, reason=(
    "numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build, so OPENBLAS_CORETYPE selects no kernel"))
_DISPATCH = pytest.mark.skipif(
    not set(_AVX512.split()) <= set(_NUMPY.get("SIMD Extensions", {}).get("found", ())),
    reason="numpy finds no AVX-512 on this CPU, so NPY_DISABLE_CPU_FEATURES disables nothing")


@pytest.mark.parametrize("variable, value", [
    pytest.param("OPENBLAS_CORETYPE", "Haswell", marks=_CORES),
    pytest.param("OPENBLAS_CORETYPE", "Prescott", marks=_CORES),
    pytest.param("NPY_DISABLE_CPU_FEATURES", _AVX512, marks=_DISPATCH),
])
def test_golden_output_bytes_do_not_depend_on_the_kernel(tmp_path, variable, value):
    """The corpus, rebuilt in a fresh interpreter under another OpenBLAS kernel or
    without numpy's AVX-512 dispatch, has the pinned digests.

    Dispatch is lowered no further than AVX2 (``X86_V3``): below it, ``np.abs``
    of the complex spectrum rounds differently and moves ``cal.json``, which a
    dispatch-independent magnitude has still to settle.
    """
    paths = [str(Path(lfisensor.__file__).parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, variable: value, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    subprocess.run([sys.executable, "-c", "import sys, pathlib, test_golden; "
                    "test_golden.build_corpus(pathlib.Path(sys.argv[1]))", str(tmp_path)],
                   env=env, check=True)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256} == GOLDEN_SHA256
