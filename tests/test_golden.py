"""Golden corpus: a seeded synth -> calibrate -> process run must not change.

The target sits at the edge of the shallow-up ramp's blind band, so the
200-cycle record mixes ok and degraded cycles; a noise model fills the
sigmas and ``n_avg`` 8 makes the averaging window wrap many times.  Each
output file's sha256 is pinned: a change to any byte of the frames, the
calibration or the records fails here.  A deliberate output change must
update these digests and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from lfisensor.cli import main
from lfisensor.modulation import save_working_point

from conftest import make_wp

GOLDEN_SHA256 = {
    "frames.f32": "21ea43130d6752a0d2bd5caa5e7396111a22b973d05bdd776a4a63c782bebe37",
    "frames.json": "6142d193b6703d974402daaf54651b7ba466b944d1f0c1564ba5995b8b5a8508",
    "cal.json": "8ffbde8969db3fb04a0b3c59b76ab63caeee43e19d2619c0f2729aab2223bdad",
    "run.csv": "3d86700972bf068a8ed8925395ce54e7414ace6e54c5cda82bbb0453e4ed30c4",
    "run.jsonl": "d9c9dad14dc5f4eb27d6fec0e864dbbbbbb2fd03c8e4acaa130a7c7e0986ce28",
}

NOISE_MODEL = {
    "a1": 0.35, "a2": -0.6, "a3": 0.22, "a4": 0.4, "a5": 0.55, "b": -3.2,
    "fit_residual": 0.0,
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
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
