"""lfisensor benchmark: real-time factor, cycle latency and a per-module trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loop, one caller, one thread):

* ``stream-wa16``: in-process ``process_cycle``, weighted average,
  ``n_avg`` 16, noise model attached; piecewise-constant targets.
* ``stream-gauss1``: the same inputs, Gaussian interpolation, ``n_avg`` 1,
  no noise model.
* ``cli-replay``: ``lfisensor synth`` (2,000 cycles), ``calibrate`` (64
  cycles) and ``process`` (``n_avg`` 16), each in a fresh interpreter.

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it records spans around each module's functions and reports
per-layer metrics.  End-to-end times are reported for a nominal machine
(see ``speed.py``); the report shows the raw values next to them.  A report
for people comes first; the last line of standard output is the JSON
result.  Inputs are generated from the seed and cached under
``.perfbench/`` in the current directory.  See README.md.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import common

# Pin numpy, BLAS and OpenMP to one thread before anything imports numpy.
os.environ.update(common.THREAD_ENV)

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
PY = sys.executable

#: Fresh-interpreter repetitions behind setup_s and cli.import_s (median).
SETUP_REPS = 3
#: cli-replay runs `process` at least this often (median and p90 over runs).
MIN_REPLAY_RUNS = 3
#: Workload time between two speed samples of a stream loop, and time
#: between samples while a timed subprocess runs.
BLOCK_NS = 6_000_000
SAMPLE_INTERVAL_S = 0.02
#: Cycles per block of the traced run's alternating untraced and traced passes.
TRACE_BLOCK = 100
#: Cycles regenerated under tracing to time the simulator on stream workloads.
SYNTH_TRACE_CYCLES = 200
STATUSES = ("ok", "degraded", "invalid", "warmup")


# --------------------------------------------------------------- processes

class Run:
    """Outcome of one subprocess."""

    def __init__(self, wall, nominal, rss_mb, stdout, stderr):
        self.wall = wall  # s, less the time the speed sampler took from it
        self.nominal = nominal  # s, the wall scaled to the nominal machine
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr


def child(args, capture=False) -> Run:
    """Run one subprocess to its end, sampling the machine's speed meanwhile.

    The sampler shares the subprocess's CPU (see :func:`pin_cpu`), so its
    samples see the speed the subprocess gets; the time they take is
    subtracted from the wall time.
    """
    WORK.mkdir(exist_ok=True)
    clock = time.perf_counter_ns
    with open(WORK / "child.out", "w+b") as out, open(WORK / "child.err", "w+b") as err:
        samples, busy = [speed.sample()], 0
        start = clock()
        proc = subprocess.Popen([str(a) for a in args], env=common.child_env(ROOT),
                                stdout=out if capture else subprocess.DEVNULL, stderr=err)
        try:
            exited = os.pidfd_open(proc.pid)
            try:
                while not select.select([exited], [], [], SAMPLE_INTERVAL_S)[0]:
                    t0 = clock()
                    samples.append(speed.sample())
                    busy += clock() - t0
            finally:
                os.close(exited)
            end = clock()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        samples.append(speed.sample())
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, args))} exited {proc.returncode}:\n{stderr[-2000:]}")
    wall = (end - start - busy) / 1e9
    return Run(wall, wall * speed.factor(samples), usage.ru_maxrss / 1024.0, stdout, stderr)


def pin_cpu() -> None:
    """Keep this process and its subprocesses on one CPU, where the speed is sampled."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_seconds() -> float:
    """Median in-process time of ``import lfisensor`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lfisensor; print(time.perf_counter() - t)"
    child([PY, "-c", code])  # warm-up: byte-compile, fill the file cache
    return statistics.median(float(child([PY, "-c", code], capture=True).stdout)
                             for _ in range(SETUP_REPS))


def import_scipy_seconds() -> float:
    """Cumulative time of the outermost scipy imports under ``-X importtime``."""
    stderr = child([PY, "-X", "importtime", "-c", "import lfisensor"]).stderr
    total_us, stack = 0, []
    # The log lists each module after its imports; read backwards, every
    # line comes after its ancestors.
    for line in reversed(stderr.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2][1:]
        level = (len(raw) - len(raw.lstrip(" "))) // 2
        top = raw.strip().split(".")[0]
        del stack[level:]
        if top == "scipy" and "scipy" not in stack:
            total_us += int(parts[1])
        stack.append(top)
    return total_us / 1e6


# ----------------------------------------------------------------- outputs

def quantile(values, q: int) -> float:
    """q-th percentile (1..99), interpolated within the observed values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Result:
    """End-to-end or per-layer metrics plus the correctness tally of one run."""

    def __init__(self, title):
        self.title = title
        self.metrics = {}
        self.notes = []
        self.tally = checks.Tally()
        self.problems = []

    def metric(self, name, value, unit, basis):
        self.metrics[name] = {"value": value, "unit": unit}
        self.notes.append(f"  {name:44s} {value:14.6g} {unit:6s} ({basis})")

    def note(self, text):
        self.notes.append(f"  {text}")

    def emit(self, trace_mode: bool) -> None:
        spec = ROOT / "BENCHMARK.json"
        if spec.is_file():
            listed = json.loads(spec.read_text())["per_layer" if trace_mode else "end_to_end"]
            names = {m["name"] for m in listed}
            if names != set(self.metrics):
                self.problems.append(f"metrics differ from BENCHMARK.json: "
                                     f"{sorted(names ^ set(self.metrics))}")
        t = self.tally
        frac = t.failed / t.attempted if t.attempted else 0.0
        print(self.title)
        print(f"  {'fail_frac':44s} {frac:14.6g} {'1':6s} ({t.failed} of {t.attempted} checked cycles)")
        for reason, n in sorted(t.reasons.items()):
            print(f"    failed: {reason}: {n}")
        for line in self.notes + [f"  PROBLEM: {p}" for p in self.problems]:
            print(line)
        print(json.dumps({
            "correct": t.failed == 0 and t.attempted > 0 and not self.problems,
            "attempted": max(t.attempted, 1),
            "failed": t.failed,
            "metrics": self.metrics,
        }))


# --------------------------------------------------------- stream workloads

def stream_inputs(seed: int) -> Path:
    """Directory of the seed's pool and calibration, generated on first use."""
    d = WORK / "inputs" / f"{common.source_digest(ROOT)}-seed{seed}"
    if not (d / "pool.npz").is_file() or not (d / "cal.json").is_file():
        child([PY, HERE / "gen.py", "--seed", seed, "--out", d])
    return d


def closed_loop(process, state, cfg, rows, first, on_record, cycles=None, seconds=None):
    """Feed ``rows[first:]`` in order, wrapping, one cycle after the previous returns.

    Calls ``on_record(cycle index, record)`` after timing each cycle.  Stops
    after ``cycles`` cycles, or once ``seconds`` have passed and at least
    DIGEST_CYCLES cycles are done.  The machine's speed is sampled between
    blocks of BLOCK_NS; a cycle's nominal time uses the samples on both
    sides of its block.  Returns (ns per cycle, nominal ns per cycle, samples).
    """
    clock = time.perf_counter_ns
    raw, bounds, samples = [], [0], [speed.sample()]
    pool = len(rows)
    block_start = clock()
    deadline = block_start + int((seconds or 0) * 1e9)
    while True:
        t0 = clock()
        record = process(rows[(first + len(raw)) % pool], state, cfg)
        t1 = clock()
        raw.append(t1 - t0)
        on_record(first + len(raw) - 1, record)
        if cycles is not None:
            done = len(raw) >= cycles
        else:
            done = t1 >= deadline and len(raw) >= common.DIGEST_CYCLES
        if done or t1 - block_start >= BLOCK_NS:
            samples.append(speed.sample())
            bounds.append(len(raw))
            block_start = clock()
        if done:
            break
    nominal = []
    for b in range(len(bounds) - 1):
        f = speed.factor(samples[b : b + 2])
        nominal += [x * f for x in raw[bounds[b] : bounds[b + 1]]]
    return raw, nominal, samples


class StreamCheck:
    """Judges each record of one pass as it arrives; keeps only the digest prefix."""

    def __init__(self, result, targets, seg_start, settings):
        self.result = result
        self.targets = targets
        self.seg_start = seg_start
        self.n_avg = settings["n_avg"]
        self.needs_sigma = settings["noise_model"]
        self.lines = []
        self.statuses = Counter()

    def __call__(self, index, rec):
        m = rec.measurement
        status = "warmup" if rec.warmup else m.status
        if index < common.DIGEST_CYCLES:
            self.statuses[status] += 1
            fields = (m.distance_R, m.velocity_v, m.sigma_R, m.sigma_v, m.cluster_spread,
                      *(p.beat_frequency for p in rec.peaks), *(p.intensity for p in rec.peaks))
            self.lines.append(",".join([str(index), status, *(repr(float(x)) for x in fields)]))
        k = index % len(self.targets)
        # Skip warm-up and the first n_avg cycles after each target change
        # (the pool start, reached again on every wrap, is one).
        if rec.warmup or k - self.seg_start[k] < self.n_avg:
            return
        self.result.tally.add(checks.judge(
            status, m.distance_R, m.velocity_v, m.sigma_R, m.sigma_v,
            self.targets[k, 0], self.targets[k, 1], self.needs_sigma))

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def load_stream(workload, seed):
    import numpy as np

    d = stream_inputs(seed)
    with np.load(d / "pool.npz") as z:
        samples, targets, seg_start = z["samples"], z["targets"], z["seg_start"]
    return d, list(samples), targets, seg_start, common.stream_config(workload, d / "cal.json")


def stream_untraced(workload, seed, seconds) -> Result:
    import lfisensor

    d, rows, targets, seg_start, cfg = load_stream(workload, seed)
    probe = [PY, HERE / "setup_probe.py", workload, d / "cal.json"]
    child(probe)  # warm-up: byte-compile, fill the file cache
    setups = [child(probe) for _ in range(SETUP_REPS)]

    res = Result(f"{workload} seed {seed}: in-process process_cycle, closed loop, 1 caller")
    check = StreamCheck(res, targets, seg_start, common.STREAMS[workload])
    state = lfisensor.PipelineState.for_config(cfg)
    raw, nominal, samples = closed_loop(lfisensor.process_cycle, state, cfg, rows, 0, check,
                                        seconds=seconds)
    n = len(raw)
    ms, raw_ms = [x / 1e6 for x in nominal], [x / 1e6 for x in raw]
    basis = f"{n} cycles, nominal machine"
    res.metric("rtf", n * common.CYCLE_S / (sum(nominal) / 1e9), "x",
               f"{basis}; raw {n * common.CYCLE_S / (sum(raw) / 1e9):.4f}")
    res.metric("cycle_ms_p50", statistics.median(ms), "ms",
               f"{basis}; raw {statistics.median(raw_ms):.4f}")
    res.metric("cycle_ms_p90", quantile(ms, 90), "ms", f"{basis}; raw {quantile(raw_ms, 90):.4f}")
    res.metric("setup_s", statistics.median(r.nominal for r in setups), "s",
               f"median of {SETUP_REPS} fresh interpreters: import, Calibration.load, config; "
               f"raw {statistics.median(r.wall for r in setups):.4f}")
    res.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
               "this process")
    res.note(f"cycle_ms_p99 {quantile(ms, 99):.4f} ms, raw {quantile(raw_ms, 99):.4f} (not gated)")
    res.note(f"speed samples: {len(samples)}, median {statistics.median(samples):.2f} us per "
             f"kernel unit (nominal {speed.NOMINAL_US})")
    res.note(f"records sha256 (first {common.DIGEST_CYCLES} cycles) {check.digest()}")
    res.note("statuses (first %d cycles): %s" % (
        common.DIGEST_CYCLES, " ".join(f"{s} {check.statuses[s]}" for s in STATUSES)))
    return res


# ------------------------------------------------------------------ tracing

class PeakCounts:
    """Per-cycle peak outcomes seen at the estimate_peak boundary.

    A Gaussian fit is attempted whenever the configured method is Gaussian
    and the spectrum has a nonzero bin; a fit that falls back to the
    weighted average counts as attempted but not accepted.
    """

    def __init__(self, method: str):
        import numpy as np

        self.gaussian = method == "gaussian"
        self.any = np.any
        self.rows = []  # (cycle, valid, gaussian attempted, gaussian accepted)

    def __call__(self, cycle, args, kwargs, result):
        attempted = self.gaussian and bool(self.any(args[0].magnitudes))
        self.rows.append((cycle, result.valid, attempted,
                          attempted and result.method == "gaussian"))

    def ratios(self, upto):
        rows = [r for r in self.rows if 0 <= r[0] < upto]
        attempted = sum(r[2] for r in rows)
        return (sum(r[1] for r in rows) / max(len(rows), 1),
                sum(r[3] for r in rows) / attempted if attempted else 0.0)


def install_layers(rec, peak_counts) -> None:
    """Wrap the functions a cycle calls, where their callers look them up."""
    from lfisensor import analysis, modulation, peaks, pipeline, solver

    rec.install(pipeline, "process_cycle", "pipeline.process_cycle")
    rec.install(pipeline, "slice_cycle", "spectral.slice_cycle")
    rec.install(pipeline, "frame_spectrum", "spectral.frame_spectrum")
    rec.install(pipeline, "sliding_average", "spectral.sliding_average")
    rec.install(pipeline, "subtract_floor", "spectral.subtract_floor")
    rec.install(pipeline, "estimate_peak", "peaks.estimate_peak", peak_counts)
    rec.install(peaks, "validity_threshold", "peaks.validity_threshold")
    rec.install(pipeline, "disambiguate", "solver.disambiguate")
    rec.install(pipeline, "_attach_sigmas", "pipeline.attach_sigmas")
    rec.install(pipeline, "predict_sigma_fb", "analysis.predict_sigma_fb")
    for module in (modulation, pipeline, solver, analysis):
        rec.install(module, "build_cycle", "modulation.build_cycle")


def install_simulator(rec) -> None:
    from lfisensor import cli, pipeline, simulator

    rec.install(cli, "synthesize_cycle", "simulator.synthesize_cycle")
    rec.install(pipeline, "synthesize_cycle", "simulator.synthesize_cycle")
    rec.install(simulator, "highpass", "simulator.highpass")
    rec.install(cli, "write_frames", "simulator.write_frames")
    rec.install(pipeline, "read_frames", "simulator.read_frames")


def calibration_load_ms(path) -> float:
    from lfisensor import Calibration

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        Calibration.load(path)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def layer_metrics(res, rec, peak_counts, exact_cycles, scale=None):
    """Per-cycle layer metrics from the spans inside cycles.

    ``scale[cycle]`` turns a cycle's span times into nominal-machine times;
    without it they stay raw.  Returns the summary of spans outside cycles.
    """
    selfs = rec.self_times()
    gap = rec.check_accounting(selfs)
    if gap:
        res.problems.append(f"self times miss a cycle's duration by {gap} ns")
    inside = rec.summary(selfs, in_cycles=True, scale=scale)
    outside = rec.summary(selfs, in_cycles=False)
    cycles = inside["pipeline.process_cycle"][0]
    total = inside["pipeline.process_cycle"][1]
    res.note(f"trace: {len(rec.spans)} spans, {cycles} traced cycles; self times sum to "
             f"process_cycle's duration (gap {gap} ns); missing names: {rec.missing or 'none'}; "
             f"cycle span times {'nominal' if scale else 'raw'}")

    def per_cycle(name):
        return inside[name][1] / cycles / 1e3 if cycles else 0.0

    res.metric("pipeline.process_cycle.us_per_cycle", per_cycle("pipeline.process_cycle"), "us",
               f"{cycles} traced cycles")
    res.metric("pipeline.process_cycle.self_us_per_cycle",
               inside["pipeline.process_cycle"][2] / max(cycles, 1) / 1e3, "us", "glue")
    for name in ("spectral.slice_cycle", "spectral.frame_spectrum", "spectral.sliding_average",
                 "spectral.subtract_floor", "peaks.estimate_peak", "peaks.validity_threshold",
                 "solver.disambiguate", "pipeline.attach_sigmas", "analysis.predict_sigma_fb"):
        res.metric(f"{name}.us_per_cycle", per_cycle(name), "us",
                   f"inclusive; {inside[name][0]} calls; "
                   f"{100 * inside[name][1] / max(total, 1):.1f}% of process_cycle")
    for name, (calls, incl, own) in sorted(inside.items()):
        res.note(f"self {name:40s} {own / max(cycles, 1) / 1e3:10.2f} us/cycle  ({calls} calls)")
    exact = min(exact_cycles, cycles)
    builds = sum(1 for s in rec.spans if s[0] == "modulation.build_cycle" and 0 <= s[4] < exact)
    res.metric("modulation.build_cycle.calls_per_cycle", builds / max(exact, 1), "count",
               f"exact, first {exact} cycles")
    valid_ratio, accept_ratio = peak_counts.ratios(exact)
    res.metric("peaks.valid_ratio", valid_ratio, "ratio", f"exact, first {exact} cycles")
    res.metric("peaks.gaussian_accept_ratio", accept_ratio, "ratio",
               f"exact, first {exact} cycles; 0 when no Gaussian fit is attempted")
    calls, incl, _ = outside["simulator.synthesize_cycle"]
    res.metric("simulator.synthesize_cycle.us_per_cycle", incl / max(calls, 1) / 1e3, "us",
               f"{calls} cycles synthesized")
    calls, incl, _ = outside["simulator.highpass"]
    res.metric("simulator.highpass.us_per_call", incl / max(calls, 1) / 1e3, "us", f"{calls} calls")
    return outside


def overhead_metrics(res, rtf_untraced, rtf_traced, basis) -> None:
    res.metric("trace.rtf_untraced", rtf_untraced, "x", basis)
    res.metric("trace.rtf_traced", rtf_traced, "x", basis)
    res.metric("trace.overhead_frac", rtf_untraced / rtf_traced - 1.0, "ratio",
               "untraced rtf / traced rtf - 1, same seed")


def status_metrics(res, statuses, basis) -> None:
    for s in STATUSES:
        res.metric(f"solver.status.{s}", statuses[s], "count", basis)


def import_metrics(res) -> None:
    res.metric("cli.import_s", import_seconds(), "s",
               f"median of {SETUP_REPS} fresh interpreters")
    res.metric("cli.import_scipy_s", import_scipy_seconds(), "s", "-X importtime, 1 interpreter")


def stream_traced(workload, seed, seconds) -> Result:
    import lfisensor
    from lfisensor import GroundTruth, synthetic_cycles

    settings = common.STREAMS[workload]
    d, rows, targets, seg_start, cfg = load_stream(workload, seed)
    res = Result(f"{workload} seed {seed}: traced run")
    import_metrics(res)
    res.metric("spectral.calibration_load_ms", calibration_load_ms(d / "cal.json"), "ms",
               "median of 5 loads")

    rec = spans.Recorder("pipeline.process_cycle")
    peak_counts = PeakCounts(settings["interp_method"])
    install_simulator(rec)
    truths = [GroundTruth(float(r), float(v)) for r, v in targets]
    try:
        for _ in synthetic_cycles(cfg.working_point, truths.__getitem__, common.AMPLITUDE,
                                  common.NOISE_SIGMA, 2 * seed, SYNTH_TRACE_CYCLES):
            pass
    finally:
        rec.uninstall()

    # An untraced and a traced pass over the same inputs, in alternating
    # blocks, so that a change of machine speed hits both passes alike.
    passes = [StreamCheck(res, targets, seg_start, settings) for _ in range(2)]
    states = [lfisensor.PipelineState.for_config(cfg) for _ in range(2)]
    totals = [0, 0]
    scale = []  # nominal / raw time of each traced cycle
    done = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or done < common.DIGEST_CYCLES:
        for traced in (0, 1):
            if traced:
                install_layers(rec, peak_counts)
            try:
                raw, nominal, _ = closed_loop(lfisensor.pipeline.process_cycle, states[traced],
                                              cfg, rows, done, passes[traced], cycles=TRACE_BLOCK)
            finally:
                rec.uninstall()
            totals[traced] += sum(nominal)
            if traced:
                scale += [n / r for r, n in zip(raw, nominal)]
        done += TRACE_BLOCK
    overhead_metrics(res, done * common.CYCLE_S / (totals[0] / 1e9),
                     done * common.CYCLE_S / (totals[1] / 1e9),
                     f"{done} cycles per pass, alternating blocks of {TRACE_BLOCK}, nominal machine")
    layer_metrics(res, rec, peak_counts, common.DIGEST_CYCLES, scale)
    for name in ("cli.main.self_s", "cli.synth_s", "cli.calibrate_s", "simulator.read_frames_s",
                 "simulator.write_frames_s", "cli.bytes_read", "cli.bytes_written"):
        res.metric(name, 0.0, "bytes" if "bytes" in name else "s", "not run on stream workloads")

    if passes[0].digest() != passes[1].digest():
        res.problems.append("traced and untraced records differ")
    status_metrics(res, passes[1].statuses, f"exact, first {common.DIGEST_CYCLES} cycles")
    res.note(f"records sha256 (first {common.DIGEST_CYCLES} cycles) {passes[1].digest()}")
    dump_trace(res, rec, workload, seed)
    return res


def dump_trace(res, rec, workload, seed) -> None:
    path = WORK / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    rec.dump(path)
    res.note(f"spans written to {path.relative_to(ROOT)}")


# --------------------------------------------------------------- cli-replay

class Replay:
    """Paths and command lines of one seed's cli-replay round."""

    def __init__(self, seed):
        self.dir = WORK / "work" / f"cli-replay-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "sensor.cfg"
        self.config.write_text(common.config_text(16, "weighted_average"))
        self.frames, self.cal, self.out = self.dir / "frames", self.dir / "cal.json", self.dir / "run.csv"
        base = ["--config", self.config]
        self.synth = ["synth", *base, "--cycles", common.REPLAY_CYCLES,
                      "--distance", common.REPLAY_DISTANCE, "--velocity", common.REPLAY_VELOCITY,
                      "--amplitude", common.AMPLITUDE, "--noise-sigma", common.NOISE_SIGMA,
                      "--seed", 2 * seed, "--out", self.frames]
        self.calibrate = ["calibrate", *base, "--cycles", common.CALIBRATION_CYCLES,
                          "--noise-sigma", common.NOISE_SIGMA, "--seed", 2 * seed + 1,
                          "--out", self.cal]
        self.process = ["process", *base, "--calibration", self.cal, "--input", self.frames,
                        "--out", self.out]

    def check(self, res):
        """Judge the CSV ``process`` wrote; returns its sha256 and status counts."""
        data = self.out.read_bytes()
        statuses = Counter()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if len(rows) != common.REPLAY_CYCLES:
            res.problems.append(f"{len(rows)} records for {common.REPLAY_CYCLES} cycles")
        for row in rows:
            statuses[row["status"]] += 1
            if row["status"] == "warmup" or int(row["cycle"]) < 16:
                continue
            res.tally.add(checks.judge(
                row["status"], float(row["R_m"]), float(row["v_mps"]), float(row["sigma_R_m"]),
                float(row["sigma_v_mps"]), common.REPLAY_DISTANCE, common.REPLAY_VELOCITY, False))
        return hashlib.sha256(data).hexdigest(), statuses


def cli_untraced(seed, seconds) -> Result:
    rp = Replay(seed)
    cli = [PY, "-m", "lfisensor.cli"]
    child([*cli, "--version"])  # warm-up: byte-compile, fill the file cache
    setups = [(child([*cli, *rp.synth]), child([*cli, *rp.calibrate])) for _ in range(SETUP_REPS)]
    res = Result(f"{common.CLI_REPLAY} seed {seed}: `process` of {common.REPLAY_CYCLES} "
                 f"cycles, fresh interpreter per run, closed loop, 1 caller")
    runs, digests = [], set()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(runs) < MIN_REPLAY_RUNS:
        runs.append(child([*cli, *rp.process]))
        digest, statuses = rp.check(res)
        digests.add(digest)
    if len(digests) != 1:
        res.problems.append("process runs on one input wrote different records")
    n = len(runs)
    sensor_s = common.REPLAY_CYCLES * common.CYCLE_S
    ms = [r.nominal * 1e3 / common.REPLAY_CYCLES for r in runs]
    basis = f"{n} process runs x {common.REPLAY_CYCLES} cycles, nominal machine"
    res.metric("rtf", statistics.median(sensor_s / r.nominal for r in runs), "x",
               f"median of {basis}; wall includes start-up, import, read, write; "
               f"raw {statistics.median(sensor_s / r.wall for r in runs):.4f}")
    res.metric("cycle_ms_p50", statistics.median(ms), "ms", f"median of {basis}: wall / cycles")
    res.metric("cycle_ms_p90", quantile(ms, 90), "ms", f"p90 of {basis}: wall / cycles")
    res.metric("setup_s", statistics.median(a.nominal + b.nominal for a, b in setups), "s",
               f"median of {SETUP_REPS} synth + calibrate rounds, fresh interpreters; "
               f"raw {statistics.median(a.wall + b.wall for a, b in setups):.4f}")
    res.metric("peak_rss_mb", statistics.median(r.rss_mb for r in runs), "MB",
               f"median of {n} process runs")
    res.note(f"run.csv sha256 {digests.pop()}")
    res.note("statuses: " + " ".join(f"{s} {statuses[s]}" for s in STATUSES))
    return res


def io_counters():
    """Bytes this process has read and written (Linux /proc/self/io).

    The read of the counters itself is counted by the next read of them, so
    its length comes back as a third value, to be subtracted.
    """
    text = Path("/proc/self/io").read_text()
    fields = dict(line.split(": ") for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(text.encode())


def cli_traced(seed, seconds) -> Result:
    from lfisensor import cli

    rp = Replay(seed)
    res = Result(f"{common.CLI_REPLAY} seed {seed}: traced run, cli.main in-process")
    import_metrics(res)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (rp.synth, rp.calibrate):
            cli.main([str(a) for a in argv])
        t0 = time.perf_counter()
        cli.main([str(a) for a in rp.process])
        wall_u = time.perf_counter() - t0
    digest_u, _ = rp.check(res)
    res.metric("spectral.calibration_load_ms", calibration_load_ms(rp.cal), "ms", "median of 5 loads")

    rec = spans.Recorder("pipeline.process_cycle")
    peak_counts = PeakCounts("weighted_average")
    install_simulator(rec)
    install_layers(rec, peak_counts)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for name, argv in (("cli.synth", rp.synth), ("cli.calibrate", rp.calibrate)):
                rec.wrap(name, cli.main)([str(a) for a in argv])
            read0, written0, counters_len = io_counters()
            rec.wrap("cli.process", cli.main)([str(a) for a in rp.process])
            read1, written1, _ = io_counters()
    finally:
        rec.uninstall()
    digest_t, statuses = rp.check(res)
    if digest_t != digest_u:
        res.problems.append("traced and untraced process runs wrote different records")

    main_spans = {s[0]: s[2] - s[1] for s in rec.spans if s[0].startswith("cli.")}
    cycle_s = common.REPLAY_CYCLES * common.CYCLE_S
    overhead_metrics(res, cycle_s / wall_u, cycle_s / (main_spans["cli.process"] / 1e9),
                     f"in-process process command, {common.REPLAY_CYCLES} cycles")
    outside = layer_metrics(res, rec, peak_counts, common.REPLAY_CYCLES)
    selfs = rec.self_times()
    process_self = next(own for s, own in zip(rec.spans, selfs) if s[0] == "cli.process")
    res.metric("cli.main.self_s", process_self / 1e9, "s", "process command minus traced children")
    res.metric("cli.synth_s", main_spans["cli.synth"] / 1e9, "s", "in-process, no import")
    res.metric("cli.calibrate_s", main_spans["cli.calibrate"] / 1e9, "s", "in-process, no import")
    for layer in ("read_frames", "write_frames"):
        calls, incl, _ = outside[f"simulator.{layer}"]
        res.metric(f"simulator.{layer}_s", incl / 1e9, "s", f"{calls} call(s)")
    res.metric("cli.bytes_read", read1 - read0 - counters_len, "bytes",
               "process command, /proc/self/io rchar")
    res.metric("cli.bytes_written", written1 - written0, "bytes",
               "process command, /proc/self/io wchar")
    status_metrics(res, statuses, f"exact, all {common.REPLAY_CYCLES} records")
    res.note(f"run.csv sha256 {digest_t}")
    dump_trace(res, rec, common.CLI_REPLAY, seed)
    return res


# --------------------------------------------------------------------- main

def locate_package() -> None:
    """Import lfisensor from ``src/`` of the current directory, nowhere else."""
    src = ROOT / "src"
    if not (src / "lfisensor" / "__init__.py").is_file():
        sys.exit("perfbench: no src/lfisensor in the current directory; "
                 "run from the repository root")
    sys.path.insert(0, str(src))
    import lfisensor

    if Path(lfisensor.__file__).resolve().parent != (src / "lfisensor").resolve():
        sys.exit(f"perfbench: lfisensor was imported from {lfisensor.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lfisensor benchmark")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    locate_package()
    checks.self_test()
    pin_cpu()
    if args.workload == common.CLI_REPLAY:
        run = cli_traced if args.trace else cli_untraced
        result = run(args.seed, args.seconds)
    else:
        run = stream_traced if args.trace else stream_untraced
        result = run(args.workload, args.seed, args.seconds)
    result.emit(bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
