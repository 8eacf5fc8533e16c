"""The two rtp workloads and the measurements they take.

Every run measures every end-to-end metric, from three kinds of work:

- pipeline: ``run_pipeline`` builds a two-stage model.
- slice: ``rtp predict`` (``cli.main``) on a file of generated rows, then
  blocks of online calls: one caller predicts one row per call.
- set-up probe: a fresh process imports rtp and gets ready for input.

Both workloads serve one a1+b2 model, built at a fixed seed in a child
process, so that the serving process's memory and set-up figures are not
those of a training process. ``desk_pipeline`` spends its run on the paper's
ten-variant pipeline and runs a slice between train calls. ``predict``
spends its run on slices, and builds its model twice more along the way.

The host's speed changes from second to second and from minute to minute,
by up to about 1.5x. So the work is cut into short units that repeat, spread
over the run, and each figure is taken over many of them (README, Noise).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import layers
import percentile
import rowgen
from spans import Span, Tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk_pipeline", "predict")

# rtp predict runs on files of BATCH_ROWS rows; a run's rows fill ROW_FILES files.
BATCH_ROWS = 2000
ROW_FILES = {"desk_pipeline": 2, "predict": 10}
# Latency percentiles are taken per block of this many consecutive online
# calls; 1,250 calls leave 12 samples beyond p99. A slice runs BLOCKS blocks;
# desk_pipeline has fewer slices, so it runs two.
LATENCY_BLOCK = 1250
BLOCKS = {"desk_pipeline": 2, "predict": 1}
WARMUP_CALLS = 200
# One set-up probe (a fresh process) after every this many slices, so that
# the probes are spread over the run.
PROBE_EVERY = {"desk_pipeline": 1, "predict": 5}
# desk_pipeline: one slice after every SIDE_EVERY-th train call.
SIDE_EVERY = 2
# predict: model pipelines rebuilt during the measured phase, evenly spaced.
EXTRA_PIPELINES = 2
# Pipeline k of a desk run uses seed + k * PIPELINE_SEED_STRIDE, so pipeline 0
# is the paper's experiment at the run's own seed.
PIPELINE_SEED_STRIDE = 1_000_003
# Both workloads serve one fixed model; only their rows vary by seed.
MODEL_SEED = 0
PREDICT_VARIANTS = {"classifier_ids": ("a1",), "regressor_ids": ("b2",)}
# The traced run does a fixed amount of work, so that per-layer totals
# compare across commits whatever their speed: one pipeline (desk) and this
# many slices.
TRACED_SLICES = 10
# rtp predict encodes and predicts one row at a time; a batched matrix
# product may round the last bit differently, so answers are compared to
# this absolute tolerance on the normalized power (range 0..1).
ABS_TOL = 1e-12
REFERENCE_CHUNK = 500
ACCEPTANCE = {"a1_accuracy": 0.85, "a1_macro_f1": 0.80, "separated_minus_aio": 0.10,
              "conditional_within_0.10": 0.80}

# (metric, unit); BENCHMARK.json lists the same metrics with their bounds.
END_TO_END = [
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("predict_rows_per_s", "rows/s"),
    ("predict_latency_p50_ms", "ms"),
    ("predict_latency_p99_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("composed_accuracy", "ratio"),
    ("composed_mae", "norm_power"),
]


@dataclass
class Outcome:
    """Checked operations: pipelines, rtp predict calls and online calls."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 20 - len(self.problems))])


@dataclass
class Result:
    outcome: Outcome
    metrics: dict[str, float]
    notes: dict[str, str]
    detail: dict


class TrainClock:
    """Times rtp.pipeline.train calls, and each epoch inside them.

    train() holds out round(check_fraction * n) rows (at least one) and runs
    every other row once per epoch, in minibatches of batch_size, one
    ``backward_with_loss`` call each. So every epoch of one train call is the
    same work, and an epoch starts at every steps-per-epoch-th step. ``calls``
    and ``epochs`` hold (variant, seconds, rows); an epoch's time runs from
    its first step to the next epoch's, so it holds the epoch's evaluation
    too, and the last epoch of a call is not counted.

    After every SIDE_EVERY-th call the clock runs ``side``, when set, and
    adds the wall and CPU time that took to ``side_s`` and ``side_cpu_s``.
    """

    def __init__(self) -> None:
        from rtp import pipeline, training

        self.calls: list[tuple[str, float, int]] = []
        self.epochs: list[tuple[str, float, int]] = []
        self.side = None
        self.side_s = 0.0
        self.side_cpu_s = 0.0
        self._variant = None
        self._epoch_rows = 0
        self._epoch_steps = 0
        self._steps = 0
        self._epoch_start = 0.0
        train, step = pipeline.train, training.backward_with_loss

        def counted_step(*args, **kwargs):
            if self._epoch_steps:
                if self._steps % self._epoch_steps == 0:
                    now = time.perf_counter()
                    if self._steps:
                        self.epochs.append((self._variant, now - self._epoch_start,
                                            self._epoch_rows))
                    self._epoch_start = now
                self._steps += 1
            return step(*args, **kwargs)

        def timed(model, inputs, targets, config):
            n = len(targets)
            self._variant = model.variant_id
            self._epoch_rows = n - max(1, round(config.check_fraction * n))
            self._epoch_steps = math.ceil(self._epoch_rows / config.batch_size)
            self._steps = 0
            start = time.perf_counter()
            try:
                trained, history = train(model, inputs, targets, config)
            finally:
                self._epoch_steps = 0
            seconds = time.perf_counter() - start
            self.calls.append((model.variant_id, seconds, history.n_epochs * self._epoch_rows))
            if self.side is not None and len(self.calls) % SIDE_EVERY == 0:
                cpu = cpu_seconds()
                start = time.perf_counter()
                self.side()
                self.side_s += time.perf_counter() - start
                self.side_cpu_s += cpu_seconds() - cpu
            return trained, history

        pipeline.train = timed
        training.backward_with_loss = counted_step


def train_rate(pipelines: list[dict]) -> float:
    """Minibatch rows per second inside train, at an equal mix of the variants.

    Per variant, the fastest of the run's epochs in seconds per row (of its
    whole train calls, if no epoch was timed); then the number of variants
    over the sum. The mix is fixed, so a seed that gives a cheap
    variant more epochs does not move the figure.
    """
    per_row: dict[str, list[float]] = defaultdict(list)
    whole: dict[str, list[float]] = defaultdict(list)
    for stats in pipelines:
        for vid, seconds, rows in stats["train_epochs"]:
            per_row[vid].append(seconds / rows)
        for vid, seconds, rows in stats["train_calls"]:
            whole[vid].append(seconds / rows)
    return len(whole) / sum(min(per_row.get(vid) or values) for vid, values in whole.items())


def acceptance_problems(report: dict) -> list[str]:
    """The release gate's quality thresholds, for the variants the run trained."""
    problems = []
    acc = {vid: row["test_accuracy"] for vid, row in report["classifiers"].items()}
    if "a1" in acc:
        if acc["a1"] < ACCEPTANCE["a1_accuracy"]:
            problems.append(f"a1 accuracy {acc['a1']:.3f}")
        f1 = report["classifiers"]["a1"]["test_macro_f1"]
        if f1 < ACCEPTANCE["a1_macro_f1"]:
            problems.append(f"a1 macro-F1 {f1:.3f}")
    separated = [acc[v] for v in ("a1", "b1", "c1", "d1") if v in acc]
    aio = [acc[v] for v in ("e1", "f1") if v in acc]
    if separated and aio:
        gap = statistics.fmean(separated) - statistics.fmean(aio)
        if gap < ACCEPTANCE["separated_minus_aio"]:
            problems.append(f"separated - AIO accuracy {gap:.3f}")
    for vid, row in report["regressors"].items():
        within = row["regression"]["conditional_within_0.10"]
        if within < ACCEPTANCE["conditional_within_0.10"]:
            problems.append(f"{vid} conditional within-0.10 {within:.3f}")
    if "composed" not in report:
        problems.append("no composed two-stage model")
    return problems


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def cpu_seconds() -> float:
    """CPU seconds of this process (fine-grained) and of its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def pipeline_phase(out_dir: Path, seed: int, variants: dict, clock: TrainClock) -> dict:
    """One run_pipeline call with its timings, quality and artifact digests.

    Side work that the clock ran between train calls is not counted.
    """
    from rtp import pipeline

    config = pipeline.PipelineConfig(out_dir=out_dir, seed=seed, **variants)
    first_call, first_epoch = len(clock.calls), len(clock.epochs)
    side_s, side_cpu_s = clock.side_s, clock.side_cpu_s
    cpu = cpu_seconds()
    start = time.perf_counter()
    report = pipeline.run_pipeline(config)
    wall = time.perf_counter() - start
    return {
        "seed": seed,
        "wall_s": wall - (clock.side_s - side_s),
        "cpu_s": cpu_seconds() - cpu - (clock.side_cpu_s - side_cpu_s),
        "train_calls": clock.calls[first_call:],
        "train_epochs": clock.epochs[first_epoch:],
        "accuracy": report["composed"]["test_accuracy"] if "composed" in report else None,
        "mae": report["composed"]["regression"]["mae"] if "composed" in report else None,
        "problems": acceptance_problems(report),
        "artifacts": sha256_files(out_dir),
    }


def model_in_child(out_dir: Path, trace: bool) -> tuple[dict, list[Span]]:
    """Build the predict workload's model in a child process (see model_child.py)."""
    command = [sys.executable, str(HERE / "model_child.py"), "--out-dir", str(out_dir),
               "--seed", str(MODEL_SEED), "--trace", "1" if trace else "0"]
    cpu = cpu_seconds()
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"model build failed ({proc.returncode}):\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    doc["pipeline"]["cpu_s"] = cpu_seconds() - cpu
    return doc["pipeline"], [Span(*span) for span in doc["spans"]]


PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import importlib
importlib.import_module(sys.argv[2])
if len(sys.argv) > 3:
    from rtp.compose import load_two_stage
    load_two_stage(sys.argv[3])
print("ready", flush=True)
"""


def setup_time(src: Path, module: str, model: Path | None) -> float:
    """Seconds from process start until ready for the first input."""
    command = [sys.executable, "-c", PROBE, str(src), module] + ([str(model)] if model else [])
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def load_observations(rows_csv: Path) -> list:
    from rtp.ingest import parse_log, row_to_observation

    return [row_to_observation(row) for row in parse_log(rows_csv)]


def reference_answers(model_path: Path, observations: list) -> list[tuple[int, float]]:
    """compose.predict_batch over many rows per call, on rtp's own encoding."""
    from rtp.compose import load_two_stage, predict_batch
    from rtp.domain import DEFAULT_CONFIGS
    from rtp.model_zoo import variant_spec
    from rtp.preprocess import encode_dataset

    model = load_two_stage(model_path)
    answers = []
    # Chunks keep the forward caches small, so the benchmark's own checking
    # does not set the process's peak memory.
    for i in range(0, len(observations), REFERENCE_CHUNK):
        chunk = observations[i : i + REFERENCE_CHUNK]
        stage1, stage2 = (
            encode_dataset(chunk, variant_spec(m.variant_id).layout, DEFAULT_CONFIGS)
            for m in (model.stage1, model.stage2)
        )
        answers.extend((p.predicted_class, p.power_norm)
                       for p in predict_batch(model, stage1, stage2))
    return answers


def read_cli_answers(path: Path) -> list[tuple[int, float]]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return [(int(row["predicted_class"]), float(row["power_norm"])) for row in reader]


def answer_problems(got: list[tuple[int, float]], want: list[tuple[int, float]],
                    what: str, first_row: int = 1) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} answers for {len(want)} rows"]
    for row, ((cls, norm), (want_cls, want_norm)) in enumerate(zip(got, want), start=first_row):
        if cls != want_cls or not abs(norm - want_norm) <= ABS_TOL:
            return [f"{what}: row {row} gave class {cls} power_norm {norm!r}, "
                    f"expected class {want_cls} power_norm {want_norm!r}"]
    return []


def cli_predict(model_path: Path, rows_csv: Path, out_csv: Path) -> int:
    from rtp import cli

    return cli.main(["predict", "--model", str(model_path), "--in", str(rows_csv),
                     "--out", str(out_csv)])


def online_calls(model, observations: list, first: int, calls: int):
    """Closed loop, one caller: config lookup then compose.predict per row.

    Starts at row ``first``, wrapping round the rows. Returns per-call
    latencies and answers.
    """
    from rtp import compose, domain

    latencies: list[float] = []
    answers: list[tuple[int, float]] = []
    m = len(observations)
    clock = time.perf_counter
    for i in range(first, first + calls):
        obs = observations[i % m]
        start = clock()
        config = domain.config_for_date(obs.date)
        prediction = compose.predict(model, obs, config)
        latencies.append(clock() - start)
        answers.append((prediction.predicted_class, prediction.power_norm))
    return latencies, answers


class BenchRun:
    """State of one benchmark run: its inputs, checks, measurements and tracer."""

    def __init__(self, workload: str, seed: int, trace: bool, root: Path, work: Path) -> None:
        self.workload = workload
        self.src = root / "src"
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.unmeasured = layers.install(self.tracer) if trace else []
        self.clock = TrainClock()
        self.outcome = Outcome()
        rows = rowgen.generate_rows(ROW_FILES[workload] * BATCH_ROWS, seed)
        self.row_files = []
        for i in range(ROW_FILES[workload]):
            path = work / f"rows_{i}.csv"
            rowgen.write_csv(rows[i * BATCH_ROWS : (i + 1) * BATCH_ROWS], path)
            self.row_files.append(path)
        self.observations = [obs for path in self.row_files for obs in load_observations(path)]
        self.pipelines: list[dict] = []
        self.batch_s: list[float] = []
        self.slice_cpu_s: list[float] = []
        self.blocks: list[dict] = []
        self.latencies: list[float] = []
        self.slices = 0
        self.setup_s: list[float] = []

    def traced(self, fn, *args):
        """Call fn, recording spans when tracing."""
        self.tracer.active = self.trace
        try:
            return fn(*args)
        finally:
            self.tracer.active = False

    def add_pipeline(self, stats: dict) -> None:
        self.pipelines.append(stats)
        self.outcome.check([f"pipeline seed {stats['seed']}: {p}" for p in stats["problems"]])

    def serve(self, model_path: Path) -> None:
        """Load a model for the online caller, with the answers to check against."""
        from rtp import compose

        self.model_path = model_path
        self.model = self.traced(compose.load_two_stage, model_path)
        with self.tracer.paused():
            self.reference = reference_answers(model_path, self.observations)
            online_calls(self.model, self.observations, 0, WARMUP_CALLS)
        self.cli_answers: list[tuple[int, float] | None] = [None] * len(self.observations)
        self.next_file = 0
        self.online_done = [0] * len(self.row_files)

    def slice(self) -> None:
        """One rtp predict call on the next row file, then blocks of online calls."""
        index = self.next_file
        self.next_file = (index + 1) % len(self.row_files)
        self.slices += 1
        out_csv = self.work / "predictions.csv"
        cpu = cpu_seconds()
        start = time.perf_counter()
        code = self.traced(cli_predict, self.model_path, self.row_files[index], out_csv)
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu
        first = index * BATCH_ROWS
        if code != 0:
            self.outcome.check([f"rtp predict exited {code}"])
        else:
            answers = read_cli_answers(out_csv)
            want = self.reference[first : first + BATCH_ROWS]
            self.outcome.check(answer_problems(answers, want, "rtp predict", first + 1))
            if len(answers) == len(want):
                self.cli_answers[first : first + BATCH_ROWS] = answers

        # Online calls continue through the same file's rows; each is checked
        # against what rtp predict gave for that row.
        rows = self.observations[first : first + BATCH_ROWS]
        for _ in range(BLOCKS[self.workload]):
            offset = self.online_done[index]
            online_cpu = cpu_seconds()
            latencies, answers = self.traced(
                online_calls, self.model, rows, offset, LATENCY_BLOCK)
            cpu += cpu_seconds() - online_cpu
            self.online_done[index] += len(answers)
            for i, answer in enumerate(answers, start=offset):
                row = first + i % BATCH_ROWS
                where = f"online call on row {row + 1}"
                want = self.cli_answers[row]
                if want is None:
                    self.outcome.check([f"{where}: no rtp predict answer to compare with"])
                else:
                    self.outcome.check(answer_problems([answer], [want], where, row + 1))
            self.blocks.append(percentile.summarize(latencies))
            self.latencies.extend(latencies)
        self.batch_s.append(wall)
        self.slice_cpu_s.append(cpu)
        if not self.trace and (self.slices - 1) % PROBE_EVERY[self.workload] == 0:
            if self.workload == "desk_pipeline":
                self.setup_s.append(setup_time(self.src, "rtp.pipeline", None))
            else:
                self.setup_s.append(setup_time(self.src, "rtp.cli", self.model_path))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> Result:
    bench = BenchRun(workload, seed, trace, root, work)
    # Both workloads serve one a1+b2 model, built in a child process at a
    # fixed seed. In predict it is the measured pipeline, traced when tracing.
    model_trace = trace and workload == "predict"
    stats, child_spans = model_in_child(work / "model_0", model_trace)
    bench.tracer.extend(child_spans)
    if workload == "predict":
        bench.add_pipeline(stats)
    else:
        bench.outcome.check([f"serving model: {p}" for p in stats["problems"]])
    first_build = stats["artifacts"]
    bench.serve(work / "model_0" / "twostage.json")

    start = time.perf_counter()
    if workload == "desk_pipeline":
        # Slices run inside the pipelines, between train calls, except when
        # tracing: then they would nest inside the pipeline's spans.
        bench.clock.side = None if trace else bench.slice
        rounds = 0
        while True:
            run_seed = seed + rounds * PIPELINE_SEED_STRIDE
            bench.add_pipeline(bench.traced(
                pipeline_phase, work / f"pipeline_{rounds}", run_seed, {}, bench.clock))
            rounds += 1
            elapsed = time.perf_counter() - start
            # Stop when another round would end further past the deadline
            # than stopping now falls short of it.
            if trace or elapsed + 0.5 * elapsed / rounds >= seconds:
                break
        bench.clock.side = None

    # Slices for the rest of the run: all of it in predict, what the
    # pipelines left in desk_pipeline; a fixed number when tracing.
    while True:
        elapsed = time.perf_counter() - start
        if trace:
            if bench.slices >= TRACED_SLICES:
                break
        elif elapsed >= seconds and bench.slices:
            break
        rebuilt = len(bench.pipelines) - 1
        if (workload == "predict" and not trace and rebuilt < EXTRA_PIPELINES
                and elapsed >= (rebuilt + 1) * seconds / (EXTRA_PIPELINES + 1)):
            # The same seed must give the same model, byte for byte.
            stats, _ = model_in_child(work / f"model_{rebuilt + 1}", False)
            if stats["artifacts"] != first_build:
                stats["problems"].append("artifacts differ from the first build's")
            bench.add_pipeline(stats)
            continue
        bench.slice()

    pipelines = bench.pipelines
    online_s = bench.latencies
    detail = {
        "pipelines": [{k: v for k, v in p.items() if k not in ("problems", "train_epochs")}
                      for p in pipelines],
        "batch_call_s": bench.batch_s,
        "slice_cpu_s": bench.slice_cpu_s,
        "online_calls": len(online_s),
        "online_mean_ms": 1e3 * statistics.fmean(online_s),
        "block_p50_ms": [1e3 * b["p50"] for b in bench.blocks],
        "block_p99_ms": [1e3 * b["p99"] for b in bench.blocks],
    }
    if trace:
        metrics, layer_detail = layers.layer_metrics(bench.tracer.finished())
        detail.update(layer_detail, unmeasured=bench.unmeasured)
        return Result(bench.outcome, metrics, {}, detail)

    walls = [p["wall_s"] for p in pipelines]
    cpus = [p["cpu_s"] for p in pipelines]
    if workload == "desk_pipeline":
        # Each pipeline has its own seed and so its own amount of work.
        pipeline_s, pipeline_cpu = statistics.fmean(walls), statistics.fmean(cpus)
        pipeline_note = f"mean of {len(walls)} run_pipeline calls, one seed each"
        cpu_s, cpu_note = pipeline_cpu, f"process CPU per run_pipeline call, mean of {len(cpus)}"
    else:
        pipeline_s = min(walls)
        pipeline_note = f"fastest of {len(walls)} identical a1+b2 run_pipeline calls"
        cpu_s = statistics.fmean(bench.slice_cpu_s)
        cpu_note = (f"process CPU per slice ({BATCH_ROWS}-row rtp predict + "
                    f"{LATENCY_BLOCK} online calls), mean of {len(bench.slice_cpu_s)}")
    n_blocks = len(bench.blocks)
    pooled = percentile.summarize(bench.latencies)
    metrics = {
        "setup_s": statistics.median(bench.setup_s),
        "pipeline_s": pipeline_s,
        "train_samples_per_s": train_rate(pipelines),
        "predict_rows_per_s": BATCH_ROWS / min(bench.batch_s),
        "predict_latency_p50_ms": 1e3 * min(b["p50"] for b in bench.blocks),
        "predict_latency_p99_ms": 1e3 * statistics.median(b["p99"] for b in bench.blocks),
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "composed_accuracy": statistics.median(p["accuracy"] for p in pipelines),
        "composed_mae": statistics.median(p["mae"] for p in pipelines),
    }
    notes = {
        "setup_s": f"median of {len(bench.setup_s)} process starts, spread over the run",
        "pipeline_s": pipeline_note,
        "train_samples_per_s": "minibatch rows / seconds inside train, equal mix of variants",
        "predict_rows_per_s": f"fastest of {len(bench.batch_s)} rtp predict calls of {BATCH_ROWS} rows",
        "predict_latency_p50_ms": f"lowest of {n_blocks} blocks of {LATENCY_BLOCK} calls",
        "predict_latency_p99_ms": (f"median over {n_blocks} blocks of {LATENCY_BLOCK} calls; "
                                   f"all {pooled['n']} calls' p{pooled['tail_percentile']:g} = "
                                   f"{1e3 * pooled['tail']:.4f} ms"),
        "cpu_s": cpu_note,
        "peak_rss_mb": "peak resident set of the benchmark process",
        "composed_accuracy": "report.json composed test accuracy, median",
        "composed_mae": "report.json composed test MAE, median",
    }
    return Result(bench.outcome, metrics, notes, detail)
