"""One benchmark run: generate the workload's inputs, time the pipeline on
them for a fixed number of seconds, check every output, report medians.

Load model: each stage submits its whole batch at once (a closed batch, no
arrival schedule). The only concurrency is the program's own thread pool,
with ``parallelism`` at most 2 and never above the CPUs this process may
use; all load comes from this one process.

An iteration starts from an empty workspace with the fill: all seven
stages, which gives ``pipeline_s``, the ``ask`` and ``categorize`` rates and
``analysis_s``. With tracing off, short phases then take turns until
``MIN_SAMPLE_S`` of each is timed, so that their medians rest on enough
samples and host contention spreads over all of them:

* reruns of ``categorize``, and of the four analysis stages, on the state
  they started from;
* resumes: a seeded share of answer and verdict records is cut and all
  stages rerun (``resume_s``);
* no-op reruns of all stages on the complete workspace (``noop_rerun_s``);
* cold starts of a fresh interpreter (``setup_s``).

Every fill, rerun and resume must reproduce the reference output digests.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Iterator, Optional

from perfbench.corpus_gen import CorpusSpec, GeneratedCorpus, generate_corpus
from perfbench.emulation import EndpointEmulation
from perfbench.pipeline import (
    ANALYSIS_STAGES,
    STAGES,
    Inputs,
    OperationCounter,
    PhaseRun,
    check_ingest,
    count_records,
    cut_stores,
    output_digests,
    run_stage,
    write_config,
)
from perfbench.trace import Tracer, install_probes, layer_metrics, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"

QUESTIONS = 28
BACKOFF_SECONDS = 0.01
MIN_SAMPLE_S = 0.8  # rerun a short phase until this much of it is timed
MAX_REPEATS = 8
CUT_FRACTION = 0.05  # share of answer and verdict records a resume redoes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    latency_scale: float = 0.0  # emulated delay = mock duration_ms * scale
    fault_rate: float = 0.0  # share of requests whose first attempt fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "offline-retrieval",
            "two-chunk documents, zero-latency mock: retrieval and tf-idf dominate the fill, resumes "
            "and no-op reruns show store costs; a gateway change should show no effect",
            CorpusSpec(docs=10, words=1200),
        ),
        Workload(
            "endpoint-latency",
            "one-chunk documents, emulated endpoint latency and 2% first-attempt faults: "
            "gateway overlap and retries dominate, so a retrieval change should show no effect",
            CorpusSpec(docs=10, words=300),
            latency_scale=1 / 500,
            fault_rate=0.02,
        ),
    )
}

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "ask_answers_per_s": "1/s",
    "categorize_verdicts_per_s": "1/s",
    "analysis_s": "s",
    "resume_s": "s",
    "noop_rerun_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overlap")):
        return "ratio"
    if name == "corpus.bytes_read":
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run: bad arguments or a broken reference run."""


def cpu_parallelism() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def cold_start(config: Path) -> float:
    """Seconds for a fresh interpreter to import the CLI and load the config,
    the questions and the prompt templates, as every CLI invocation does."""
    code = (
        "import sys\n"
        "from litrag import cli, prompts\n"
        "from litrag.extraction import load_competency_questions\n"
        "cli.load_config(sys.argv[1])\n"
        "load_competency_questions()\n"
        "prompts.default_registry()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, str(config)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def recorded_reference(workload: str, seed: int) -> Optional[dict[str, str]]:
    if not REFERENCE_FILE.is_file():
        return None
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return recorded.get(workload, {}).get(str(seed))


def reference_run(corpus: GeneratedCorpus, work: Path) -> dict[str, str]:
    """Digests of an uninterrupted parallelism-1 run without latency or faults."""
    config = work / "config-reference.yaml"
    write_config(config, parallelism=1, backoff_seconds=BACKOFF_SECONDS)
    mock = work / "mock"
    mock.mkdir(exist_ok=True)
    workspace = work / "reference"
    inputs = Inputs(corpus.directory, config, mock)
    for stage in STAGES:
        result = run_stage(stage, workspace, inputs)
        if result.exit_code:
            raise BenchError(f"reference run: {stage} failed: {result.error}")
    problems = check_ingest(workspace, corpus.dois, corpus.missing)
    if problems:
        raise BenchError("reference run: " + "; ".join(problems))
    digests = output_digests(workspace)
    shutil.rmtree(workspace)
    return digests


@contextlib.contextmanager
def restored(path: Path) -> Iterator[None]:
    """Put the file back as it was once the block ends."""
    saved = path.read_bytes()
    try:
        yield
    finally:
        path.write_bytes(saved)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    sample_counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()},
        })


class BenchmarkRun:
    def __init__(self, workload: Workload, seed: int, work: Path, parallelism: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.parallelism = parallelism
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.problems: list[str] = []
        self.stage_runs = 0
        self.stage_failures = 0
        self.counter = OperationCounter()
        self.emulation = EndpointEmulation(workload.latency_scale, workload.fault_rate, seed)
        self.cut_rng: Optional[Random] = None
        self.layer_samples: dict[str, list[float]] = defaultdict(list)
        self.last_spans: list = []

    # -- set-up ---------------------------------------------------------

    def prepare(self) -> None:
        self.corpus = generate_corpus(self.work / "corpus", self.workload.corpus, self.seed)
        self.expected_records = len(self.corpus.dois) * QUESTIONS * 5
        config = self.work / "config.yaml"
        write_config(config, parallelism=self.parallelism, backoff_seconds=BACKOFF_SECONDS)
        mock = self.work / "mock"
        mock.mkdir(exist_ok=True)
        self.inputs = Inputs(self.corpus.directory, config, mock)
        self.reference = recorded_reference(self.workload.name, self.seed)
        if self.reference is None:
            self.reference = reference_run(self.corpus, self.work)

    # -- checked phases -------------------------------------------------

    def _phase(self, workspace: Path, stages=STAGES,
               around: Optional[Callable[[str], contextlib.AbstractContextManager]] = None) -> PhaseRun:
        gc.collect()
        self.emulation.reset()
        phase = PhaseRun()
        for stage in stages:
            with around(stage) if around else contextlib.nullcontext():
                result = run_stage(stage, workspace, self.inputs)
            phase.stages.append(result)
            self.stage_runs += 1
            if result.exit_code:
                self.stage_failures += 1
                self.problems.append(f"{stage} exited {result.exit_code}: {result.error}")
        return phase

    def _expect_reference(self, workspace: Path, what: str) -> None:
        digests = output_digests(workspace)
        if digests != self.reference:
            wrong = sorted(k for k in set(digests) | set(self.reference) if digests.get(k) != self.reference.get(k))
            self.problems.append(f"{what}: {', '.join(wrong)} differ from the reference")

    def _expect_complete(self, workspace: Path, what: str) -> None:
        answers, verdicts = count_records(workspace)
        if (answers, verdicts) != (self.expected_records, self.expected_records):
            self.problems.append(
                f"{what}: {answers} answers and {verdicts} verdicts stored, "
                f"expected {self.expected_records} of each")

    def _fill(self, workspace: Path, around=None) -> PhaseRun:
        # every iteration cuts the same records, so traced counts repeat exactly
        self.cut_rng = Random(f"perfbench-cut:{self.workload.name}:{self.seed}")
        phase = self._phase(workspace, STAGES, around)
        self.problems += check_ingest(workspace, self.corpus.dois, self.corpus.missing)
        self._expect_reference(workspace, "fill")
        self._expect_complete(workspace, "fill")
        return phase

    def _resume(self, workspace: Path, around=None) -> PhaseRun:
        cut_stores(workspace, self.cut_rng, CUT_FRACTION)
        phase = self._phase(workspace, STAGES, around)
        self._expect_reference(workspace, "resume")
        self._expect_complete(workspace, "resume")
        return phase

    def _noop(self, workspace: Path, around=None) -> PhaseRun:
        phase = self._phase(workspace, STAGES, around)
        self._expect_reference(workspace, "no-op rerun")
        return phase

    @staticmethod
    def _round_robin(phases: list[tuple[Callable[[], float], float, int]]) -> None:
        """Run each (phase, seconds already timed, minimum runs) in turn until
        every phase has its minimum runs and MIN_SAMPLE_S of timing, or
        MAX_REPEATS runs. Interleaving spreads each phase's samples over the
        iteration, so a burst of host contention does not land on one phase
        only."""
        spent = [already for _, already, _ in phases]
        runs = [0] * len(phases)

        def wanted(i: int) -> bool:
            return runs[i] < phases[i][2] or (spent[i] < MIN_SAMPLE_S and runs[i] < MAX_REPEATS)

        while any(wanted(i) for i in range(len(phases))):
            for i, (run_once, _, _) in enumerate(phases):
                if wanted(i):
                    spent[i] += run_once()
                    runs[i] += 1

    # -- iterations -----------------------------------------------------

    def end_to_end_iteration(self, workspace: Path) -> None:
        fill = self._fill(workspace)
        records = self.expected_records
        categorize_s = fill.stage_seconds("categorize")
        analysis_s = sum(fill.stage_seconds(stage) for stage in ANALYSIS_STAGES)
        self.samples["pipeline_s"].append(fill.seconds)
        self.samples["ask_answers_per_s"].append(records / fill.stage_seconds("ask"))
        self.samples["categorize_verdicts_per_s"].append(records / categorize_s)
        self.samples["analysis_s"].append(analysis_s)
        timing = workspace / "logs" / "timing.csv"
        verdicts = workspace / "verdicts" / "verdicts.csv"
        verdict_bytes = verdicts.read_bytes()

        def recategorize() -> float:
            with restored(timing):
                verdicts.unlink()
                seconds = self._phase(workspace, ("categorize",)).seconds
            self.samples["categorize_verdicts_per_s"].append(records / seconds)
            if verdicts.read_bytes() != verdict_bytes:
                self.problems.append("categorize rerun: verdict store differs from the fill's")
            return seconds

        def reanalyse() -> float:
            with restored(timing):
                for name in ("votes/votes.csv", "filters/filters.csv"):
                    (workspace / name).unlink()
                shutil.rmtree(workspace / "reports")
                seconds = self._phase(workspace, ANALYSIS_STAGES).seconds
            self.samples["analysis_s"].append(seconds)
            self._expect_reference(workspace, "analysis rerun")
            return seconds

        def resume() -> float:
            seconds = self._resume(workspace).seconds
            self.samples["resume_s"].append(seconds)
            return seconds

        def setup() -> float:
            seconds = cold_start(self.inputs.config)
            self.samples["setup_s"].append(seconds)
            return seconds

        def noop() -> float:
            seconds = self._noop(workspace).seconds
            self.samples["noop_rerun_s"].append(seconds)
            return seconds

        self._round_robin([
            (recategorize, categorize_s, 0),
            (reanalyse, analysis_s, 0),
            (resume, 0.0, 1),
            (noop, 0.0, 1),
            (setup, 0.0, 1),
        ])

    def layer_iteration(self, workspace: Path, traced: bool) -> None:
        """Fill, one resume and one no-op rerun; traced or not."""
        tracer = Tracer() if traced else None
        around = (lambda stage: tracer.block(f"cli.{stage}")) if tracer else None
        overshoot = self.emulation.overshoot_s
        if tracer:
            install_probes(tracer)
        try:
            phases = [self._fill(workspace, around), self._resume(workspace, around), self._noop(workspace, around)]
        finally:
            if tracer:
                tracer.unpatch()
        if tracer:
            spans = tracer.take()
            self.samples["traced_pipeline_s"].append(phases[0].seconds)
            for name, value in layer_metrics(spans, self.parallelism).items():
                self.layer_samples[name].append(value)
            self.last_spans = spans
        else:
            self.samples["untraced_pipeline_s"].append(phases[0].seconds)
            for stage in STAGES:
                self.layer_samples[f"cli.{stage}_s"].append(sum(p.stage_seconds(stage) for p in phases))
            self.layer_samples["bench.latency_overshoot_s"].append(self.emulation.overshoot_s - overshoot)

    # -- the run --------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> None:
        self.counter.install()
        self.emulation.install()
        try:
            started = time.perf_counter()
            n = 0
            while not self.problems and (n < (2 if trace else 1) or time.perf_counter() - started < seconds):
                workspace = self.work / f"iteration-{n}"
                if trace:
                    self.layer_iteration(workspace, traced=n % 2 == 1)
                else:
                    self.end_to_end_iteration(workspace)
                shutil.rmtree(workspace)
                n += 1
        finally:
            self.emulation.uninstall()
            self.counter.uninstall()

    def result(self, trace: bool) -> RunResult:
        metrics: dict[str, tuple[float, str]] = {}
        counts: dict[str, int] = {}
        if trace:
            for name, values in self.layer_samples.items():
                metrics[name] = (median(values), per_layer_unit(name))
                counts[name] = len(values)
            overhead = median(self.samples["traced_pipeline_s"]) - median(self.samples["untraced_pipeline_s"])
            metrics["trace.overhead_s"] = (overhead, "s")
            counts["trace.overhead_s"] = len(self.samples["traced_pipeline_s"])
        else:
            self.samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
            for name, unit in END_TO_END.items():
                metrics[name] = (median(self.samples[name]), unit)
                counts[name] = len(self.samples[name])
        attempted = self.counter.requests + self.stage_runs
        failed = self.counter.failed + self.stage_failures
        return RunResult(
            correct=not self.problems,
            attempted=attempted,
            failed=failed,
            metrics=metrics,
            sample_counts=counts,
            problems=list(self.problems),
        )


def run_workload(workload_name: str, seed: int, seconds: float, trace: bool, spans_out: Optional[Path] = None) -> RunResult:
    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload {workload_name!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    work = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = BenchmarkRun(workload, seed, work, cpu_parallelism())
        run.prepare()
        if not trace:
            cold_start(run.inputs.config)  # may compile bytecode; not timed
        run.measure(seconds, trace)
        result = run.result(trace)
        if trace and spans_out is not None:
            write_spans(spans_out, run.last_spans)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench_work").rmdir()
