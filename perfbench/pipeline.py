"""Drive the litrag pipeline through its public CLI and check what it wrote.

Every stage is one in-process call of ``litrag.cli.main``, in the order
``litrag all`` runs them, against the ``--mock`` offline backend. Output
digests cover the votes, the filter verdicts and every report CSV; the
answer and verdict stores are left out because their formats are expected
to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Optional

from litrag import cli
from litrag.gateway import LlmGateway

STAGES = ("ingest", "ask", "categorize", "vote", "filter", "footprint", "report")
ANALYSIS_STAGES = ("vote", "filter", "footprint", "report")
_CORPUS_STAGES = ("ingest", "ask", "filter")

# The five endpoints of the repository's offline fixture config.
ENDPOINTS = (
    ("Llama 3 70B", "llama3-70b-8192"),
    ("Llama 3.1 70B", "llama-3.1-70b-versatile"),
    ("Mixtral 8x22B Instruct v0.1", "mixtral-8x22b-instruct"),
    ("Mixtral 8x7B", "mixtral-8x7b-32768"),
    ("Gemma 2 9B", "gemma2-9b-it"),
)


def write_config(path: Path, parallelism: int, backoff_seconds: float) -> None:
    """Paper-default chunking (1000/50, budget 1200) over the fixture endpoints."""
    lines = ["endpoints:"]
    for name, model_id in ENDPOINTS:
        lines += [f'  - name: "{name}"', f'    model_id: "{model_id}"', '    api_key_env: ""']
    lines += [
        "chunking: {chunk_size: 1000, chunk_overlap: 50}",
        "retrieval_budget: 1200",
        f"parallelism: {parallelism}",
        'tie_rule: "no"',
        'filter_endpoint: "Llama 3.1 70B"',
        "max_attempts: 3",
        f"backoff_seconds: {backoff_seconds}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    """Everything one pipeline run reads: corpus, config and canned replies."""

    corpus: Path
    config: Path
    mock: Path


@dataclass
class StageRun:
    stage: str
    seconds: float
    exit_code: int
    error: str = ""


class OperationCounter:
    """Counts gateway requests and the ones that failed.

    A request fails when an exception leaves ``LlmGateway.complete``, even
    if the caller swallows it afterwards.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.failed = 0
        self._lock = threading.Lock()
        self._original: Optional[Callable] = None

    def install(self) -> None:
        original = self._original = LlmGateway.complete
        counter = self

        def complete(gateway, *args, **kwargs):
            try:
                return original(gateway, *args, **kwargs)
            except BaseException:
                with counter._lock:
                    counter.failed += 1
                raise
            finally:
                with counter._lock:
                    counter.requests += 1

        LlmGateway.complete = complete

    def uninstall(self) -> None:
        if self._original is not None:
            LlmGateway.complete = self._original
            self._original = None


def run_stage(stage: str, workspace: Path, inputs: Inputs) -> StageRun:
    """One CLI subcommand, timed; its stdout is kept out of the benchmark's."""
    args = [
        stage,
        "--config", str(inputs.config),
        "--workspace", str(workspace),
        "--mock", str(inputs.mock),
    ]
    if stage in _CORPUS_STAGES:
        args += ["--corpus", str(inputs.corpus)]
    out = io.StringIO()
    error = ""
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(args, prog_name="litrag", standalone_mode=False)
    except Exception as exc:  # a stage that raises counts as a failed operation
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    code = code or 0
    if code and not error:
        error = out.getvalue().strip()[-500:]
    return StageRun(stage=stage, seconds=seconds, exit_code=code, error=error)


@dataclass
class PhaseRun:
    """All seven stages, in order, on one workspace."""

    stages: list[StageRun] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.stages)

    def stage_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.stages if s.stage == name)


def output_files(workspace: Path) -> list[Path]:
    reports = sorted((workspace / "reports").glob("*.csv"))
    return [workspace / "votes" / "votes.csv", workspace / "filters" / "filters.csv", *reports]


def output_digests(workspace: Path) -> dict[str, str]:
    """sha256 of votes.csv, filters.csv and reports/*.csv, keyed by relative path."""
    digests = {}
    for path in output_files(workspace):
        rel = path.relative_to(workspace).as_posix()
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
    return digests


def count_records(workspace: Path) -> tuple[int, int]:
    """(answers, verdicts) currently stored in the workspace."""
    answers = workspace / "answers" / "answers.jsonl"
    verdicts = workspace / "verdicts" / "verdicts.csv"
    n_answers = sum(1 for line in answers.read_bytes().splitlines() if line.strip()) if answers.is_file() else 0
    n_verdicts = max(0, len(verdicts.read_bytes().splitlines()) - 1) if verdicts.is_file() else 0
    return n_answers, n_verdicts


def _drop_lines(path: Path, rng: Random, fraction: float, keep_header: bool) -> None:
    header, lines = b"", path.read_bytes().splitlines(keepends=True)
    if keep_header:
        header, lines = lines[0], lines[1:]
    drop = set(rng.sample(range(len(lines)), max(1, round(fraction * len(lines)))))
    path.write_bytes(header + b"".join(line for i, line in enumerate(lines) if i not in drop))


def cut_stores(workspace: Path, rng: Random, fraction: float) -> None:
    """Drop a seeded subset of whole records from the answer and verdict
    stores, as an interrupted ``ask`` or ``categorize`` leaves them.

    Records are cut on line boundaries: a torn final line is a known store
    defect that this benchmark does not time.
    """
    _drop_lines(workspace / "answers" / "answers.jsonl", rng, fraction, keep_header=False)
    _drop_lines(workspace / "verdicts" / "verdicts.csv", rng, fraction, keep_header=True)


def check_ingest(workspace: Path, expected_dois: tuple[str, ...], expected_missing: tuple[str, ...]) -> list[str]:
    """The citation list and skip report must match what the generator wrote."""
    problems = []
    citations = (workspace / "corpus" / "citations.csv").read_text(encoding="utf-8").splitlines()[1:]
    got = tuple(line.split(",", 1)[0] for line in citations)
    if got != expected_dois:
        problems.append(f"citations.csv lists {len(got)} DOI(s), expected {len(expected_dois)} in first-occurrence order")
    skipped = (workspace / "corpus" / "skip_report.csv").read_text(encoding="utf-8").splitlines()[1:]
    got = tuple(line.split(",", 1)[0] for line in skipped)
    if got != expected_missing:
        problems.append(f"skip_report.csv lists {got}, expected {expected_missing}")
    return problems
