"""Subcommand CLI wiring the pipeline stages over a workspace directory.

Every stage reads the artifacts of the previous stage from the workspace and
writes its own; rerunning a stage on unchanged inputs is a no-op. ``ask``,
``categorize``, ``vote``, ``filter``, ``footprint`` and ``report`` record a
digest of their inputs and outputs in ``logs/<stage>.digest.json`` and skip
their work when neither changed. Every digest covers the stage name, the
config and the litrag sources and data (which hold the questions and the
prompt templates), and then what the stage reads:

* ``ask``: the selected endpoint names, the corpus and the backend;
* ``categorize``: ``answers.jsonl`` and the backend;
* ``filter``: the corpus and the backend;
* ``vote``: ``verdicts.csv``; ``footprint``: ``timing.csv``;
* ``report``: the vote, filter, answer and verdict stores.

The corpus is covered as the stage loads it: the bibliography file and each
publication's DOI and full text. The backend is the sha256 of each reply
file of the ``--mock`` directory, or the mark of a live run. The outputs are
the stage's store or report files. A run in which an item failed writes no
record, so the next run makes its requests again; a deleted or edited
output, such as a deleted store, also runs the stage. ``ingest``,
``keywords`` and ``evaluate`` always run. With ``--mock <dir>`` the run is
fully offline and deterministic.

Each subcommand is one function, registered with its options by `_command`.
The ``all`` command calls the stage functions in order and stops at the first
one that exits non-zero.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import click

from . import keywords as keywords_mod
from . import appendlog, metrics, reports, textsim
from .config import PipelineConfig, load_config
from .corpus import CorpusLoad, load_corpus
from .errors import MissingArtifactError, PipelineError
from .extraction import (
    AnswerStore,
    RunResult,
    load_competency_questions,
    run_matrix,
    run_requests,
)
from .footprint import HardwareProfile, footprint_from_log
from .gateway import HttpBackend, LlmGateway, MockBackend, TimingLog
from .voting import (
    CategoricalAnswer,
    FilterStore,
    VerdictStore,
    Verdict,
    VoteStore,
    filter_dl_publication,
    run_conversions,
    vote_all,
)

log = logging.getLogger(__name__)

# Per-core draw of the 48-core CPU assumed by the default footprint profile
# (350 W TDP spread over 48 cores).
DEFAULT_PROFILE = HardwareProfile(
    name="intel-xeon-platinum-9242", cores=48, power_per_core=350 / 48, usage=1.0
)

# The package's own sources and data; every skip digest covers them, so an
# edited or upgraded litrag never serves tables an older one wrote.
PACKAGE_DIR = Path(__file__).resolve().parent

SUBDIRS = ("corpus", "keywords", "answers", "verdicts", "votes", "filters", "reports", "logs")


@dataclass
class Workspace:
    root: Path

    def __post_init__(self) -> None:
        for sub in SUBDIRS:
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    def path(self, *parts: str) -> Path:
        return self.root.joinpath(*parts)

    @property
    def answers(self) -> Path:
        return self.path("answers", "answers.jsonl")

    @property
    def verdicts(self) -> Path:
        return self.path("verdicts", "verdicts.csv")

    @property
    def votes(self) -> Path:
        return self.path("votes", "votes.csv")

    @property
    def filters(self) -> Path:
        return self.path("filters", "filters.csv")

    @property
    def timing(self) -> Path:
        return self.path("logs", "timing.csv")

    @property
    def reports_dir(self) -> Path:
        return self.path("reports")


@dataclass
class RunContext:
    config: PipelineConfig
    workspace: Workspace
    mock_dir: Optional[Path]

    @contextlib.contextmanager
    def gateway(self) -> Iterator[LlmGateway]:
        """A gateway for one stage. Its timing log starts empty; when the
        stage ends, also by an exception, its entries are appended to the
        workspace's timing log from the calling thread."""
        backend = (
            MockBackend.from_dir(self.mock_dir) if self.mock_dir is not None else HttpBackend()
        )
        gateway = LlmGateway(
            backend,
            max_attempts=self.config.max_attempts,
            backoff_seconds=self.config.backoff_seconds,
        )
        try:
            yield gateway
        finally:
            gateway.timing_log.append_csv(self.workspace.timing)


@click.group()
@click.option("--verbose", is_flag=True, help="Debug logging.")
def main(verbose: bool) -> None:
    """Extract deep-learning methodology reporting from a publication corpus
    with an ensemble of LLM endpoints."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


# Every subcommand takes these first, in this order.
SHARED_OPTIONS = (
    click.option("--mock", "mock_dir", type=click.Path(exists=True, file_okay=False),
                 default=None, help="Directory of canned responses; enables the offline backend."),
    click.option("--workspace", type=click.Path(), default="workspace",
                 show_default=True, help="Artifact directory for this run."),
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="YAML config file."),
)
CORPUS_OPTION = click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)


def _command(name: str, *options: Callable) -> Callable:
    """Register ``fn(ctx, **options)`` as subcommand ``name``, with the
    shared options and then ``options``; its docstring is the help. The
    subcommand builds the `RunContext`, reports a `PipelineError` as
    ``Error: ...`` with exit status 1, and exits with the status ``fn``
    returns. ``fn`` itself is returned unchanged."""

    def register(fn: Callable) -> Callable:
        def command(config_path, workspace, mock_dir, **kwargs) -> None:
            try:
                ctx = RunContext(
                    config=load_config(config_path),
                    workspace=Workspace(Path(workspace)),
                    mock_dir=Path(mock_dir) if mock_dir is not None else None,
                )
                status = fn(ctx, **kwargs)
            except PipelineError as exc:
                raise click.ClickException(str(exc)) from exc
            if status:
                click.get_current_context().exit(status)

        for option in reversed((*SHARED_OPTIONS, *options)):
            command = option(command)
        main.command(name, help=fn.__doc__)(command)
        return fn

    return register


def _require(path: Path, stage: str) -> Path:
    if not path.is_file():
        raise MissingArtifactError(str(path), stage)
    return path


def _file_sha256(path: Path) -> Optional[str]:
    """The sha256 of a file's bytes, read a block at a time; None if it is missing."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    digest = hashlib.sha256()
    with fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def _hashed(label: str, paths: Iterable[Path]) -> list[str]:
    """One digest line per file: ``label/<name>`` and the sha256 of its bytes."""
    return [f"{label}/{p.name} {_file_sha256(p)}" for p in paths]


def _corpus_inputs(load: CorpusLoad) -> list[str]:
    """The digest lines of the corpus as a stage reads it: the bibliography's
    bytes and each publication's DOI and full text, so an edited text, an
    edited bibliography and a new text for a skipped citation each count."""
    lines = _hashed("corpus", [load.bibliography])
    for pub in load.publications:
        text = hashlib.sha256(pub.full_text.encode("utf-8")).hexdigest()
        lines.append(f"text {pub.citation.doi} {text}")
    return lines


def _backend_inputs(ctx: RunContext) -> list[str]:
    """The digest lines of the backend: each reply file the mock serves, or a live run."""
    if ctx.mock_dir is None:
        return ["backend live"]
    return ["backend mock", *_hashed("mock", sorted(ctx.mock_dir.glob("*.txt")))]


def _counts(stage: str, noun: str, new: int, stored: int, failed: int) -> str:
    return f"{stage}: {new} new {noun}(s), {stored} already stored, {failed} failed"


def _unless_unchanged(
    ctx: RunContext,
    stage: str,
    run: Callable[[], str | RunResult],
    outputs: Sequence[Path],
    requires: Sequence[tuple[Path, str]] = (),
    inputs: Sequence[str] = (),
    noun: str = "",
) -> int:
    """Call ``run``, which writes ``outputs``, print its summary line and
    return the exit status. ``run`` returns that line, or, for a stage that
    sends requests, its `RunResult`, printed as
    ``<stage>: N new <noun>(s), M already stored, K failed`` with each failed
    item after it on stderr. ``requires`` pairs each workspace file the stage
    reads with the stage that writes it; a missing one raises
    `MissingArtifactError`.

    ``logs/<stage>.digest.json`` records a digest of what the outputs depend
    on (the stage, the config, the litrag sources and data files, which hold
    the question list, the ``requires`` files and the ``inputs`` lines), the
    sha256 of each output and the line a rerun on unchanged inputs prints.
    When that digest is unchanged and every output still has its recorded
    sha256, ``run`` is skipped and the recorded line printed. An unreadable
    record runs it. A run in which an item failed writes no record and exits 1.
    """
    required = _hashed("workspace", [_require(path, writer) for path, writer in requires])
    sources = sorted(PACKAGE_DIR.rglob("*.py")) + sorted(PACKAGE_DIR.rglob("*.txt"))
    lines = [stage, repr(ctx.config)]
    lines += [f"{p.relative_to(PACKAGE_DIR).as_posix()} {_file_sha256(p)}" for p in sources]
    lines += required + list(inputs)
    key = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def output_digests() -> dict[str, Optional[str]]:
        return {p.relative_to(ctx.workspace.root).as_posix(): _file_sha256(p) for p in outputs}

    record_path = ctx.workspace.path("logs", f"{stage}.digest.json")
    try:
        record = json.loads(record_path.read_bytes())
        fresh = record["inputs"] == key and record["outputs"] == output_digests()
        summary = record["summary"]
    except (OSError, ValueError, LookupError, TypeError):
        fresh = False
    if fresh and isinstance(summary, str):
        click.echo(summary)
        return 0

    outcome = run()
    if isinstance(outcome, RunResult):
        click.echo(_counts(stage, noun, outcome.completed, outcome.skipped, len(outcome.failed)))
        for *item, error in outcome.failed[:10]:
            click.echo(f"  failed: {'|'.join(map(str, item))}: {error}", err=True)
        if outcome.failed:
            return 1
        # what the body prints when it runs again on these inputs
        summary = _counts(stage, noun, 0, outcome.completed + outcome.skipped, 0)
    else:
        summary = outcome
        click.echo(summary)
    record = {"inputs": key, "outputs": output_digests(), "summary": summary}
    appendlog.replace_file(record_path, [json.dumps(record, indent=1) + "\n"])
    return 0


@_command(
    "ingest",
    CORPUS_OPTION,
    click.option("--fetch-command", default=None,
                 help="External command invoked as CMD <doi> to fetch missing full texts."),
)
def _do_ingest(ctx: RunContext, corpus_dir: str, fetch_command: Optional[str] = None) -> None:
    """Parse the bibliography, attach full texts, write the skip report."""
    load = load_corpus(corpus_dir, fetch_command=fetch_command)
    # the only stage that reports skipped citations; ask and filter reread the
    # corpus without repeating them
    for doi, reason in load.skipped:
        log.warning("skipped %s: %s", doi, reason)
    with open(ctx.workspace.path("corpus", "citations.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doi", "title", "year", "venue", "word_count"])
        for pub in load.publications:
            c = pub.citation
            writer.writerow([c.doi, c.title, c.year if c.year is not None else "", c.venue, pub.word_count])
    with open(ctx.workspace.path("corpus", "skip_report.csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doi", "reason"])
        for doi, reason in load.skipped:
            writer.writerow([doi, reason])
    # parse errors and entries without a DOI, in file order
    problems = [(error.offset, error.message) for error in load.parse.errors]
    problems += [(e.offset, f"entry {e.key} has no DOI") for e in load.parse.without_doi]
    for offset, message in sorted(problems):
        click.echo(f"{load.bibliography.name}: byte {offset}: {message}", err=True)
    click.echo(
        f"ingest: {len(load.publications)} publication(s), "
        f"{len(load.skipped)} skipped, {len(load.parse.errors)} parse error(s)"
    )


@_command(
    "ask",
    CORPUS_OPTION,
    click.option("--endpoints", "endpoint_names", default=None,
                 help="Comma-separated endpoint subset."),
    click.option("--resume/--no-resume", default=True, show_default=True,
                 help="Skip answers already in the store; --no-resume first deletes the "
                      "answer and verdict stores."),
)
def _do_ask(
    ctx: RunContext, corpus_dir: str, endpoint_names: Optional[str], resume: bool = True
) -> int:
    """Answer every question for every publication on every endpoint."""
    names = endpoint_names.split(",") if endpoint_names else None
    if not resume:
        # verdicts were made from the answers being discarded
        ctx.workspace.answers.unlink(missing_ok=True)
        ctx.workspace.verdicts.unlink(missing_ok=True)
    load = load_corpus(corpus_dir)
    endpoints = ctx.config.select_endpoints(names)

    def run() -> RunResult:
        with ctx.gateway() as gateway:
            return run_matrix(
                load.publications,
                load_competency_questions(),
                endpoints,
                gateway,
                AnswerStore(ctx.workspace.answers),
                chunking=ctx.config.chunking,
                budget=ctx.config.retrieval_budget,
                parallelism=ctx.config.parallelism,
            )

    inputs = [f"endpoints {json.dumps([e.name for e in endpoints])}"]
    inputs += _corpus_inputs(load) + _backend_inputs(ctx)
    return _unless_unchanged(ctx, "ask", run, [ctx.workspace.answers], inputs=inputs, noun="answer")


@_command("categorize")
def _do_categorize(ctx: RunContext) -> int:
    """Convert stored textual answers into Yes/No verdicts."""

    def run() -> RunResult:
        questions = {q.id: q for q in load_competency_questions()}
        endpoints = {e.name: e for e in ctx.config.endpoints}
        with ctx.gateway() as gateway:
            return run_conversions(
                AnswerStore(ctx.workspace.answers).load(),
                questions,
                endpoints,
                gateway,
                VerdictStore(ctx.workspace.verdicts),
                parallelism=ctx.config.parallelism,
            )

    return _unless_unchanged(
        ctx, "categorize", run, [ctx.workspace.verdicts],
        requires=[(ctx.workspace.answers, "ask")], inputs=_backend_inputs(ctx), noun="verdict",
    )


@_command("vote")
def _do_vote(ctx: RunContext) -> int:
    """Aggregate per-endpoint verdicts with a hard majority vote."""

    def run() -> str:
        votes = vote_all(VerdictStore(ctx.workspace.verdicts).load(), tie_rule=ctx.config.tie_rule)
        VoteStore(ctx.workspace.votes).write(votes)
        yes = sum(1 for v in votes if v.decision is Verdict.YES)
        return f"vote: {len(votes)} decision(s), {yes} Yes"

    return _unless_unchanged(
        ctx, "vote", run, [ctx.workspace.votes], requires=[(ctx.workspace.verdicts, "categorize")]
    )


@_command("filter", CORPUS_OPTION)
def _do_filter(ctx: RunContext, corpus_dir: str) -> int:
    """Judge which publications actually describe a deep-learning study."""
    load = load_corpus(corpus_dir)

    def run() -> RunResult:
        store = FilterStore(ctx.workspace.filters)
        existing = store.keys()
        pubs = sorted(load.publications, key=lambda p: p.citation.doi)
        pending = [pub for pub in pubs if pub.citation.doi not in existing]
        result = RunResult(skipped=len(pubs) - len(pending))
        endpoint = ctx.config.endpoint(ctx.config.filter_endpoint)
        with ctx.gateway() as gateway:
            return run_requests(
                [pending],
                lambda pub: filter_dl_publication(
                    pub,
                    endpoint,
                    gateway,
                    chunking=ctx.config.chunking,
                    budget=ctx.config.retrieval_budget,
                ),
                lambda pub: (pub.citation.doi,),
                store,
                ctx.config.parallelism,
                result,
            )

    inputs = _corpus_inputs(load) + _backend_inputs(ctx)
    return _unless_unchanged(
        ctx, "filter", run, [ctx.workspace.filters], inputs=inputs, noun="verdict"
    )


def _read_reference_csv(path: str | Path, question_ids: bool) -> metrics.LabelSeries:
    """The Yes/No labels of a reference CSV (doi, variable, label), keyed by
    (doi, variable); with ``question_ids`` each variable is a question id.
    A defect in the file is a `PipelineError` naming the file and the line."""
    labels: dict[tuple, str] = {}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            for column in ("doi", "variable", "label"):
                if column not in (reader.fieldnames or ()):
                    raise PipelineError(f"{path}: no {column!r} column")
            for row in reader:
                where = f"{path}: line {reader.line_num}"
                variable, label = row["variable"], row["label"]
                if question_ids:
                    try:
                        variable = int(variable)
                    except (TypeError, ValueError):
                        raise PipelineError(
                            f"{where}: variable {variable!r} is not a question id"
                        ) from None
                if label not in metrics.BINARY_LABELS:
                    raise PipelineError(f"{where}: label {label!r} is neither Yes nor No")
                key = (row["doi"], variable)
                if key in labels:
                    raise PipelineError(f"{where}: a second label for {key}")
                labels[key] = label
    except OSError as exc:
        raise PipelineError(f"cannot read reference {path}: {exc}") from exc
    if not labels:
        raise PipelineError(f"{path}: no labels")
    return metrics.LabelSeries(keys=tuple(labels), labels=tuple(labels.values()))


def _labels_by_endpoint(
    verdicts: Iterable[CategoricalAnswer], names: Iterable[str]
) -> dict[str, dict[tuple[str, int], str]]:
    """``{endpoint: {(doi, cq_id): "Yes" or "No"}}`` for the named endpoints,
    in one pass; Unparseable counts as No, matching the voting rule."""
    labels: dict[str, dict[tuple[str, int], str]] = {name: {} for name in names}
    for v in verdicts:
        if v.endpoint in labels:
            labels[v.endpoint][(v.doi, v.cq_id)] = "Yes" if v.verdict is Verdict.YES else "No"
    return labels


@_command(
    "evaluate",
    click.option("--reference", default=None,
                 help="CSV (doi,variable,label) with variable = question id."),
    click.option("--voting-reference", default=None,
                 help="CSV (doi,variable,label) with reference variables for the vote comparison."),
)
def _do_evaluate(
    ctx: RunContext, reference: Optional[str] = None, voting_reference: Optional[str] = None
) -> None:
    """Compare verdicts and vote decisions against human reference labels."""
    reference = reference or ctx.config.reference_labels
    voting_reference = voting_reference or ctx.config.voting_reference
    if reference is None and voting_reference is None:
        raise PipelineError(
            "evaluate needs --reference and/or --voting-reference (or config keys "
            "reference_labels / voting_reference)"
        )
    wrote = []
    if reference is not None:
        _require(ctx.workspace.verdicts, "categorize")
        labels_by_endpoint = _labels_by_endpoint(
            VerdictStore(ctx.workspace.verdicts).load(), [e.name for e in ctx.config.endpoints]
        )
        ref_series = _read_reference_csv(reference, question_ids=True)
        ref_keys = ref_series.keys
        stats = []
        for endpoint in ctx.config.endpoints:
            by_key = labels_by_endpoint[endpoint.name]
            missing = [key for key in ref_keys if key not in by_key]
            if missing:
                raise PipelineError(
                    f"endpoint {endpoint.name} has no verdict for {missing[0]}"
                )
            llm_series = metrics.LabelSeries(
                keys=ref_keys,
                labels=tuple(by_key[key] for key in ref_keys),
            )
            agree, total = metrics.agreement_counts(llm_series, ref_series)
            kappa = metrics.cohen_kappa(llm_series, ref_series)
            stats.append((endpoint.name, agree, total, kappa))
        header, rows = reports.agreement_rows(stats)
        reports.write_report(ctx.workspace.reports_dir, "categorical_agreement", header, rows)
        wrote.append("categorical_agreement")
    if voting_reference is not None:
        _require(ctx.workspace.votes, "vote")
        if not ctx.config.cq_variable_mapping:
            raise PipelineError("config key cq_variable_mapping is required for the voting comparison")
        votes = VoteStore(ctx.workspace.votes).load()
        ref_series = _read_reference_csv(voting_reference, question_ids=False)
        try:
            comparison = metrics.compare_with_reference(
                ctx.config.cq_variable_mapping, votes, ref_series
            )
        except ValueError as exc:
            raise PipelineError(f"voting comparison with {voting_reference}: {exc}") from exc
        header, rows = reports.reference_rows(comparison)
        reports.write_report(ctx.workspace.reports_dir, "reference_comparison", header, rows)
        wrote.append("reference_comparison")
    click.echo(f"evaluate: wrote {', '.join(wrote)}")


@_command("footprint")
def _do_footprint(ctx: RunContext) -> int:
    """Estimate energy, carbon, and tree-months from the timing log."""

    def run() -> str:
        profile = ctx.config.hardware_profile or DEFAULT_PROFILE
        rows = footprint_from_log(
            TimingLog.load_csv(ctx.workspace.timing),
            profile,
            intensity=ctx.config.location_intensity,
            tree_month_constant=ctx.config.tree_month_constant,
        )
        header, out = reports.footprint_rows(rows)
        reports.write_report(ctx.workspace.reports_dir, "footprint", header, out)
        return f"footprint: wrote footprint report for profile {profile.name}"

    outputs = reports.report_files(ctx.workspace.reports_dir, "footprint")
    return _unless_unchanged(
        ctx, "footprint", run, outputs, requires=[(ctx.workspace.timing, "ask")]
    )


REPORT_TABLES = ("coverage", "similarity", "iaa_pairs")


@_command("report")
def _do_report(ctx: RunContext) -> int:
    """Write the coverage, similarity, and pairwise-agreement tables."""
    requires = [
        (ctx.workspace.votes, "vote"),
        (ctx.workspace.filters, "filter"),
        (ctx.workspace.answers, "ask"),
        (ctx.workspace.verdicts, "categorize"),
    ]
    outputs = [
        path for name in REPORT_TABLES
        for path in reports.report_files(ctx.workspace.reports_dir, name)
    ]
    return _unless_unchanged(ctx, "report", lambda: _report(ctx), outputs, requires=requires)


def _report(ctx: RunContext) -> str:
    votes = VoteStore(ctx.workspace.votes).load()
    filters = {v.doi: v.is_dl_study for v in FilterStore(ctx.workspace.filters).load()}
    questions = {q.id: q.text for q in load_competency_questions()}

    coverage = metrics.per_cq_coverage(votes, filters)
    header, rows = reports.coverage_rows(coverage, questions)
    reports.write_report(ctx.workspace.reports_dir, "coverage", header, rows)

    answers = AnswerStore(ctx.workspace.answers).load()
    # compare the configured endpoints that answered, such as after `ask --endpoints`
    answered = {a.endpoint for a in answers}
    endpoint_names = [e.name for e in ctx.config.endpoints if e.name in answered]
    # one tokenization per answer serves both similarity matrices
    terms_by_endpoint = {
        name: {
            (a.doi, a.cq_id): textsim.term_counts(a.clean_text)
            for a in answers
            if a.endpoint == name
        }
        for name in endpoint_names
    }
    _require_complete(terms_by_endpoint, "answers", "ask")
    retained = {doi for doi, keep in filters.items() if keep}
    terms_after = {
        name: {key: terms for key, terms in answers_for.items() if key[0] in retained}
        for name, answers_for in terms_by_endpoint.items()
    }
    similarity_before = metrics.average_pairwise_similarity(terms_by_endpoint)
    similarity_after = (
        metrics.average_pairwise_similarity(terms_after)
        if all(terms_after.values())
        else None
    )
    header, rows = reports.pair_rows(similarity_before, similarity_after, "cosine_similarity")
    reports.write_report(ctx.workspace.reports_dir, "similarity", header, rows)

    labels_by_endpoint = _labels_by_endpoint(
        VerdictStore(ctx.workspace.verdicts).load(), endpoint_names
    )
    keys = sorted(_require_complete(labels_by_endpoint, "verdicts", "categorize"))
    kept_keys = [k for k in keys if k[0] in retained]
    # like the similarity table, drop the after-filtering column when the
    # filter retained nothing to compare
    header = ["pair", "kappa_all_publications"] + (["kappa_after_filtering"] if kept_keys else [])
    kappa_stats: list[list[str]] = []
    for i, a in enumerate(endpoint_names):
        for b in endpoint_names[i + 1:]:
            row = [f"{a} - {b}", reports.fmt4(_pair_kappa(labels_by_endpoint, a, b, keys))]
            if kept_keys:
                row.append(reports.fmt4(_pair_kappa(labels_by_endpoint, a, b, kept_keys)))
            kappa_stats.append(row)
    reports.write_report(ctx.workspace.reports_dir, "iaa_pairs", header, kappa_stats)
    return f"report: wrote {', '.join(REPORT_TABLES)}"


def _require_complete(by_endpoint: dict[str, dict], what: str, stage: str) -> set:
    """The keys any endpoint holds; raises `PipelineError` naming an endpoint
    that lacks some of them."""
    keys: set = set().union(*by_endpoint.values())
    for name, records in by_endpoint.items():
        if len(records) < len(keys):
            raise PipelineError(
                f"endpoint {name} has {what} for {len(records)} of {len(keys)} items; "
                f"rerun {stage}"
            )
    return keys


def _pair_kappa(labels_by_endpoint, a: str, b: str, keys) -> float:
    series_a = metrics.LabelSeries(
        keys=tuple(keys), labels=tuple(labels_by_endpoint[a][k] for k in keys)
    )
    series_b = metrics.LabelSeries(
        keys=tuple(keys), labels=tuple(labels_by_endpoint[b][k] for k in keys)
    )
    return metrics.cohen_kappa(series_a, series_b)


@_command(
    "keywords",
    click.option("--abstracts", "abstracts_dir", type=click.Path(exists=True), required=True,
                 help="Directory of one UTF-8 .txt abstract per file."),
    click.option("--endpoint", "endpoint_name", default=None,
                 help="Endpoint used for extraction and consolidation "
                      "(default: first configured)."),
)
def _do_keywords(ctx: RunContext, abstracts_dir: str, endpoint_name: Optional[str]) -> None:
    """Harvest keywords from abstracts, consolidate them, and report
    what human curation changed (if keywords/curated.txt exists)."""
    endpoint = ctx.config.endpoint(endpoint_name) if endpoint_name else ctx.config.endpoints[0]
    paths = sorted(Path(abstracts_dir).glob("*.txt"))
    if not paths:
        raise PipelineError(f"{abstracts_dir}: no .txt abstract")
    raw: list[str] = []
    with ctx.gateway() as gateway:
        for path in paths:
            abstract = path.read_text(encoding="utf-8")
            if not abstract.strip():
                raise PipelineError(f"{path}: abstract is empty")
            raw.extend(keywords_mod.extract_keywords(abstract, endpoint, gateway, doc_id=path.stem))
        if not raw:
            raise PipelineError(
                f"{abstracts_dir}: no reply carried a {keywords_mod.KEYWORD_MARKER!r} list"
            )
        keywords_mod.save_keywords(ctx.workspace.path("keywords", "raw.txt"), raw)
        consolidated = keywords_mod.consolidate_keywords(raw, endpoint, gateway)
    keywords_mod.save_keywords(ctx.workspace.path("keywords", "consolidated.txt"), consolidated)
    click.echo(f"keywords: {len(raw)} raw, {len(consolidated)} consolidated")
    curated_path = ctx.workspace.path("keywords", "curated.txt")
    if curated_path.is_file():
        if not curated_path.read_text(encoding="utf-8").strip():
            raise PipelineError(f"{curated_path}: curated keyword file is empty")
        curated = keywords_mod.load_curated(curated_path)
        removed, added = keywords_mod.curation_diff(consolidated, curated.keywords)
        click.echo(f"curation: {len(curated)} kept, {len(removed)} removed, {len(added)} added")


@_command("all", CORPUS_OPTION, click.option("--endpoints", "endpoint_names", default=None))
def _do_all(ctx: RunContext, corpus_dir: str, endpoint_names: Optional[str]) -> int:
    """Run ingest, ask, categorize, vote, filter, evaluate (when references
    are configured), footprint, and report in order."""
    references = ctx.config.reference_labels or ctx.config.voting_reference
    # the first non-zero status stops the chain; ingest and evaluate return None
    return (
        _do_ingest(ctx, corpus_dir)
        or _do_ask(ctx, corpus_dir, endpoint_names)
        or _do_categorize(ctx)
        or _do_vote(ctx)
        or _do_filter(ctx, corpus_dir)
        or (references and _do_evaluate(ctx))
        or _do_footprint(ctx)
        or _do_report(ctx)
    )


if __name__ == "__main__":
    sys.exit(main())
