"""Subcommand CLI wiring the pipeline stages over a workspace directory.

The pipeline is one ordered table, `STAGES`. Each `Stage` entry declares a
stage's options, the workspace files it requires (with the stage that writes
each), the workspace files it outputs and its body. `_register` builds one
subcommand per entry, and ``all`` runs the table in order and stops at the
first stage that exits non-zero.

Each stage reads what earlier stages wrote to the workspace and writes its
own. Each keeps ``logs/<stage>.digest.json``: a digest of its inputs (the
config, the litrag sources and data, its required files and the lines its
body returns, such as the corpus and the backend), each output's sha256 and
its summary. While neither its inputs nor its outputs change, a rerun prints
that summary and does no work (`_unless_unchanged`). With ``--mock <dir>``
the run is fully offline and deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import json
import logging
import sys
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

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
from .gateway import HttpBackend, LlmGateway, MockBackend
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

# The package's own sources and data; every skip digest covers them
# (`_package_digest`), so an edited or upgraded litrag never serves tables an
# older one wrote.
PACKAGE_DIR = Path(__file__).resolve().parent

SUBDIRS = ("corpus", "keywords", "answers", "verdicts", "votes", "filters", "reports", "logs")

# The workspace tables the stages pass on, relative to the workspace root.
ANSWERS = Path("answers", "answers.jsonl")
VERDICTS = Path("verdicts", "verdicts.csv")
VOTES = Path("votes", "votes.csv")
FILTERS = Path("filters", "filters.csv")
CITATIONS, SKIP_REPORT = Path("corpus", "citations.csv"), Path("corpus", "skip_report.csv")
REPLIES, RAW_KEYWORDS = Path("keywords", "replies.jsonl"), Path("keywords", "raw.txt")
CONSOLIDATED = Path("keywords", "consolidated.txt")
TIMING = Path("logs", "timing.csv")
REPORTS = Path("reports")


@dataclass
class RunContext:
    config: PipelineConfig
    workspace: Path
    mock_dir: Optional[Path]

    def __post_init__(self) -> None:
        for sub in SUBDIRS:
            (self.workspace / sub).mkdir(parents=True, exist_ok=True)

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
            parallelism=self.config.parallelism,
        )
        try:
            yield gateway
        finally:
            gateway.timing_log.save_csv(self.workspace / TIMING)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage. ``body(ctx, **options)``, whose docstring is the
    subcommand's help, makes the stage's own checks, loads what it must and
    returns its digest lines and ``run``, which does the work: it writes
    ``outputs`` and returns its summary, or the `RunResult` of its
    requests. ``requires`` pairs each workspace file the stage reads with the
    stage that writes it. ``in_all`` says whether ``all`` runs the stage on a
    config, and None leaves it out; its docstring, if any, is that condition
    in ``all``'s help."""

    name: str
    body: Callable[..., tuple[list[str], Callable]]
    outputs: tuple[Path, ...]
    options: tuple[Callable, ...] = ()
    requires: tuple[tuple[Path, str], ...] = ()
    noun: str = ""
    in_all: Optional[Callable[[PipelineConfig], bool]] = lambda config: True


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
ENDPOINTS_OPTION = click.option("--endpoints", "endpoint_names", default=None,
                                help="Comma-separated endpoint subset.")


def _register(name: str, help: str, options: Iterable[Callable], fn: Callable[..., int]) -> None:
    """Register subcommand ``name``, with the shared options and then ``options``,
    to call ``fn(ctx, **options)`` and exit with the status it returns; a
    `PipelineError` is an ``Error: ...`` line and exit status 1."""

    def command(config_path, workspace, mock_dir, **kwargs) -> None:
        try:
            ctx = RunContext(
                config=load_config(config_path),
                workspace=Path(workspace),
                mock_dir=Path(mock_dir) if mock_dir is not None else None,
            )
            status = fn(ctx, **kwargs)
        except PipelineError as exc:
            raise click.ClickException(str(exc)) from exc
        if status:
            click.get_current_context().exit(status)

    for option in reversed((*SHARED_OPTIONS, *options)):
        command = option(command)
    main.command(name, help=help)(command)


def _require(path: Path, stage: str) -> Path:
    if not path.is_file():
        raise MissingArtifactError(str(path), stage)
    return path


def _file_sha256(path: Path) -> Optional[str]:
    """The sha256 of a file's bytes, read a block at a time; None if it cannot be opened."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    digest = hashlib.sha256()
    with fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


def _hashed(label: str, paths: Iterable[Path]) -> list[str]:
    """One digest line per file: ``label/<name>`` and the sha256 of its bytes."""
    return [f"{label}/{p.name} {_file_sha256(p)}" for p in paths]


@functools.cache
def _package_digest(package: Path) -> tuple[str, ...]:
    """One digest line per source and data file of ``package``: its relative
    path and sha256. Read once per process, like the prompt templates, so an
    edit to the package counts from the next process on."""
    files = sorted(package.rglob("*.py")) + sorted(package.rglob("*.txt"))
    return tuple(f"{p.relative_to(package).as_posix()} {_file_sha256(p)}" for p in files)


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


def _run(stage: Stage, ctx: RunContext, **options) -> int:
    """Call ``stage``'s body and run its work `_unless_unchanged`; return the
    exit status. A missing required file raises `MissingArtifactError`."""
    required = [_require(ctx.workspace / path, writer) for path, writer in stage.requires]
    inputs, run = stage.body(ctx, **options)
    return _unless_unchanged(ctx, stage, run, _hashed("workspace", required) + inputs)


def _unless_unchanged(ctx: RunContext, stage: Stage, run: Callable, inputs: list[str]) -> int:
    """Call ``run``, print its summary and return the exit status. A
    `RunResult` is printed as ``<stage>: N new <noun>(s), M already stored,
    K failed`` with each failed item after it on stderr.

    ``logs/<stage>.digest.json`` records a digest of what the outputs depend
    on (the stage, the config, the litrag sources and data files, which hold
    the question list, as `_package_digest` read them when this process first
    needed them, and the ``inputs`` lines), the sha256 of each output
    and the summary a rerun on unchanged inputs prints.
    When that digest is unchanged and every output still has its recorded
    sha256, ``run`` is skipped and the recorded summary printed. An unreadable
    record runs it. A run in which an item failed writes no record and exits 1.
    """
    lines = [stage.name, repr(ctx.config), *_package_digest(PACKAGE_DIR), *inputs]
    key = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def output_digests() -> dict[str, Optional[str]]:
        return {p.as_posix(): _file_sha256(ctx.workspace / p) for p in stage.outputs}

    record_path = ctx.workspace / "logs" / f"{stage.name}.digest.json"
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
        click.echo(_counts(stage.name, stage.noun, outcome.completed, outcome.skipped,
                           len(outcome.failed)))
        for *item, error in outcome.failed[:10]:
            click.echo(f"  failed: {'|'.join(map(str, item))}: {error}", err=True)
        if outcome.failed:
            return 1
        # what the body prints when it runs again on these inputs
        summary = _counts(stage.name, stage.noun, 0, outcome.completed + outcome.skipped, 0)
    else:
        summary = outcome
        click.echo(summary)
    record = {"inputs": key, "outputs": output_digests(), "summary": summary}
    appendlog.replace_file(record_path, [json.dumps(record, indent=1) + "\n"])
    return 0


def _ingest(ctx: RunContext, corpus_dir: str, fetch_command: Optional[str] = None):
    """Parse the bibliography, attach full texts, write the skip report."""
    load = load_corpus(corpus_dir, fetch_command=fetch_command)
    # reported also when the stage skips; ask and filter reread the corpus silently
    for doi, reason in load.skipped:
        log.warning("skipped %s: %s", doi, reason)
    # parse errors and entries without a DOI, in file order
    problems = [(error.offset, error.message) for error in load.parse.errors]
    problems += [(e.offset, f"entry {e.key} has no DOI") for e in load.parse.without_doi]
    for offset, message in sorted(problems):
        click.echo(f"{load.bibliography.name}: byte {offset}: {message}", err=True)

    def run() -> str:
        citations = []
        for pub in load.publications:
            c = pub.citation
            citations.append([c.doi, c.title, c.year if c.year is not None else "", c.venue,
                              pub.word_count])
        for path, header, rows in (
            (CITATIONS, ["doi", "title", "year", "venue", "word_count"], citations),
            (SKIP_REPORT, ["doi", "reason"], load.skipped),
        ):
            table = reports.render_csv(header, rows, lineterminator="\r\n")
            appendlog.replace_file(ctx.workspace / path, [table])
        return (
            f"ingest: {len(load.publications)} publication(s), "
            f"{len(load.skipped)} skipped, {len(load.parse.errors)} parse error(s)"
        )

    # a text that goes from missing to empty changes only its skip reason
    return _corpus_inputs(load) + [f"skipped {doi} {reason}" for doi, reason in load.skipped], run


def _ask(
    ctx: RunContext, corpus_dir: str, endpoint_names: Optional[str] = None, resume: bool = True
):
    """Answer every question for every publication on every endpoint."""
    names = [name.strip() for name in endpoint_names.split(",")] if endpoint_names else None
    load = load_corpus(corpus_dir)
    endpoints = ctx.config.select_endpoints(names)
    if not resume:
        # only once the run can start; verdicts were made from the answers being discarded
        (ctx.workspace / ANSWERS).unlink(missing_ok=True)
        (ctx.workspace / VERDICTS).unlink(missing_ok=True)

    def run() -> RunResult:
        with ctx.gateway() as gateway:
            return run_matrix(
                load.publications,
                load_competency_questions(),
                endpoints,
                gateway,
                AnswerStore(ctx.workspace / ANSWERS),
                chunking=ctx.config.chunking,
                budget=ctx.config.retrieval_budget,
            )

    inputs = [f"endpoints {json.dumps([e.name for e in endpoints])}"]
    return inputs + _corpus_inputs(load) + _backend_inputs(ctx), run


def _categorize(ctx: RunContext):
    """Convert stored textual answers into Yes/No verdicts."""

    def run() -> RunResult:
        questions = {q.id: q for q in load_competency_questions()}
        endpoints = {e.name: e for e in ctx.config.endpoints}
        with ctx.gateway() as gateway:
            return run_conversions(
                AnswerStore(ctx.workspace / ANSWERS).load(),
                questions,
                endpoints,
                gateway,
                VerdictStore(ctx.workspace / VERDICTS),
            )

    return _backend_inputs(ctx), run


def _vote(ctx: RunContext):
    """Aggregate per-endpoint verdicts with a hard majority vote."""

    def run() -> str:
        votes = vote_all(VerdictStore(ctx.workspace / VERDICTS).load(), tie_rule=ctx.config.tie_rule)
        VoteStore(ctx.workspace / VOTES).write(votes)
        yes = sum(1 for v in votes if v.decision is Verdict.YES)
        return f"vote: {len(votes)} decision(s), {yes} Yes"

    return [], run


def _filter(ctx: RunContext, corpus_dir: str):
    """Judge which publications actually describe a deep-learning study."""
    load = load_corpus(corpus_dir)

    def run() -> RunResult:
        endpoint = ctx.config.endpoint(ctx.config.filter_endpoint)
        with ctx.gateway() as gateway:
            return run_requests(
                [sorted(load.publications, key=lambda p: p.citation.doi)],
                lambda pub: (pub.citation.doi,),
                lambda pub: functools.partial(
                    filter_dl_publication, pub, endpoint, gateway,
                    chunking=ctx.config.chunking, budget=ctx.config.retrieval_budget,
                ),
                FilterStore(ctx.workspace / FILTERS),
                gateway.parallelism,
            )

    return _corpus_inputs(load) + _backend_inputs(ctx), run


def _read_reference_csv(path: str | Path, question_ids: bool) -> metrics.LabelSeries:
    """The Yes/No labels of a reference CSV (doi, variable, label), keyed by
    (doi, variable); with ``question_ids`` each variable is a question id.
    A defect in the file is a `PipelineError` naming the file and the line."""
    labels: dict[tuple, str] = {}
    try:
        # spreadsheets export "CSV UTF-8" with a byte order mark
        with open(path, encoding="utf-8-sig", newline="") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _references_configured(config: PipelineConfig) -> bool:
    """when references are configured"""
    return bool(config.reference_labels or config.voting_reference)


def _evaluate(
    ctx: RunContext, reference: Optional[str] = None, voting_reference: Optional[str] = None
):
    """Compare verdicts and vote decisions against human reference labels."""
    reference = reference or ctx.config.reference_labels
    voting_reference = voting_reference or ctx.config.voting_reference
    if reference is None and voting_reference is None:
        raise PipelineError(
            "evaluate needs --reference and/or --voting-reference (or config keys "
            "reference_labels / voting_reference)"
        )
    pairs = ((reference, VERDICTS, "categorize"), (voting_reference, VOTES, "vote"))
    given = [(ref, _require(ctx.workspace / table, writer)) for ref, table, writer in pairs if ref]
    if voting_reference and not ctx.config.cq_variable_mapping:
        raise PipelineError("config key cq_variable_mapping is required for the voting comparison")
    inputs = [f"reference {ref} {_file_sha256(Path(ref))}" for ref, _ in given]
    inputs += _hashed("workspace", [table for _, table in given])
    return inputs, functools.partial(_compare_with_references, ctx, reference, voting_reference)


def _compare_with_references(
    ctx: RunContext, reference: Optional[str], voting_reference: Optional[str]
) -> str:
    tables = {}
    if reference is not None:
        labels_by_endpoint = _labels_by_endpoint(
            VerdictStore(ctx.workspace / VERDICTS).load(), [e.name for e in ctx.config.endpoints]
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
        tables["categorical_agreement"] = reports.agreement_rows(stats)
    if voting_reference is not None:
        votes = VoteStore(ctx.workspace / VOTES).load()
        ref_series = _read_reference_csv(voting_reference, question_ids=False)
        try:
            comparison = metrics.compare_with_reference(
                ctx.config.cq_variable_mapping, votes, ref_series
            )
        except ValueError as exc:
            raise PipelineError(f"voting comparison with {voting_reference}: {exc}") from exc
        tables["reference_comparison"] = reports.reference_rows(comparison)
    for name, (header, rows) in tables.items():
        reports.write_report(ctx.workspace / REPORTS, name, header, rows)
    return f"evaluate: wrote {', '.join(tables)}"


def _footprint(ctx: RunContext):
    """Estimate energy, carbon, and tree-months from the timing log."""

    def run() -> str:
        profile = ctx.config.hardware_profile or DEFAULT_PROFILE
        rows = footprint_from_log(
            ctx.workspace / TIMING,
            profile,
            intensity=ctx.config.location_intensity,
            tree_month_constant=ctx.config.tree_month_constant,
        )
        header, out = reports.footprint_rows(rows)
        reports.write_report(ctx.workspace / REPORTS, "footprint", header, out)
        return f"footprint: wrote footprint report for profile {profile.name}"

    return [], run


REPORT_TABLES = ("coverage", "similarity", "iaa_pairs")


def _report(ctx: RunContext):
    """Write the coverage, similarity, and pairwise-agreement tables."""
    return [], functools.partial(_write_tables, ctx)


def _write_tables(ctx: RunContext) -> str:
    """Check the votes, answers and verdicts, then write every table; a
    defect found writes none."""
    filters = {v.doi: v.is_dl_study for v in FilterStore(ctx.workspace / FILTERS).load()}
    questions = {q.id: q.text for q in load_competency_questions()}
    try:
        coverage = metrics.per_cq_coverage(VoteStore(ctx.workspace / VOTES).load(), filters)
    except ValueError as exc:
        raise PipelineError(f"{VOTES}: {exc}; rerun categorize, then vote") from exc
    tables = {"coverage": reports.coverage_rows(coverage, questions)}

    terms_by_endpoint = _answer_terms(ctx)
    keys = sorted(_require_complete(terms_by_endpoint))
    labels_by_endpoint = _labels_by_endpoint(
        VerdictStore(ctx.workspace / VERDICTS).load(), terms_by_endpoint
    )
    for name, labels in labels_by_endpoint.items():
        if labels.keys() != terms_by_endpoint[name].keys():
            raise PipelineError(
                f"endpoint {name} has verdicts for {len(labels)} items and answers for "
                f"{len(terms_by_endpoint[name])}, which differ; rerun categorize"
            )
    kept = [key for key in keys if metrics.is_retained(key[0], filters)]
    for name, by_endpoint, matrix, value_name in (
        ("similarity", terms_by_endpoint, metrics.average_pairwise_similarity, "cosine_similarity"),
        ("iaa_pairs", labels_by_endpoint, metrics.pairwise_kappa, "kappa"),
    ):
        # the after-filtering column goes when the filter retained nothing to compare
        tables[name] = reports.pair_rows(
            matrix(by_endpoint, keys), matrix(by_endpoint, kept) if kept else None, value_name
        )
    for name, (header, rows) in tables.items():
        reports.write_report(ctx.workspace / REPORTS, name, header, rows)
    return f"report: wrote {', '.join(REPORT_TABLES)}"


def _answer_terms(ctx: RunContext) -> dict[str, dict]:
    """``{endpoint: {(doi, cq_id): term counts}}`` of the stored answers, for
    the configured endpoints that answered (such as after `ask --endpoints`),
    in configuration order. One tokenization per answer serves both
    similarity matrices, and the answer records are gone on return, so they
    are never held together with the matrices' vectors."""
    answers = AnswerStore(ctx.workspace / ANSWERS).load()
    answered = {a.endpoint for a in answers}
    terms: dict[str, dict] = {e.name: {} for e in ctx.config.endpoints if e.name in answered}
    for a in answers:
        if a.endpoint in terms:
            terms[a.endpoint][(a.doi, a.cq_id)] = textsim.term_counts(a.clean_text)
    return terms


def _require_complete(terms_by_endpoint: dict[str, dict]) -> set:
    """The keys any endpoint answered; raises `PipelineError` naming an
    endpoint that lacks some of them."""
    keys: set = set().union(*terms_by_endpoint.values())
    for name, terms in terms_by_endpoint.items():
        if len(terms) < len(keys):
            raise PipelineError(
                f"endpoint {name} has answers for {len(terms)} of {len(keys)} items; rerun ask"
            )
    return keys


def _keywords(ctx: RunContext, abstracts_dir: str, endpoint_name: Optional[str] = None):
    """Harvest keywords from abstracts, consolidate them, and report
    what human curation changed (if keywords/curated.txt exists)."""
    endpoint = ctx.config.endpoint(endpoint_name) if endpoint_name else ctx.config.endpoints[0]
    abstracts = {p: p.read_text("utf-8", errors="replace")
                 for p in sorted(Path(abstracts_dir).glob("*.txt"))}
    if not abstracts:
        raise PipelineError(f"{abstracts_dir}: no .txt abstract")
    if empty := [path for path, abstract in abstracts.items() if not abstract.strip()]:
        raise PipelineError(f"{empty[0]}: abstract is empty")
    curated_path = ctx.workspace / "keywords" / "curated.txt"
    curated = keywords_mod.load_curated(curated_path) if curated_path.is_file() else None

    def run() -> RunResult | str:
        store = keywords_mod.ReplyStore(ctx.workspace / REPLIES)
        with ctx.gateway() as gateway:
            result = run_requests(
                [abstracts],
                lambda path: (endpoint.name, path.stem),
                lambda path: lambda: keywords_mod.KeywordReply(
                    endpoint.name, path.stem,
                    keywords_mod.extract_keywords(abstracts[path], endpoint, gateway, path.stem)),
                store, gateway.parallelism,
            )
            if result.failed:
                return result
            replies = {reply.key: reply.keywords for reply in store.load()}
            raw = [kw for path in abstracts for kw in replies.get((endpoint.name, path.stem), [])]
            if not raw:
                raise PipelineError(
                    f"{abstracts_dir}: no reply carried a {keywords_mod.KEYWORD_MARKER!r} list"
                )
            keywords_mod.save_keywords(ctx.workspace / RAW_KEYWORDS, raw)
            consolidated = keywords_mod.consolidate_keywords(raw, endpoint, gateway)
        keywords_mod.save_keywords(ctx.workspace / CONSOLIDATED, consolidated)
        out = [f"keywords: {len(raw)} raw, {len(consolidated)} consolidated"]
        if curated is not None:
            removed, added = keywords_mod.curation_diff(consolidated, curated.keywords)
            out.append(f"curation: {len(curated)} kept, {len(removed)} removed, {len(added)} added")
        return "\n".join(out)

    inputs = [f"endpoint {endpoint.name}", *_hashed("abstract", abstracts)]
    return inputs + _hashed("keywords", [curated_path]) + _backend_inputs(ctx), run


# The pipeline, in the order `all` runs it.
STAGES = (
    Stage("ingest", _ingest, (CITATIONS, SKIP_REPORT), options=(
        CORPUS_OPTION,
        click.option("--fetch-command", default=None,
                     help="External command invoked as CMD <doi> to fetch missing full texts."),
    )),
    Stage("ask", _ask, (ANSWERS,), noun="answer", options=(
        CORPUS_OPTION,
        ENDPOINTS_OPTION,
        click.option("--resume/--no-resume", default=True, show_default=True,
                     help="Skip answers already in the store; --no-resume deletes the answer "
                          "and verdict stores once the corpus and endpoints are read."),
    )),
    Stage("categorize", _categorize, (VERDICTS,), requires=((ANSWERS, "ask"),), noun="verdict"),
    Stage("vote", _vote, (VOTES,), requires=((VERDICTS, "categorize"),)),
    Stage("filter", _filter, (FILTERS,), options=(CORPUS_OPTION,), noun="verdict"),
    Stage("evaluate", _evaluate,
          reports.report_files(REPORTS, "categorical_agreement", "reference_comparison"),
          in_all=_references_configured, options=(
        click.option("--reference", default=None,
                     help="CSV (doi,variable,label) with variable = question id."),
        click.option("--voting-reference", default=None,
                     help="CSV (doi,variable,label) with reference variables for the vote "
                          "comparison."),
    )),
    Stage("footprint", _footprint, reports.report_files(REPORTS, "footprint"),
          requires=((TIMING, "ask"),)),
    Stage("report", _report, reports.report_files(REPORTS, *REPORT_TABLES), requires=(
        (VOTES, "vote"), (FILTERS, "filter"), (ANSWERS, "ask"), (VERDICTS, "categorize"),
    )),
    Stage("keywords", _keywords, (REPLIES, RAW_KEYWORDS, CONSOLIDATED), in_all=None,
          noun="abstract", options=(
        click.option("--abstracts", "abstracts_dir", type=click.Path(exists=True), required=True,
                     help="Directory of one UTF-8 .txt abstract per file."),
        click.option("--endpoint", "endpoint_name", default=None,
                     help="Endpoint used for extraction and consolidation "
                          "(default: first configured)."),
    )),
)

# The options of `all`, by parameter name; it passes each to the stages that take it.
ALL_OPTIONS = {"corpus_dir": CORPUS_OPTION, "endpoint_names": ENDPOINTS_OPTION}


def _run_all(ctx: RunContext, **options) -> int:
    for stage in STAGES:
        if stage.in_all and stage.in_all(ctx.config):
            passed = {k: v for k, v in options.items() if ALL_OPTIONS[k] in stage.options}
            if status := _run(stage, ctx, **passed):
                return status
    return 0


def _all_help() -> str:
    """The stages ``all`` runs, in order, filled like a docstring; click rewraps it."""
    steps = [f"{s.name} ({s.in_all.__doc__})" if s.in_all.__doc__ else s.name
             for s in STAGES if s.in_all]
    return textwrap.fill(f"Run {', '.join(steps[:-1])}, and {steps[-1]} in order.")


for _stage in STAGES:
    _register(_stage.name, _stage.body.__doc__, _stage.options, functools.partial(_run, _stage))
_register("all", _all_help(), ALL_OPTIONS.values(), _run_all)


if __name__ == "__main__":
    sys.exit(main())
