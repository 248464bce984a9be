"""Subcommand CLI wiring the pipeline stages over a workspace directory.

Every stage reads the artifacts of the previous stage from the workspace and
writes its own; rerunning a stage on unchanged inputs is a no-op. The ``all``
command chains the stages in order. With ``--mock <dir>`` the run is fully
offline and deterministic.
"""

from __future__ import annotations

import contextlib
import csv
import logging
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

import click

from . import keywords as keywords_mod
from . import metrics, reports, textsim
from .config import PipelineConfig, load_config
from .corpus import CorpusLoad, load_corpus
from .errors import MissingArtifactError, PipelineError
from .extraction import (
    AnswerStore,
    TextualAnswer,
    load_competency_questions,
    run_matrix,
)
from .footprint import HardwareProfile, footprint_from_log
from .gateway import HttpBackend, LlmGateway, MockBackend, TimingLog
from .voting import (
    VerdictStore,
    Verdict,
    filter_dl_publication,
    load_filters,
    load_votes,
    run_conversions,
    save_filters,
    save_votes,
    vote_all,
)

log = logging.getLogger(__name__)

# Per-core draw of the 48-core CPU assumed by the default footprint profile
# (350 W TDP spread over 48 cores).
DEFAULT_PROFILE = HardwareProfile(
    name="intel-xeon-platinum-9242", cores=48, power_per_core=350 / 48, usage=1.0
)

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


def _common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(), default=None,
                      help="YAML config file.")(fn)
    fn = click.option("--workspace", type=click.Path(), default="workspace",
                      show_default=True, help="Artifact directory for this run.")(fn)
    fn = click.option("--mock", "mock_dir", type=click.Path(), default=None,
                      help="Directory of canned responses; enables the offline backend.")(fn)
    return fn


def _context(config_path, workspace, mock_dir) -> RunContext:
    return RunContext(
        config=load_config(config_path),
        workspace=Workspace(Path(workspace)),
        mock_dir=Path(mock_dir) if mock_dir is not None else None,
    )


def _require(path: Path, stage: str) -> Path:
    if not path.is_file():
        raise MissingArtifactError(str(path), stage)
    return path


def _load_corpus_checked(corpus_dir: str, fetch_command: Optional[str] = None) -> CorpusLoad:
    load = load_corpus(corpus_dir, fetch_command=fetch_command)
    for doi, reason in load.skipped:
        log.warning("skipped %s: %s", doi, reason)
    return load


def _do_ingest(ctx: RunContext, corpus_dir: str, fetch_command: Optional[str]) -> CorpusLoad:
    load = _load_corpus_checked(corpus_dir, fetch_command)
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
    click.echo(
        f"ingest: {len(load.publications)} publication(s), "
        f"{len(load.skipped)} skipped, {len(load.parse.errors)} parse error(s)"
    )
    return load


def _do_ask(ctx: RunContext, corpus_dir: str, endpoint_names: Optional[list[str]]) -> int:
    load = _load_corpus_checked(corpus_dir)
    questions = load_competency_questions()
    endpoints = ctx.config.select_endpoints(endpoint_names)
    with ctx.gateway() as gateway:
        result = run_matrix(
            load.publications,
            questions,
            endpoints,
            gateway,
            AnswerStore(ctx.workspace.answers),
            chunking=ctx.config.chunking,
            budget=ctx.config.retrieval_budget,
            parallelism=ctx.config.parallelism,
        )
    click.echo(
        f"ask: {result.completed} new answer(s), {result.skipped} already stored, "
        f"{len(result.failed)} failed"
    )
    if not result.is_complete:
        for doi, cq_id, endpoint, error in result.failed[:10]:
            click.echo(f"  failed: {doi} cq{cq_id} @{endpoint}: {error}", err=True)
        return 1
    return 0


def _load_answers(ctx: RunContext) -> list[TextualAnswer]:
    _require(ctx.workspace.answers, "ask")
    store = AnswerStore(ctx.workspace.answers)
    return [
        TextualAnswer(
            doi=r["doi"],
            cq_id=r["cq_id"],
            endpoint=r["endpoint"],
            raw_text=r["clean_text"],
            clean_text=r["clean_text"],
            duration_ms=r["duration_ms"],
        )
        for r in store.load()
    ]


def _do_categorize(ctx: RunContext) -> None:
    answers = _load_answers(ctx)
    questions = {q.id: q for q in load_competency_questions()}
    endpoints = {e.name: e for e in ctx.config.endpoints}
    with ctx.gateway() as gateway:
        result = run_conversions(
            answers,
            questions,
            endpoints,
            gateway,
            VerdictStore(ctx.workspace.verdicts),
            parallelism=ctx.config.parallelism,
        )
    click.echo(
        f"categorize: {result.completed} new verdict(s), {result.skipped} already stored"
    )


def _do_vote(ctx: RunContext) -> None:
    _require(ctx.workspace.verdicts, "categorize")
    verdicts = VerdictStore(ctx.workspace.verdicts).load()
    votes = vote_all(verdicts, tie_rule=ctx.config.tie_rule)
    save_votes(ctx.workspace.votes, votes)
    yes = sum(1 for v in votes if v.decision is Verdict.YES)
    click.echo(f"vote: {len(votes)} decision(s), {yes} Yes")


def _do_filter(ctx: RunContext, corpus_dir: str) -> None:
    load = _load_corpus_checked(corpus_dir)
    dois = {pub.citation.doi for pub in load.publications}
    if ctx.workspace.filters.is_file():
        existing = load_filters(ctx.workspace.filters)
        if set(existing) == dois:
            click.echo(f"filter: {len(existing)} verdict(s) already stored")
            return
    endpoint = ctx.config.endpoint(ctx.config.filter_endpoint)
    verdicts = []
    with ctx.gateway() as gateway:
        for pub in sorted(load.publications, key=lambda p: p.citation.doi):
            verdict = filter_dl_publication(
                pub,
                endpoint,
                gateway,
                chunking=ctx.config.chunking,
                budget=ctx.config.retrieval_budget,
            )
            if verdict is not None:
                verdicts.append(verdict)
    save_filters(ctx.workspace.filters, verdicts)
    retained = sum(1 for v in verdicts if v.is_dl_study)
    click.echo(f"filter: {retained}/{len(verdicts)} publication(s) retained")


def _read_reference_csv(path: str | Path) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((row["doi"], row["variable"], row["label"]))
    return rows


def _verdict_label(verdict: Verdict) -> str:
    # Unparseable collapses to No, matching the voting rule.
    return "Yes" if verdict is Verdict.YES else "No"


def _do_evaluate(ctx: RunContext, reference: Optional[str], voting_reference: Optional[str]) -> None:
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
        verdict_rows = VerdictStore(ctx.workspace.verdicts).load()
        ref_rows = _read_reference_csv(reference)
        ref_keys = [(doi, int(variable)) for doi, variable, _ in ref_rows]
        ref_series = metrics.LabelSeries(
            keys=tuple(ref_keys), labels=tuple(label for _, _, label in ref_rows)
        )
        stats = []
        for endpoint in ctx.config.endpoints:
            by_key = {
                (v.doi, v.cq_id): _verdict_label(v.verdict)
                for v in verdict_rows
                if v.endpoint == endpoint.name
            }
            missing = [key for key in ref_keys if key not in by_key]
            if missing:
                raise PipelineError(
                    f"endpoint {endpoint.name} has no verdict for {missing[0]}"
                )
            llm_series = metrics.LabelSeries(
                keys=tuple(ref_keys),
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
        votes = load_votes(ctx.workspace.votes)
        ref_rows = _read_reference_csv(voting_reference)
        ref_series = metrics.LabelSeries(
            keys=tuple((doi, variable) for doi, variable, _ in ref_rows),
            labels=tuple(label for _, _, label in ref_rows),
        )
        comparison = metrics.compare_with_reference(
            ctx.config.cq_variable_mapping, votes, ref_series
        )
        header, rows = reports.reference_rows(comparison)
        reports.write_report(ctx.workspace.reports_dir, "reference_comparison", header, rows)
        wrote.append("reference_comparison")
    click.echo(f"evaluate: wrote {', '.join(wrote)}")


def _do_footprint(ctx: RunContext) -> None:
    _require(ctx.workspace.timing, "ask")
    timing = TimingLog.load_csv(ctx.workspace.timing)
    profile = ctx.config.hardware_profile or DEFAULT_PROFILE
    rows = footprint_from_log(
        timing,
        profile,
        intensity=ctx.config.location_intensity,
        tree_month_constant=ctx.config.tree_month_constant,
    )
    header, out = reports.footprint_rows(rows)
    reports.write_report(ctx.workspace.reports_dir, "footprint", header, out)
    click.echo(f"footprint: wrote footprint report for profile {profile.name}")


def _do_report(ctx: RunContext) -> None:
    _require(ctx.workspace.votes, "vote")
    _require(ctx.workspace.filters, "filter")
    votes = load_votes(ctx.workspace.votes)
    filters = load_filters(ctx.workspace.filters)
    questions = {q.id: q.text for q in load_competency_questions()}

    coverage = metrics.per_cq_coverage(votes, filters)
    header, rows = reports.coverage_rows(coverage, questions)
    reports.write_report(ctx.workspace.reports_dir, "coverage", header, rows)

    answers = _load_answers(ctx)
    endpoint_names = [e.name for e in ctx.config.endpoints]
    # one tokenization per answer serves both similarity matrices
    terms_by_endpoint = {
        name: {
            (a.doi, a.cq_id): textsim.term_counts(a.clean_text)
            for a in answers
            if a.endpoint == name
        }
        for name in endpoint_names
    }
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

    _require(ctx.workspace.verdicts, "categorize")
    verdict_rows = VerdictStore(ctx.workspace.verdicts).load()
    keys = sorted({(v.doi, v.cq_id) for v in verdict_rows})
    labels_by_endpoint = {
        name: {
            (v.doi, v.cq_id): _verdict_label(v.verdict)
            for v in verdict_rows
            if v.endpoint == name
        }
        for name in endpoint_names
    }
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
    click.echo("report: wrote coverage, similarity, iaa_pairs")


def _pair_kappa(labels_by_endpoint, a: str, b: str, keys) -> float:
    series_a = metrics.LabelSeries(
        keys=tuple(keys), labels=tuple(labels_by_endpoint[a][k] for k in keys)
    )
    series_b = metrics.LabelSeries(
        keys=tuple(keys), labels=tuple(labels_by_endpoint[b][k] for k in keys)
    )
    return metrics.cohen_kappa(series_a, series_b)


@click.group()
@click.option("--verbose", is_flag=True, help="Debug logging.")
def main(verbose: bool) -> None:
    """Extract deep-learning methodology reporting from a publication corpus
    with an ensemble of LLM endpoints."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _wrap(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@_common_options
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
@click.option("--fetch-command", default=None,
              help="External command invoked as CMD <doi> to fetch missing full texts.")
def ingest(config_path, workspace, mock_dir, corpus_dir, fetch_command):
    """Parse the bibliography, attach full texts, write the skip report."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_ingest, ctx, corpus_dir, fetch_command)


@main.command("keywords")
@_common_options
@click.option("--abstracts", "abstracts_dir", type=click.Path(exists=True), required=True,
              help="Directory of one UTF-8 .txt abstract per file.")
@click.option("--endpoint", "endpoint_name", default=None,
              help="Endpoint used for extraction and consolidation (default: first configured).")
def keywords_cmd(config_path, workspace, mock_dir, abstracts_dir, endpoint_name):
    """Harvest keywords from abstracts, consolidate them, and report
    what human curation changed (if keywords/curated.txt exists)."""
    ctx = _context(config_path, workspace, mock_dir)

    def run() -> None:
        endpoint = (
            ctx.config.endpoint(endpoint_name) if endpoint_name else ctx.config.endpoints[0]
        )
        raw: list[str] = []
        with ctx.gateway() as gateway:
            for path in sorted(Path(abstracts_dir).glob("*.txt")):
                raw.extend(
                    keywords_mod.extract_keywords(
                        path.read_text(encoding="utf-8"), endpoint, gateway, doc_id=path.stem
                    )
                )
            keywords_mod.save_keywords(ctx.workspace.path("keywords", "raw.txt"), raw)
            consolidated = keywords_mod.consolidate_keywords(raw, endpoint, gateway)
        keywords_mod.save_keywords(ctx.workspace.path("keywords", "consolidated.txt"), consolidated)
        click.echo(f"keywords: {len(raw)} raw, {len(consolidated)} consolidated")
        curated_path = ctx.workspace.path("keywords", "curated.txt")
        if curated_path.is_file():
            curated = keywords_mod.load_curated(curated_path)
            removed, added = keywords_mod.curation_diff(consolidated, curated.keywords)
            click.echo(
                f"curation: {len(curated)} kept, {len(removed)} removed, {len(added)} added"
            )

    _wrap(run)


@main.command()
@_common_options
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
@click.option("--endpoints", "endpoint_names", default=None,
              help="Comma-separated endpoint subset.")
@click.option("--resume/--no-resume", default=True, show_default=True,
              help="Skip answers already in the store; --no-resume first deletes the "
                   "answer and verdict stores.")
@click.pass_context
def ask(click_ctx, config_path, workspace, mock_dir, corpus_dir, endpoint_names, resume):
    """Answer every question for every publication on every endpoint."""
    ctx = _context(config_path, workspace, mock_dir)
    names = endpoint_names.split(",") if endpoint_names else None
    if not resume:
        # verdicts were made from the answers being discarded
        ctx.workspace.answers.unlink(missing_ok=True)
        ctx.workspace.verdicts.unlink(missing_ok=True)
    status = _wrap(_do_ask, ctx, corpus_dir, names)
    if status:
        click_ctx.exit(status)


@main.command()
@_common_options
def categorize(config_path, workspace, mock_dir):
    """Convert stored textual answers into Yes/No verdicts."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_categorize, ctx)


@main.command()
@_common_options
def vote(config_path, workspace, mock_dir):
    """Aggregate per-endpoint verdicts with a hard majority vote."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_vote, ctx)


@main.command("filter")
@_common_options
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
def filter_cmd(config_path, workspace, mock_dir, corpus_dir):
    """Judge which publications actually describe a deep-learning study."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_filter, ctx, corpus_dir)


@main.command()
@_common_options
@click.option("--reference", default=None,
              help="CSV (doi,variable,label) with variable = question id.")
@click.option("--voting-reference", default=None,
              help="CSV (doi,variable,label) with reference variables for the vote comparison.")
def evaluate(config_path, workspace, mock_dir, reference, voting_reference):
    """Compare verdicts and vote decisions against human reference labels."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_evaluate, ctx, reference, voting_reference)


@main.command()
@_common_options
def footprint(config_path, workspace, mock_dir):
    """Estimate energy, carbon, and tree-months from the timing log."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_footprint, ctx)


@main.command()
@_common_options
def report(config_path, workspace, mock_dir):
    """Write the coverage, similarity, and pairwise-agreement tables."""
    ctx = _context(config_path, workspace, mock_dir)
    _wrap(_do_report, ctx)


@main.command("all")
@_common_options
@click.option("--corpus", "corpus_dir", type=click.Path(exists=True), required=True)
@click.option("--endpoints", "endpoint_names", default=None)
@click.pass_context
def run_all(click_ctx, config_path, workspace, mock_dir, corpus_dir, endpoint_names):
    """Run ingest, ask, categorize, vote, filter, evaluate (when references
    are configured), footprint, and report in order."""
    ctx = _context(config_path, workspace, mock_dir)
    names = endpoint_names.split(",") if endpoint_names else None

    def run() -> int:
        _do_ingest(ctx, corpus_dir, None)
        status = _do_ask(ctx, corpus_dir, names)
        if status:
            return status
        _do_categorize(ctx)
        _do_vote(ctx)
        _do_filter(ctx, corpus_dir)
        if ctx.config.reference_labels or ctx.config.voting_reference:
            _do_evaluate(ctx, None, None)
        _do_footprint(ctx)
        _do_report(ctx)
        return 0

    status = _wrap(run)
    if status:
        click_ctx.exit(status)


if __name__ == "__main__":
    sys.exit(main())
