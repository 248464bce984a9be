"""Categorical conversion of textual answers, hard majority voting, and the
deep-learning relevance filter."""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import logging
# No pool runs in this module; the span tracer in perfbench/trace.py patches this name.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import appendlog, prompts
from .corpus import PublicationRecord
from .errors import PipelineError
from .extraction import CompetencyQuestion, RunResult, TextualAnswer, run_requests
from .gateway import ChatRequest, LlmGateway, ModelEndpoint
from .retrieval import ChunkingConfig, retrieve_context

log = logging.getLogger(__name__)

RESPONSE_MARKER = "response:"


class Verdict(str, enum.Enum):
    YES = "Yes"
    NO = "No"
    UNPARSEABLE = "Unparseable"


# each verdict by its value: a lookup here costs a tenth of a `Verdict(value)`
# call, and an unknown value raises KeyError, which a store reads as a
# malformed line
_VERDICTS = {verdict.value: verdict for verdict in Verdict}


@dataclass(frozen=True, slots=True)
class CategoricalAnswer:
    doi: str
    cq_id: int
    endpoint: str
    verdict: Verdict

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.doi, self.cq_id, self.endpoint)


@dataclass(frozen=True, slots=True)
class VoteRecord:
    doi: str
    cq_id: int
    yes_count: int
    no_count: int
    decision: Verdict


@dataclass(frozen=True, slots=True)
class FilterVerdict:
    doi: str
    is_dl_study: bool

    @property
    def key(self) -> tuple[str]:
        return (self.doi,)


def parse_categorical_response(text: str) -> Verdict:
    """Map the last "Response:" line to Yes/No; anything else is Unparseable."""
    verdict = Verdict.UNPARSEABLE
    for line in text.splitlines():
        stripped = line.strip()
        while stripped.startswith("Answer:::"):
            stripped = stripped[len("Answer:::"):].strip()
        if not stripped.lower().startswith(RESPONSE_MARKER):
            continue
        value = stripped[len(RESPONSE_MARKER):].strip().strip('."\'').lower()
        if value == "yes":
            verdict = Verdict.YES
        elif value == "no":
            verdict = Verdict.NO
        else:
            verdict = Verdict.UNPARSEABLE
    return verdict


def to_categorical(
    question: CompetencyQuestion,
    answer: TextualAnswer,
    endpoint: ModelEndpoint,
    gateway: LlmGateway,
) -> CategoricalAnswer:
    """Ask the endpoint that produced the answer to judge it Yes or No."""
    if endpoint.name != answer.endpoint:
        raise ValueError(
            f"conversion endpoint {endpoint.name!r} differs from the answering "
            f"endpoint {answer.endpoint!r}"
        )
    prompt = prompts.render(
        "categorical-conversion",
        {"Question": question.text, "Answer": answer.clean_text},
    )
    request = ChatRequest.create(endpoint, prompt)
    response = gateway.complete(endpoint, request, doc_id=answer.doi, stage="categorize")
    return CategoricalAnswer(
        doi=answer.doi,
        cq_id=answer.cq_id,
        endpoint=endpoint.name,
        verdict=parse_categorical_response(response.text),
    )


def majority_vote(
    verdicts: Sequence[Verdict],
    tie_rule: str = "no",
    doi: str = "",
    cq_id: int = 0,
) -> VoteRecord:
    """Hard vote: Unparseable counts as No, decision by strict majority,
    ties resolved by ``tie_rule`` ("yes" or "no")."""
    if not verdicts:
        raise ValueError("cannot vote on an empty verdict list")
    if tie_rule not in ("yes", "no"):
        raise ValueError(f"tie_rule must be 'yes' or 'no', got {tie_rule!r}")
    yes_count = sum(1 for v in verdicts if v is Verdict.YES)
    no_count = len(verdicts) - yes_count
    if yes_count > no_count:
        decision = Verdict.YES
    elif no_count > yes_count:
        decision = Verdict.NO
    else:
        decision = Verdict.YES if tie_rule == "yes" else Verdict.NO
    return VoteRecord(
        doi=doi, cq_id=cq_id, yes_count=yes_count, no_count=no_count, decision=decision
    )


def vote_all(
    answers: Sequence[CategoricalAnswer], tie_rule: str = "no"
) -> list[VoteRecord]:
    """Group categorical answers by (doi, cq) and vote each group."""
    groups: dict[tuple[str, int], list[Verdict]] = {}
    for answer in answers:
        groups.setdefault((answer.doi, answer.cq_id), []).append(answer.verdict)
    return [
        majority_vote(verdicts, tie_rule, doi=doi, cq_id=cq_id)
        for (doi, cq_id), verdicts in sorted(groups.items())
    ]


def filter_dl_publication(
    publication: PublicationRecord,
    endpoint: ModelEndpoint,
    gateway: LlmGateway,
    chunking: ChunkingConfig,
    budget: int = 1200,
) -> FilterVerdict:
    """Judge whether the publication actually describes a deep-learning study.

    An unparseable judgment retains the publication; a failed request
    raises `GatewayError`.
    """
    template = prompts.default_registry()["dl-filter"]
    query = next(
        line[len("Query: "):]
        for line in template.body.splitlines()
        if line.startswith("Query: ")
    )
    context = retrieve_context(
        publication.full_text, query, chunking, budget, doc_id=publication.citation.doi
    )
    prompt = template.render({"context": context.text})
    request = ChatRequest.create(endpoint, prompt)
    response = gateway.complete(
        endpoint, request, doc_id=publication.citation.doi, stage="filter"
    )
    verdict = parse_categorical_response(response.text)
    if verdict is Verdict.UNPARSEABLE:
        log.warning(
            "unparseable filter judgment for %s, publication retained",
            publication.citation.doi,
        )
    return FilterVerdict(
        doi=publication.citation.doi,
        is_dl_study=verdict is not Verdict.NO,
    )


class VerdictStore(appendlog.RecordStore[CategoricalAnswer]):
    """CSV store of categorical answers: doi, cq_id, endpoint, verdict."""

    header = appendlog.csv_line(("doi", "cq_id", "endpoint", "verdict"))

    def encode(self, answer: CategoricalAnswer) -> str:
        return appendlog.csv_line(
            (answer.doi, answer.cq_id, answer.endpoint, answer.verdict.value)
        )

    def parse(self, lines: Iterable[str]) -> list[CategoricalAnswer]:
        # one string object per distinct DOI and endpoint, held by every record that names it
        share = {}.setdefault
        return [
            CategoricalAnswer(share(doi, doi), int(cq_id), share(endpoint, endpoint),
                              _VERDICTS[verdict])
            for doi, cq_id, endpoint, verdict in filter(None, csv.reader(lines))
        ]


class FilterStore(appendlog.RecordStore[FilterVerdict]):
    """CSV store of filter verdicts: doi, is_dl_study (true or false)."""

    header = appendlog.csv_line(("doi", "is_dl_study"))

    def encode(self, verdict: FilterVerdict) -> str:
        return appendlog.csv_line((verdict.doi, "true" if verdict.is_dl_study else "false"))

    def parse(self, lines: Iterable[str]) -> list[FilterVerdict]:
        flags = {"true": True, "false": False}
        return [
            FilterVerdict(doi=doi, is_dl_study=flags[flag])
            for doi, flag in filter(None, csv.reader(lines))
        ]


class VoteStore(appendlog.RecordStore[VoteRecord]):
    """CSV table of vote decisions: doi, cq_id, yes_count, no_count, decision."""

    header = appendlog.csv_line(("doi", "cq_id", "yes_count", "no_count", "decision"))

    def encode(self, vote: VoteRecord) -> str:
        return appendlog.csv_line(
            (vote.doi, vote.cq_id, vote.yes_count, vote.no_count, vote.decision.value)
        )

    def parse(self, lines: Iterable[str]) -> list[VoteRecord]:
        return [
            VoteRecord(doi, int(cq_id), int(yes_count), int(no_count), _VERDICTS[decision])
            for doi, cq_id, yes_count, no_count, decision in filter(None, csv.reader(lines))
        ]


def run_conversions(
    answers: Sequence[TextualAnswer],
    questions_by_id: Mapping[int, CompetencyQuestion],
    endpoints_by_name: Mapping[str, ModelEndpoint],
    gateway: LlmGateway,
    store: VerdictStore,
) -> RunResult:
    """Convert every stored textual answer that has no verdict yet, through
    `run_requests` in one batch per publication in key order, at the
    gateway's parallelism.

    Raises `PipelineError` before any request when a pending answer's
    question or endpoint is not in the current configuration. Only when some
    answer's is not does this read the store's keys to tell whether the
    answer is pending.
    """
    answers = sorted(answers, key=lambda a: a.key)
    unconfigured = [a for a in answers
                    if a.cq_id not in questions_by_id or a.endpoint not in endpoints_by_name]
    if unconfigured:
        stored = store.keys()
        for answer in unconfigured:
            if answer.key not in stored:
                unknown = (f"question {answer.cq_id}" if answer.cq_id not in questions_by_id
                           else f"endpoint {answer.endpoint!r}")
                raise PipelineError(
                    f"a stored answer is for {unknown}, which is not configured; "
                    "run `ask --no-resume` to answer with the current configuration"
                )

    def prepare(answer: TextualAnswer) -> Callable[[], CategoricalAnswer]:
        return functools.partial(to_categorical, questions_by_id[answer.cq_id], answer,
                                 endpoints_by_name[answer.endpoint], gateway)

    return run_requests(
        (batch for _, batch in itertools.groupby(answers, key=lambda a: a.doi)),
        lambda answer: answer.key, prepare, store, gateway.parallelism,
    )
