"""Question answering over the corpus: one textual answer per
(publication, question, endpoint) triple, stored resumably."""

from __future__ import annotations

import functools
import json
import logging
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import appendlog, prompts
from .corpus import PublicationRecord
from .errors import GatewayError
from .gateway import ChatRequest, LlmGateway, ModelEndpoint
from .retrieval import ChunkingConfig, DocumentIndex
# Not called in this module; the span tracer in perfbench/trace.py patches this name.
from .retrieval import retrieve_context  # noqa: F401

log = logging.getLogger(__name__)

ANSWER_MARKERS = ("Helpful Answer::", "Answer::")


@dataclass(frozen=True)
class CompetencyQuestion:
    id: int
    text: str


def load_competency_questions(path: Optional[str | Path] = None) -> list[CompetencyQuestion]:
    """Read the tab-separated question list; ids must be unique and contiguous from 1."""
    if path is None:
        raw = resources.files("litrag.data").joinpath("competency_questions.txt").read_text("utf-8")
    else:
        raw = Path(path).read_text(encoding="utf-8")
    questions = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        ident, text = line.split("\t", 1)
        questions.append(CompetencyQuestion(id=int(ident), text=text))
    ids = [q.id for q in questions]
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError("question ids must be contiguous starting at 1")
    return questions


def strip_answer_markers(text: str) -> str:
    """Return the text after the final answer marker, trimmed.

    Models sometimes wrap the payload in scaffolding such as
    "Helpful Answer:: ..."; only what follows the last marker is kept.
    Idempotent, and the identity on marker-free input (modulo trimming).
    """
    cut = -1
    for marker in ANSWER_MARKERS:
        pos = text.rfind(marker)
        if pos >= 0:
            cut = max(cut, pos + len(marker))
    if cut >= 0:
        return text[cut:].strip()
    return text.strip()


@dataclass(frozen=True)
class TextualAnswer:
    doi: str
    cq_id: int
    endpoint: str
    clean_text: str
    duration_ms: int

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.doi, self.cq_id, self.endpoint)


class AnswerStore(appendlog.RecordStore[TextualAnswer]):
    """JSONL store of textual answers, one JSON object per line, keyed by
    (doi, cq, endpoint)."""

    def encode(self, answer: TextualAnswer) -> str:
        record = {
            "doi": answer.doi,
            "cq_id": answer.cq_id,
            "endpoint": answer.endpoint,
            "clean_text": answer.clean_text,
            "duration_ms": answer.duration_ms,
        }
        return json.dumps(record, ensure_ascii=False) + "\n"

    def parse(self, lines: Iterable[str]) -> list[TextualAnswer]:
        return [TextualAnswer(**json.loads(line)) for line in lines if line.strip()]


def answer_cq(
    publication: PublicationRecord,
    cq: CompetencyQuestion,
    endpoint: ModelEndpoint,
    context: str,
    gateway: LlmGateway,
) -> TextualAnswer:
    """Prompt the endpoint with the retrieved context and clean the reply."""
    prompt = prompts.render("cq-answering", {"query": cq.text, "context": context})
    request = ChatRequest.create(endpoint, prompt)
    response = gateway.complete(
        endpoint, request, doc_id=publication.citation.doi, stage="rag"
    )
    return TextualAnswer(
        doi=publication.citation.doi,
        cq_id=cq.id,
        endpoint=endpoint.name,
        clean_text=strip_answer_markers(response.text),
        duration_ms=response.duration_ms,
    )


@dataclass
class RunResult:
    """What one stage run did. ``failed`` holds one tuple per item whose
    request failed for good: the fields that name the item, then the error."""

    completed: int = 0
    skipped: int = 0
    failed: list[tuple] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return not self.failed


T = TypeVar("T")
R = TypeVar("R")


def run_requests(
    batches: Iterable[Iterable[T]],
    call: Callable[[T], R],
    key: Callable[[T], tuple],
    store: appendlog.RecordStore[R],
    parallelism: int,
    result: RunResult,
) -> RunResult:
    """Make one request per item with ``call`` and append each record to
    ``store``; ``key`` gives the fields that name an item in ``result.failed``.

    Batches are taken in order on the calling thread, so whatever builds a
    batch (retrieval, for `ask`) runs there too; with ``parallelism`` above 1
    the calls run on a thread pool with at most two batches in flight, so
    memory does not grow with the corpus. Records are appended on the
    calling thread as they arrive. An item whose call raises `GatewayError`
    is retried once after the last batch; if it fails again it goes into
    ``result.failed``, which is sorted by ``key``, and nothing is stored for
    it, so a resume retries it.
    The store is closed when the run ends, also by an exception, and
    canonicalized when no item failed.
    """
    failures: list[T] = []

    def record(item: T, outcome: Callable[[], R]) -> None:
        try:
            store.append(outcome())
            result.completed += 1
        except GatewayError:
            failures.append(item)

    try:
        if parallelism <= 1:
            for batch in batches:
                for item in batch:
                    record(item, functools.partial(call, item))
        else:
            def drain(futures: dict[Future, T]) -> None:
                for future in as_completed(futures):
                    record(futures[future], future.result)

            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                previous: dict[Future, T] = {}
                for batch in batches:
                    # build this batch while the previous one's requests run
                    current = {pool.submit(call, item): item for item in batch}
                    drain(previous)
                    previous = current
                drain(previous)

        for item in failures:
            try:
                store.append(call(item))
                result.completed += 1
            except GatewayError as exc:
                result.failed.append((*key(item), str(exc)))
    finally:
        store.close()
    # in key order, not the order the pool finished them in
    result.failed.sort(key=lambda failure: failure[:-1])

    if result.is_complete:
        store.canonicalize()
    else:
        log.error("%d request(s) failed; nothing was stored for them", len(result.failed))
    return result


# (publication, question, endpoint, retrieved context text)
_Item = tuple[PublicationRecord, CompetencyQuestion, ModelEndpoint, str]


def _with_contexts(
    publication: PublicationRecord,
    pending: Sequence[tuple[CompetencyQuestion, ModelEndpoint]],
    chunking: ChunkingConfig,
    budget: int,
) -> Iterator[_Item]:
    """Index the publication once and retrieve each question's context once,
    shared by every endpoint that still needs it."""
    if not publication.full_text.strip():
        raise ValueError(f"publication {publication.citation.doi} has empty text")
    index = DocumentIndex(publication.full_text, chunking, doc_id=publication.citation.doi)
    contexts: dict[int, str] = {}
    for cq, endpoint in pending:
        if cq.id not in contexts:
            contexts[cq.id] = index.retrieve(cq.text, budget).text
        yield publication, cq, endpoint, contexts[cq.id]


def run_matrix(
    publications: Sequence[PublicationRecord],
    questions: Sequence[CompetencyQuestion],
    endpoints: Sequence[ModelEndpoint],
    gateway: LlmGateway,
    store: AnswerStore,
    chunking: ChunkingConfig,
    budget: int = 1200,
    parallelism: int = 4,
) -> RunResult:
    """Fill the (publication x question x endpoint) answer matrix.

    Stored answers are skipped; the rest run through `run_requests`, one
    batch per publication in DOI order. Retrieval runs on the calling
    thread, once per (publication, question) with pending work; worker
    threads only wait on the endpoints.
    """
    existing = store.keys()
    result = RunResult()
    pending: list[tuple[PublicationRecord, list[tuple[CompetencyQuestion, ModelEndpoint]]]] = []
    for pub in sorted(publications, key=lambda p: p.citation.doi):
        items = []
        for cq in sorted(questions, key=lambda q: q.id):
            for endpoint in endpoints:
                if (pub.citation.doi, cq.id, endpoint.name) in existing:
                    result.skipped += 1
                else:
                    items.append((cq, endpoint))
        if items:
            pending.append((pub, items))

    return run_requests(
        (_with_contexts(pub, items, chunking, budget) for pub, items in pending),
        lambda item: answer_cq(*item, gateway),
        lambda item: (item[0].citation.doi, item[1].id, item[2].name),
        store,
        parallelism,
        result,
    )
