"""Question answering over the corpus: one textual answer per
(publication, question, endpoint) triple, stored resumably."""

from __future__ import annotations

import functools
import json
import logging
import threading
from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TextIO

from . import appendlog, prompts
from .corpus import PublicationRecord
from .errors import GatewayError
from .gateway import ChatRequest, LlmGateway, ModelEndpoint
from .retrieval import ChunkingConfig, DocumentIndex, retrieve_context

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
    raw_text: str
    clean_text: str
    duration_ms: int

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.doi, self.cq_id, self.endpoint)


class AnswerStore:
    """Append-only JSONL store of textual answers, keyed by (doi, cq, endpoint).

    Records are appended as they complete so an interrupted run can resume:
    the first `append` opens the file, which stays open until `close` or
    `canonicalize`, and each record is flushed to the OS as it is written.
    `canonicalize` rewrites the finished file in sorted key order, which makes
    completed stores byte-identical regardless of worker count.

    A crash can leave a final line whose newline was never written. If that
    line does not parse, `load` drops it with a warning and the first
    `append` truncates it away, so the next record starts on a line of its
    own; a complete record that only lost its newline is kept. A malformed
    line anywhere else is corruption and raises.
    """

    FIELDS = ("doi", "cq_id", "endpoint", "clean_text", "duration_ms")

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None

    def append(self, answer: TextualAnswer) -> None:
        record = {
            "doi": answer.doi,
            "cq_id": answer.cq_id,
            "endpoint": answer.endpoint,
            "clean_text": answer.clean_text,
            "duration_ms": answer.duration_ms,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            if self._fh is None:
                self._fh = appendlog.open_append(self.path, _parse_tail)
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        """Close the file `append` opened; a later `append` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def load(self) -> list[dict]:
        if not self.path.is_file():
            return []
        return appendlog.read_records(
            self.path,
            lambda lines: [json.loads(line) for line in lines if line.strip()],
            _parse_tail,
        )

    def keys(self) -> set[tuple[str, int, str]]:
        return {(r["doi"], r["cq_id"], r["endpoint"]) for r in self.load()}

    def canonicalize(self) -> None:
        self.close()
        records = self.load()
        records.sort(key=lambda r: (r["doi"], r["cq_id"], r["endpoint"]))
        with self._lock:
            with open(self.path, "w", encoding="utf-8") as fh:
                for record in records:
                    ordered = {name: record[name] for name in self.FIELDS}
                    fh.write(json.dumps(ordered, ensure_ascii=False) + "\n")


def _parse_tail(line: bytes) -> Optional[dict]:
    """The record on an unterminated final line, or None if the write was cut short."""
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def _require_text(publication: PublicationRecord) -> None:
    if not publication.full_text.strip():
        raise ValueError(f"publication {publication.citation.doi} has empty text")


def _ask(
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
        raw_text=response.text,
        clean_text=strip_answer_markers(response.text),
        duration_ms=response.duration_ms,
    )


def answer_cq(
    publication: PublicationRecord,
    cq: CompetencyQuestion,
    endpoint: ModelEndpoint,
    gateway: LlmGateway,
    chunking: ChunkingConfig,
    budget: int = 1200,
) -> TextualAnswer:
    """Retrieve context for the question, prompt the endpoint, clean the reply."""
    _require_text(publication)
    context = retrieve_context(
        publication.full_text, cq.text, chunking, budget, doc_id=publication.citation.doi
    )
    return _ask(publication, cq, endpoint, context.text, gateway)


@dataclass
class MatrixResult:
    completed: int = 0
    skipped: int = 0
    failed: list[tuple[str, int, str, str]] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        return not self.failed


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
    _require_text(publication)
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
) -> MatrixResult:
    """Fill the (publication x question x endpoint) answer matrix.

    Existing store entries are skipped, failed items are retried once at the
    end of the run, and the store is canonicalized when the matrix is
    complete; it is closed when the run ends, also by an exception.
    Retrieval and store appends run on the calling thread, retrieval once per
    (publication, question) with pending work; worker threads only wait on
    the endpoints.
    Publications are handled in DOI order with at most two publications'
    requests in flight, so memory does not grow with the corpus.
    """
    existing = store.keys()
    result = MatrixResult()
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

    def ask(item: _Item) -> TextualAnswer:
        return _ask(*item, gateway)

    failures: list[_Item] = []

    def record(item: _Item, answer: Callable[[], TextualAnswer]) -> None:
        try:
            store.append(answer())
            result.completed += 1
        except GatewayError:
            failures.append(item)

    try:
        if parallelism <= 1:
            for pub, items in pending:
                for item in _with_contexts(pub, items, chunking, budget):
                    record(item, functools.partial(ask, item))
        else:
            def drain(batch: dict[Future, _Item]) -> None:
                for future in as_completed(batch):
                    record(batch[future], future.result)

            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                previous: dict[Future, _Item] = {}
                for pub, items in pending:
                    # build this publication's contexts while the previous one's
                    # requests run; at most two publications are in flight
                    current = {
                        pool.submit(ask, item): item
                        for item in _with_contexts(pub, items, chunking, budget)
                    }
                    drain(previous)
                    previous = current
                drain(previous)

        # one end-of-run retry for anything that failed, on the same contexts
        for item in failures:
            pub, cq, endpoint, _ = item
            try:
                store.append(ask(item))
                result.completed += 1
            except GatewayError as exc:
                result.failed.append((pub.citation.doi, cq.id, endpoint.name, str(exc)))
    finally:
        store.close()

    if result.is_complete:
        store.canonicalize()
    else:
        log.error("answer matrix incomplete: %d item(s) failed", len(result.failed))
    return result
