"""Question answering over the corpus: one textual answer per
(publication, question, endpoint) triple, stored resumably."""

from __future__ import annotations

import contextlib
import functools
import logging
import queue
from concurrent.futures import ThreadPoolExecutor
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


@dataclass(frozen=True, slots=True)
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
        return appendlog.json_line(answer)

    def parse(self, lines: Sequence[str]) -> list[TextualAnswer]:
        # one string object per distinct DOI and endpoint, held by every answer that names it
        share = {}.setdefault

        def answer(doi, cq_id, endpoint, clean_text, duration_ms) -> TextualAnswer:
            return TextualAnswer(share(doi, doi), cq_id, share(endpoint, endpoint), clean_text,
                                 duration_ms)

        return appendlog.json_records(lines, answer)


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


def _outcome(request: Callable[[], R]) -> R | BaseException:
    """The record ``request`` returns, or the exception it raises."""
    try:
        return request()
    except BaseException as exc:  # raised again on the calling thread
        return exc


def _serve(requests: queue.SimpleQueue, outcomes: queue.SimpleQueue) -> None:
    """Make each ``(item, request)`` taken from ``requests`` and put
    ``((item, request), outcome)`` on ``outcomes``, until a None."""
    while (pending := requests.get()) is not None:
        outcomes.put((pending, _outcome(pending[1])))


@contextlib.contextmanager
def _request_loops(count: int) -> Iterator[tuple[queue.SimpleQueue, queue.SimpleQueue]]:
    """Run ``count`` `_serve` loops on one request queue and one outcome
    queue, and yield the two queues. On exit, also by an exception, the
    requests still queued are dropped and each loop ends after the request
    it is making."""
    requests: queue.SimpleQueue = queue.SimpleQueue()
    outcomes: queue.SimpleQueue = queue.SimpleQueue()
    # The loops run on the executor, not on bare threads: perfbench's tracer
    # swaps this module's ThreadPoolExecutor for one that hands the
    # submitter's span to the worker, so every request's span stays under
    # its stage and `gateway.overlap` stays measured.
    with ThreadPoolExecutor(max_workers=count) as pool:
        try:
            for _ in range(count):
                pool.submit(_serve, requests, outcomes)
            yield requests, outcomes
        finally:
            with contextlib.suppress(queue.Empty):
                while True:
                    requests.get_nowait()
            for _ in range(count):
                requests.put(None)


def run_requests(
    batches: Iterable[Iterable[T]],
    key: Callable[[T], tuple],
    call: Callable[[T], Callable[[], R]],
    store: appendlog.RecordStore[R],
    parallelism: int,
) -> RunResult:
    """Make a request for each item whose record ``store`` lacks and append
    each record to ``store``. ``key(item)`` is the key of the item's record;
    it also names the item in ``failed``. ``call(item)`` prepares the item on
    the calling thread and returns its request: a function of no arguments
    that returns the record.

    Batches are taken in order on the calling thread, and a batch's pending
    items are all prepared before any of its requests is made. With
    ``parallelism`` above 1, ``2 * parallelism`` threads take the prepared
    requests from one queue, and the calling thread takes as many outcomes
    as the previous batch held before it prepares the next batch, so at most
    two batches are in flight and memory does not grow with the corpus.
    Callers pass the gateway's ``parallelism``, which also bounds the
    requests being sent; the other threads let as many requests wait out a
    backoff or a rate limit without idling a send slot. Records are appended
    on the calling thread as they arrive. The requests that raised
    `GatewayError` are made once more after the last batch, as one more
    batch; an item that fails again goes into ``failed``, which is sorted by
    ``key``, and nothing is stored for it, so a resume retries it.
    Any other exception, or an interrupt, stops the run: the queued requests
    are not made, only those already being made finish, every record already
    made is appended unless the exception came from the store, and the
    exception propagates. The store is closed when the run ends, also by an
    exception, and canonicalized when no item failed.
    """
    stored = store.keys()
    result = RunResult()
    failures: list[tuple[T, Callable[[], R]]] = []
    # true while an append runs, so that an exception is known to come from the store
    appending = False

    def prepare(batch: Iterable[T]) -> list[tuple[T, Callable[[], R]]]:
        pending = []
        for item in batch:
            if key(item) in stored:
                result.skipped += 1
            else:
                pending.append((item, call(item)))
        return pending

    def record(pending: tuple[T, Callable[[], R]], outcome: R | BaseException,
               last: bool) -> None:
        nonlocal appending
        if isinstance(outcome, GatewayError):
            if last:
                result.failed.append((*key(pending[0]), str(outcome)))
            else:
                failures.append(pending)
        elif isinstance(outcome, BaseException):
            raise outcome
        else:
            appending = True
            store.append(outcome)
            appending = False
            result.completed += 1

    def run(
        queues: Optional[tuple[queue.SimpleQueue, queue.SimpleQueue]],
        batches: Iterable[list[tuple[T, Callable[[], R]]]],
        last: bool,
    ) -> None:
        if queues is None:
            for batch in batches:
                for pending in batch:
                    record(pending, _outcome(pending[1]), last)
            return
        requests, outcomes = queues
        held = 0
        for batch in batches:
            for pending in batch:
                requests.put(pending)
            # the previous batch's worth of outcomes, while this batch runs
            for _ in range(held):
                record(*outcomes.get(), last)
            held = len(batch)
        for _ in range(held):
            record(*outcomes.get(), last)

    queues = None
    try:
        with (
            _request_loops(2 * parallelism) if parallelism > 1 else contextlib.nullcontext()
        ) as queues:
            run(queues, map(prepare, batches), last=False)
            run(queues, [failures], last=True)
    except BaseException:
        # The loops have ended, so every reply they finished is on the outcome
        # queue: store them, since they were paid for, unless the store failed.
        # An error while doing so stops it and never replaces the first one.
        if queues is not None and not appending:
            with contextlib.suppress(BaseException):
                while True:
                    outcome = queues[1].get_nowait()[1]
                    if not isinstance(outcome, BaseException):
                        store.append(outcome)
        raise
    finally:
        store.close()
    # in key order, not the order the threads finished them in
    result.failed.sort(key=lambda failure: failure[:-1])

    if result.is_complete:
        store.canonicalize()
    else:
        log.error("%d request(s) failed; nothing was stored for them", len(result.failed))
    return result


def run_matrix(
    publications: Sequence[PublicationRecord],
    questions: Sequence[CompetencyQuestion],
    endpoints: Sequence[ModelEndpoint],
    gateway: LlmGateway,
    store: AnswerStore,
    chunking: ChunkingConfig,
    budget: int = 1200,
) -> RunResult:
    """Fill the (publication x question x endpoint) answer matrix through
    `run_requests`, one batch per publication in DOI order, at the
    gateway's parallelism.

    A publication is indexed at its first pending item, and each
    (publication, question) context is retrieved once, on the calling
    thread, for the endpoints that still need it; only the current
    publication's index and context are kept. Worker threads only wait on
    the endpoints.
    """

    @functools.lru_cache(maxsize=1)
    def index(publication: PublicationRecord) -> DocumentIndex:
        if not publication.full_text.strip():
            raise ValueError(f"publication {publication.citation.doi} has empty text")
        return DocumentIndex(publication.full_text, chunking, doc_id=publication.citation.doi)

    @functools.lru_cache(maxsize=1)
    def context(publication: PublicationRecord, cq: CompetencyQuestion) -> str:
        return index(publication).retrieve(cq.text, budget).text

    def prepare(
        item: tuple[PublicationRecord, CompetencyQuestion, ModelEndpoint]
    ) -> Callable[[], TextualAnswer]:
        pub, cq, endpoint = item
        return functools.partial(answer_cq, pub, cq, endpoint, context(pub, cq), gateway)

    questions = sorted(questions, key=lambda q: q.id)
    return run_requests(
        ([(pub, cq, endpoint) for cq in questions for endpoint in endpoints]
         for pub in sorted(publications, key=lambda p: p.citation.doi)),
        lambda item: (item[0].citation.doi, item[1].id, item[2].name),
        prepare,
        store,
        gateway.parallelism,
    )
