"""Categorical conversion of textual answers, hard majority voting, and the
deep-learning relevance filter."""

from __future__ import annotations

import csv
import enum
import logging
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence, TextIO

from . import appendlog, prompts
from .corpus import PublicationRecord
from .errors import GatewayError
from .extraction import CompetencyQuestion, TextualAnswer
from .gateway import ChatRequest, LlmGateway, ModelEndpoint
from .retrieval import ChunkingConfig, retrieve_context

log = logging.getLogger(__name__)

RESPONSE_MARKER = "response:"


class Verdict(str, enum.Enum):
    YES = "Yes"
    NO = "No"
    UNPARSEABLE = "Unparseable"


@dataclass(frozen=True)
class CategoricalAnswer:
    doi: str
    cq_id: int
    endpoint: str
    verdict: Verdict
    note: str = ""

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.doi, self.cq_id, self.endpoint)


@dataclass(frozen=True)
class VoteRecord:
    doi: str
    cq_id: int
    yes_count: int
    no_count: int
    decision: Verdict


@dataclass(frozen=True)
class FilterVerdict:
    doi: str
    is_dl_study: bool
    endpoint: str


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
    try:
        response = gateway.complete(endpoint, request, doc_id=answer.doi, stage="categorize")
    except GatewayError as exc:
        return CategoricalAnswer(
            doi=answer.doi,
            cq_id=answer.cq_id,
            endpoint=endpoint.name,
            verdict=Verdict.UNPARSEABLE,
            note=f"gateway failure: {exc}",
        )
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
) -> Optional[FilterVerdict]:
    """Judge whether the publication actually describes a deep-learning study.

    Returns None on gateway failure (the publication is retained with a
    warning). An unparseable judgment also retains the publication.
    """
    template = prompts.default_registry().get("dl-filter")
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
    try:
        response = gateway.complete(
            endpoint, request, doc_id=publication.citation.doi, stage="filter"
        )
    except GatewayError as exc:
        log.warning(
            "filter judgment failed for %s, publication retained: %s",
            publication.citation.doi, exc,
        )
        return None
    verdict = parse_categorical_response(response.text)
    if verdict is Verdict.UNPARSEABLE:
        log.warning(
            "unparseable filter judgment for %s, publication retained",
            publication.citation.doi,
        )
    return FilterVerdict(
        doi=publication.citation.doi,
        is_dl_study=verdict is not Verdict.NO,
        endpoint=endpoint.name,
    )


class VerdictStore:
    """CSV store of categorical answers: doi, cq_id, endpoint, verdict.

    Appends go to one handle, opened by the first `append` (which writes the
    header to a new file) and kept until `close` or `canonicalize`; each row
    is flushed to the OS as it is written. A final row cut short by a crash
    is handled as in `extraction.AnswerStore`: `load` drops it with a warning
    and the first `append` truncates it, or terminates a complete row that
    only lost its newline. A malformed row anywhere else raises.
    """

    HEADER = ("doi", "cq_id", "endpoint", "verdict")

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None
        self._writer = None

    def append(self, answer: CategoricalAnswer) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = appendlog.open_append(self.path, _parse_tail)
                self._writer = csv.writer(self._fh)
                if self._fh.tell() == 0:
                    self._writer.writerow(self.HEADER)
            self._writer.writerow(
                [answer.doi, answer.cq_id, answer.endpoint, answer.verdict.value]
            )
            self._fh.flush()

    def close(self) -> None:
        """Close the file `append` opened; a later `append` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = self._writer = None

    def load(self) -> list[CategoricalAnswer]:
        if not self.path.is_file():
            return []
        def parse(lines: Iterator[str]) -> list[CategoricalAnswer]:
            rows = csv.reader(lines)
            header = next(rows, None)
            if header is not None and tuple(header) != self.HEADER:
                raise ValueError(f"{self.path}: expected header {','.join(self.HEADER)}")
            return [_categorical(row) for row in rows if row]

        return appendlog.read_records(self.path, parse, _parse_tail)

    def keys(self) -> set[tuple[str, int, str]]:
        return {a.key for a in self.load()}

    def canonicalize(self) -> None:
        self.close()
        answers = sorted(self.load(), key=lambda a: a.key)
        with self._lock:
            with open(self.path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(self.HEADER)
                for a in answers:
                    writer.writerow([a.doi, a.cq_id, a.endpoint, a.verdict.value])


def _categorical(row: Sequence[str]) -> CategoricalAnswer:
    doi, cq_id, endpoint, verdict = row
    return CategoricalAnswer(
        doi=doi, cq_id=int(cq_id), endpoint=endpoint, verdict=Verdict(verdict)
    )


def _parse_tail(line: bytes) -> Optional[CategoricalAnswer]:
    """The answer on an unterminated final row, or None if the write was cut short."""
    try:
        return _categorical(next(csv.reader([line.decode("utf-8")])))
    except (UnicodeDecodeError, csv.Error, ValueError, StopIteration):
        return None


@dataclass
class ConversionResult:
    completed: int = 0
    skipped: int = 0
    failed: list[tuple[str, int, str]] = field(default_factory=list)


def run_conversions(
    answers: Sequence[TextualAnswer],
    questions_by_id: Mapping[int, CompetencyQuestion],
    endpoints_by_name: Mapping[str, ModelEndpoint],
    gateway: LlmGateway,
    store: VerdictStore,
    parallelism: int = 4,
) -> ConversionResult:
    """Convert every stored textual answer; resumable like the answer matrix.

    Verdicts are appended on the calling thread; the store is closed when the
    run ends, also by an exception.
    """
    existing = store.keys()
    result = ConversionResult()
    work = []
    for answer in sorted(answers, key=lambda a: a.key):
        if answer.key in existing:
            result.skipped += 1
        else:
            work.append(answer)

    def run_one(answer: TextualAnswer) -> CategoricalAnswer:
        return to_categorical(
            questions_by_id[answer.cq_id],
            answer,
            endpoints_by_name[answer.endpoint],
            gateway,
        )

    try:
        if parallelism <= 1:
            for answer in work:
                store.append(run_one(answer))
                result.completed += 1
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                futures = {pool.submit(run_one, answer): answer for answer in work}
                for future in as_completed(futures):
                    store.append(future.result())
                    result.completed += 1
    finally:
        store.close()
    store.canonicalize()
    return result


def save_votes(path: str | Path, votes: Sequence[VoteRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doi", "cq_id", "yes_count", "no_count", "decision"])
        for vote in votes:
            writer.writerow(
                [vote.doi, vote.cq_id, vote.yes_count, vote.no_count, vote.decision.value]
            )


def load_votes(path: str | Path) -> list[VoteRecord]:
    votes = []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            votes.append(
                VoteRecord(
                    doi=row["doi"],
                    cq_id=int(row["cq_id"]),
                    yes_count=int(row["yes_count"]),
                    no_count=int(row["no_count"]),
                    decision=Verdict(row["decision"]),
                )
            )
    return votes


def save_filters(path: str | Path, verdicts: Sequence[FilterVerdict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doi", "is_dl_study"])
        for verdict in verdicts:
            writer.writerow([verdict.doi, str(verdict.is_dl_study).lower()])


def load_filters(path: str | Path) -> dict[str, bool]:
    verdicts: dict[str, bool] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            verdicts[row["doi"]] = row["is_dl_study"] == "true"
    return verdicts
