"""Uniform client for remote chat-completion endpoints.

One gateway instance serves every endpoint in a run. It retries transient
failures with exponential backoff, enforces per-endpoint rate limits and
in-flight caps, bounds the requests being sent at once over all endpoints,
and appends one timing entry per completed request to a thread-safe log. A
deterministic mock backend replaces the network for offline runs and tests.

A request holds two kinds of token, each from a `_Slots` counter. Its
endpoint's in-flight token (`MAX_IN_FLIGHT` per endpoint) is held from
when `LlmGateway.complete` starts until it returns or raises, over every
attempt, backoff and rate-limit wait. A send slot (``parallelism`` over all
endpoints) is held only for one attempt's credential check, its rate-limit
check and, when the window has room, its `Backend.send`, until the send
returns or raises. Both are given back on every exit, an exception or an
interrupt included. An endpoint's credential rejection is recorded before
the send slot is given back, so every request to that endpoint that takes
a send slot after it fails without reaching the backend, at every
``parallelism``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import logging
import operator
import os
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Protocol, Sequence, TextIO, TypeVar,
)

from . import appendlog
from .errors import AuthenticationError, GatewayError, RefusedRequestError

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

T = TypeVar("T")

STAGES = ("rag", "categorize", "filter", "keywords")

DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_SECONDS = 2.0
# Requests being sent at once, over all endpoints.
DEFAULT_PARALLELISM = 4
# Requests one endpoint may have in flight at once, whatever the parallelism.
MAX_IN_FLIGHT = 4


@dataclass(frozen=True)
class ModelEndpoint:
    name: str
    base_url: str = ""
    model_id: str = ""
    temperature: float = 0.0
    api_key_env: str = ""
    rate_limit_per_min: Optional[int] = None

    def __post_init__(self) -> None:
        if self.temperature != 0.0:
            raise ValueError("endpoint temperature is pinned to 0")
        if not self.name:
            raise ValueError("endpoint needs a name")


@dataclass(frozen=True)
class ChatRequest:
    prompt: str
    request_id: str

    @classmethod
    def create(cls, endpoint: ModelEndpoint, prompt: str) -> "ChatRequest":
        digest = hashlib.sha256(f"{endpoint.name}\n{prompt}".encode("utf-8")).hexdigest()
        return cls(prompt=prompt, request_id=digest)


@dataclass(frozen=True)
class ChatResponse:
    text: str
    duration_ms: int
    attempt_count: int


@dataclass(frozen=True, slots=True)
class TimingEntry:
    unique_id: str
    doc_id: str
    endpoint: str
    stage: str
    duration_ms: int
    timestamp: str  # ISO-8601, UTC


class TimingLog:
    """Append-only during a run; internally synchronized."""

    def __init__(self, entries: Iterable[TimingEntry] = ()) -> None:
        self._entries: list[TimingEntry] = list(entries)
        self._lock = threading.Lock()

    def append(self, entry: TimingEntry) -> None:
        if entry.stage not in STAGES:
            raise ValueError(f"unknown stage {entry.stage!r}")
        with self._lock:
            self._entries.append(entry)

    def entries(self) -> list[TimingEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[TimingEntry]:
        return iter(self.entries())

    def save_csv(self, path: str | Path) -> None:
        """Append this log's entries to the timing CSV at ``path`` in one open,
        writing the header to a new file."""
        with contextlib.closing(TimingStore(path)) as store:
            store.extend(self.entries())

    @classmethod
    def load_csv(cls, path: str | Path) -> "TimingLog":
        """Read a timing CSV, dropping a final row cut short by a crash."""
        return cls(TimingStore(path).load())


# a timing entry's fields in the order of the CSV columns
_timing_row = operator.attrgetter(
    "unique_id", "doc_id", "endpoint", "stage", "duration_ms", "timestamp"
)


class TimingStore(appendlog.RecordStore[TimingEntry]):
    """CSV timing log, one row per completed request."""

    header = appendlog.csv_line(
        ("unique_id", "doi", "endpoint", "stage", "duration_ms", "timestamp_iso8601")
    )

    def encode(self, e: TimingEntry) -> str:
        return appendlog.csv_line(_timing_row(e))

    def write_records(self, fh: TextIO, entries: Sequence[TimingEntry]) -> None:
        # one writer for every row, straight to the file: the rows `encode`
        # gives, without a string per row
        csv.writer(fh).writerows(map(_timing_row, entries))

    def parse(self, lines: Iterable[str]) -> list[TimingEntry]:
        # one string object per distinct DOI, endpoint and stage, held by every entry that names it
        share = {}.setdefault
        return [
            TimingEntry(uid, share(doc_id, doc_id), share(endpoint, endpoint), share(stage, stage),
                        duration_ms, timestamp)
            for uid, doc_id, endpoint, stage, duration_ms, timestamp in self.rows(lines)
        ]

    @staticmethod
    def rows(lines: Iterable[str]) -> Iterator[tuple[str, str, str, str, int, str]]:
        """The fields of each row on ``lines``, blank ones skipped, with the
        duration read as an integer; an unknown stage raises ValueError."""
        for uid, doc_id, endpoint, stage, duration_ms, timestamp in filter(None, csv.reader(lines)):
            if stage not in STAGES:
                raise ValueError(f"unknown stage {stage!r}")
            yield uid, doc_id, endpoint, stage, int(duration_ms), timestamp

    def parse_tail(self, line: bytes) -> Optional[TimingEntry]:
        # A row cut inside its timestamp still has six fields, so a whole
        # entry is one whose timestamp reads back exactly as
        # `datetime.isoformat` wrote it.
        entry = super().parse_tail(line)
        if entry is None:
            return None
        try:
            written = datetime.fromisoformat(entry.timestamp)
        except ValueError:
            return None
        whole = written.tzinfo is not None and written.isoformat() == entry.timestamp
        return entry if whole else None


def _survivors(rows: Iterable[tuple[str, str, T]]) -> dict[str, tuple[str, int, T]]:
    """For ``rows`` of (unique_id, timestamp, value) in log order, the
    (timestamp, position, value) of each unique_id's row with the greatest
    (timestamp, position): a repeated request's latest entry, and of entries
    with equal timestamps the later one."""
    best: dict[str, tuple[str, int, T]] = {}
    for position, (unique_id, timestamp, value) in enumerate(rows):
        current = best.get(unique_id)
        # positions only grow, so an equal timestamp goes to this row
        if current is None or timestamp >= current[0]:
            best[unique_id] = (timestamp, position, value)
    return best


def dedupe_timing_logs(timing: TimingLog) -> TimingLog:
    """Keep, per unique_id, the entry with the greatest (timestamp, position).

    Survivors are emitted in the order their surviving instance appeared.
    Idempotent: a log without repeated ids passes through unchanged.
    """
    best = _survivors((entry.unique_id, entry.timestamp, entry) for entry in timing.entries())
    survivors = sorted(best.values(), key=lambda item: item[1])
    return TimingLog(entry for _, _, entry in survivors)


def stage_runtimes(path: str | Path) -> dict[str, int]:
    """Per stage, the total duration in milliseconds of the entries that
    `dedupe_timing_logs` keeps of the timing CSV at ``path``. The file is read
    in one pass and checked as `TimingStore.load` checks it; per unique_id
    only its survivor's timestamp, stage and duration are kept, and no entry
    is built."""
    store = TimingStore(path)
    best = store.scan(lambda lines: _survivors(
        (uid, timestamp, (stage, duration_ms))
        for uid, _, _, stage, duration_ms, timestamp in store.rows(lines)
    ))
    totals = dict.fromkeys(STAGES, 0)
    for _, _, (stage, duration_ms) in best.values():
        totals[stage] += duration_ms
    return totals


def sum_runtime(
    timing: TimingLog,
    stage: str,
    endpoint: Optional[str] = None,
    doc_id: Optional[str] = None,
) -> int:
    """Total duration in milliseconds for one stage, optionally narrowed to
    one endpoint and/or one document."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {STAGES}")
    return sum(
        e.duration_ms
        for e in timing.entries()
        if e.stage == stage
        and (endpoint is None or e.endpoint == endpoint)
        and (doc_id is None or e.doc_id == doc_id)
    )


def format_hours_minutes(duration_ms: int) -> str:
    total_minutes = duration_ms // 60_000
    return f"{total_minutes // 60}hr {total_minutes % 60}min"


class RateLimiter:
    """Sliding-window limiter: at most ``per_minute`` acquisitions in any
    60-second window. The caller waits; the clock is injectable for tests."""

    def __init__(self, per_minute: int, clock: Callable[[], float] = time.monotonic) -> None:
        if per_minute < 1:
            raise ValueError("per_minute must be >= 1")
        self.per_minute = per_minute
        self._clock = clock
        self._dispatches: deque[float] = deque()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Count one dispatch now and return 0, or return the seconds to
        wait before the window has room, counting nothing."""
        with self._lock:
            now = self._clock()
            while self._dispatches and now - self._dispatches[0] >= 60.0:
                self._dispatches.popleft()
            if len(self._dispatches) < self.per_minute:
                self._dispatches.append(now)
                return 0.0
            return max(60.0 - (now - self._dispatches[0]), 0.001)


class TransientBackendError(Exception):
    """Retriable failure: timeout, connection problem, 429, 5xx."""


class Backend(Protocol):
    def send(self, endpoint: ModelEndpoint, request: ChatRequest) -> tuple[str, int]:
        """Return (response text, duration in ms). May raise
        TransientBackendError, AuthenticationError, RefusedRequestError or
        GatewayError."""


class HttpBackend:
    """Chat-completion wire format shared by common hosted inference providers.

    Request body: model, messages=[{role, content}] and temperature. The
    first choice's message content is consumed. The sub-400-word cap is
    carried by the prompt text, so responses are never truncated locally.
    `requests` is imported here rather than at module level, so a stage
    that sends no HTTP request never loads it.
    """

    def __init__(self, timeout: float = 120.0, session: Optional[requests.Session] = None):
        import requests

        self.timeout = timeout
        self.session = session or requests.Session()

    def send(self, endpoint: ModelEndpoint, request: ChatRequest) -> tuple[str, int]:
        import requests

        headers = {"Content-Type": "application/json"}
        if endpoint.api_key_env:
            key = os.environ.get(endpoint.api_key_env, "")
            if not key:
                raise AuthenticationError(
                    f"environment variable {endpoint.api_key_env} is not set "
                    f"for endpoint {endpoint.name}"
                )
            headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": endpoint.model_id,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": endpoint.temperature,
        }
        started = time.monotonic()
        try:
            response = self.session.post(
                endpoint.base_url, json=payload, headers=headers, timeout=self.timeout
            )
        except (requests.Timeout, requests.ConnectionError) as exc:
            raise TransientBackendError(str(exc)) from exc
        duration_ms = int((time.monotonic() - started) * 1000)
        if response.status_code in (401, 403):
            raise AuthenticationError(
                f"endpoint {endpoint.name} rejected credentials (HTTP {response.status_code})"
            )
        if response.status_code == 429 or response.status_code >= 500:
            raise TransientBackendError(f"HTTP {response.status_code}")
        if response.status_code != 200:
            raise RefusedRequestError(f"HTTP {response.status_code}: {response.text[:200]}")
        try:
            text = response.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise RefusedRequestError(f"malformed completion payload: {exc}") from exc
        if not isinstance(text, str):
            raise RefusedRequestError(
                f"malformed completion payload: message content is {type(text).__name__}, "
                "not a string"
            )
        return text, duration_ms


def _stable_int(seed: str, modulus: int) -> int:
    return int(hashlib.sha256(seed.encode("utf-8")).hexdigest()[:8], 16) % modulus


_MOCK_TOPICS = (
    "a convolutional network trained on labelled field recordings",
    "a transformer fine-tuned on open satellite imagery",
    "standard preprocessing with normalization and augmentation",
    "an evaluation based on precision, recall and F1 score",
    "no specific detail beyond a general description of the workflow",
    "a public benchmark dataset referenced without an identifier",
)


class MockBackend:
    """Offline stand-in for the HTTP backend.

    Responses come from a canned map keyed by request_id (optionally loaded
    from a directory of ``<request_id>.txt`` files); requests without a canned
    entry fall back to a deterministic rule on the prompt text. Durations are
    synthesized from the request id so that transcripts and downstream
    reports are byte-identical across runs and thread counts.
    """

    def __init__(
        self,
        canned: Optional[dict[str, str]] = None,
        fail_first: Optional[dict[str, int]] = None,
    ) -> None:
        self.canned = dict(canned or {})
        self._fail_remaining = dict(fail_first or {})
        self._lock = threading.Lock()

    @classmethod
    def from_dir(cls, directory: str | Path) -> "MockBackend":
        canned = {}
        for path in sorted(Path(directory).glob("*.txt")):
            canned[path.stem] = path.read_text(encoding="utf-8")
        return cls(canned=canned)

    def send(self, endpoint: ModelEndpoint, request: ChatRequest) -> tuple[str, int]:
        with self._lock:
            remaining = self._fail_remaining.get(request.request_id, 0)
            if remaining > 0:
                self._fail_remaining[request.request_id] = remaining - 1
                raise TransientBackendError("mock transient failure")
        text = self.canned.get(request.request_id)
        if text is None:
            text = self._default_response(request)
        duration_ms = _stable_int("duration:" + request.request_id, 1800) + 120
        return text, duration_ms

    @staticmethod
    def _default_response(request: ChatRequest) -> str:
        # seeded on the request id, so distinct endpoints disagree like real
        # models would
        h = _stable_int(request.request_id, 2 ** 31)
        prompt = request.prompt
        if "Provide a binary response" in prompt or "Response: (Yes or No)" in prompt:
            verdict = "Yes" if h % 2 == 0 else "No"
            return f"Answer:::\nResponse: {verdict}\nAnswer:::"
        if "Deep learning related words:" in prompt:
            extra = f"term{h % 97}"
            return (
                "Answer:::\n"
                f"Deep learning related words: neural network, {extra}\n"
                "Answer:::"
            )
        topic = _MOCK_TOPICS[h % len(_MOCK_TOPICS)]
        return f"The study describes {topic} (trace {h % 10_000})."


class _Slots:
    """Counting semaphore for `with`: entering takes one of ``count`` tokens,
    waiting while none is left, and leaving gives it back, also when the
    block raises. The tokens sit in a `queue.SimpleQueue`, so a take and a
    give are one C-level get and put, where a `threading.Semaphore` runs
    Python code around a `threading.Condition`."""

    __slots__ = ("_take", "_give")

    def __init__(self, count: int) -> None:
        tokens: queue.SimpleQueue = queue.SimpleQueue()
        for _ in range(count):
            tokens.put(None)
        self._take, self._give = tokens.get, tokens.put

    def __enter__(self) -> None:
        self._take()

    def __exit__(self, *exc_info: object) -> None:
        self._give(None)


@dataclass
class _EndpointState:
    in_flight: _Slots
    limiter: Optional[RateLimiter]
    # the endpoint's credential rejection, once the backend reported one
    rejected: Optional[AuthenticationError] = None


class LlmGateway:
    """Dispatch requests to a backend with retry, rate-limit and timing."""

    def __init__(
        self,
        backend: Backend,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        parallelism: int = DEFAULT_PARALLELISM,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.backend = backend
        self.timing_log = TimingLog()
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        # the most requests being sent at once; a request runner sizes its
        # pool from it
        self.parallelism = parallelism
        # held only around a rate-limit check and `backend.send`: a request
        # waiting out its backoff or its rate limit leaves its slot to another
        self._sending = _Slots(parallelism)
        self._sleep = sleep
        self._clock = clock
        self._states: dict[str, _EndpointState] = {}
        # taken only to add an endpoint; a dict lookup needs no lock
        self._states_lock = threading.Lock()

    def _state(self, endpoint: ModelEndpoint) -> _EndpointState:
        state = self._states.get(endpoint.name)
        if state is not None:
            return state
        with self._states_lock:
            state = self._states.get(endpoint.name)
            if state is None:
                limiter = None
                if endpoint.rate_limit_per_min:
                    limiter = RateLimiter(endpoint.rate_limit_per_min, clock=self._clock)
                state = _EndpointState(in_flight=_Slots(MAX_IN_FLIGHT), limiter=limiter)
                self._states[endpoint.name] = state
            return state

    def complete(
        self,
        endpoint: ModelEndpoint,
        request: ChatRequest,
        doc_id: str = "",
        stage: str = "rag",
    ) -> ChatResponse:
        """Send one request, retrying transient failures, and log the timing.

        At most ``parallelism`` sends run at once over all endpoints; backoff
        and rate-limit waits hold no send slot. At most `MAX_IN_FLIGHT`
        requests per endpoint are in progress, their waits included.

        An authentication failure propagates immediately and is fatal for
        the endpoint: every request to it that takes a send slot after the
        failure raises `AuthenticationError` without reaching the backend.
        Exhausting the retry budget raises GatewayError.
        """
        state = self._state(endpoint)
        last_error: Optional[Exception] = None
        with state.in_flight:
            for attempt in range(1, self.max_attempts + 1):
                try:
                    text, duration_ms = self._send(state, endpoint, request)
                except TransientBackendError as exc:
                    last_error = exc
                    if attempt < self.max_attempts:
                        delay = self.backoff_seconds * (2 ** (attempt - 1))
                        log.warning(
                            "transient failure from %s (attempt %d/%d), retrying in %.1fs: %s",
                            endpoint.name, attempt, self.max_attempts, delay, exc,
                        )
                        self._sleep(delay)
                    continue
                response = ChatResponse(text, duration_ms, attempt)
                self._log_timing(endpoint, request, doc_id, stage, duration_ms)
                return response
        raise GatewayError(
            f"request {request.request_id[:12]} to {endpoint.name} failed after "
            f"{self.max_attempts} attempts: {last_error}"
        )

    def _send(
        self, state: _EndpointState, endpoint: ModelEndpoint, request: ChatRequest
    ) -> tuple[str, int]:
        """Send under a send slot. The rate limit counts the request only
        once it holds a slot, so no wait for a slot falls between the two;
        a request that must wait for its window waits without a slot. The
        endpoint's credential rejection is checked and recorded under the
        slot too, so no request that takes a slot after it reaches the
        backend."""
        while True:
            with self._sending:
                if state.rejected is not None:
                    raise AuthenticationError(str(state.rejected))
                wait = state.limiter.try_acquire() if state.limiter is not None else 0.0
                if not wait:
                    try:
                        return self.backend.send(endpoint, request)
                    except AuthenticationError as exc:
                        state.rejected = exc
                        raise
            self._sleep(wait)

    def _log_timing(
        self,
        endpoint: ModelEndpoint,
        request: ChatRequest,
        doc_id: str,
        stage: str,
        duration_ms: int,
    ) -> None:
        unique_id = hashlib.sha256(f"{stage}|{request.request_id}".encode()).hexdigest()[:32]
        self.timing_log.append(TimingEntry(
            unique_id, doc_id, endpoint.name, stage, duration_ms,
            datetime.now(timezone.utc).isoformat(),
        ))
