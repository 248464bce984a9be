"""Outside-in span tracing of the litrag layers.

The tracer wraps public functions of each litrag module from outside,
patching every name where its caller looks it up (``retrieve_context`` is
patched in ``litrag.extraction`` and in ``litrag.voting``, class methods on
their class). Each call records a span: name, start, end, parent span, the
root (stage) span and an item id such as ``doi|cq|endpoint``. The thread
pools of ``run_matrix`` and ``run_conversions`` are swapped for one that
hands the submitting span to the worker, so work done in pool threads keeps
its parent. Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

Extract = Callable[[tuple, dict, object], object]


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    root: int
    item: str = ""
    value: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _context(self) -> tuple[Optional[int], Optional[int]]:
        return getattr(self._local, "ctx", (None, None))

    def wrap(self, name: str, fn: Callable, item: Optional[Extract] = None,
             value: Optional[Extract] = None) -> Callable:
        """Return ``fn`` recording one span per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, root = tracer._context()
            span_id = next(tracer._ids)
            root = span_id if root is None else root
            tracer._local.ctx = (span_id, root)
            result = None
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                tracer._local.ctx = (parent, None if parent is None else root)
                tracer.spans.append(Span(
                    span_id, name, start, end, parent, root,
                    str(item(args, kwargs, result)) if item else "",
                    float(value(args, kwargs, result)) if value and not error else 0.0,
                    error,
                ))

        return traced

    @contextlib.contextmanager
    def block(self, name: str):
        """A span around a block of code, such as one CLI stage."""
        parent, root = self._context()
        span_id = next(self._ids)
        root = span_id if root is None else root
        self._local.ctx = (span_id, root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._local.ctx = (parent, None if parent is None else root)
            self.spans.append(Span(span_id, name, start, end, parent, root))

    def patch(self, owner: object, attr: str, name: str, item: Optional[Extract] = None,
              value: Optional[Extract] = None) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, item, value))
        else:
            replacement = self.wrap(name, original, item, value)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_pool(self, module: object) -> None:
        """Swap ``module.ThreadPoolExecutor`` for one that keeps span parents."""
        tracer = self
        base = module.ThreadPoolExecutor

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                ctx = tracer._context()

                def run(*a, **k):
                    tracer._local.ctx = ctx
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.ctx = (None, None)

                return super().submit(run, *args, **kwargs)

        self._patches.append((module, "ThreadPoolExecutor", base))
        module.ThreadPoolExecutor = TracedPool

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _corpus_bytes(args: tuple, kwargs: dict, load) -> int:
    from litrag.corpus import doi_to_filename

    directory = Path(_arg(args, kwargs, 0, "directory"))
    bibs = [directory / "bibliography.bib"] if (directory / "bibliography.bib").is_file() else sorted(directory.glob("*.bib"))
    paths = bibs + [directory / doi_to_filename(p.citation.doi) for p in load.publications]
    return sum(os.stat(p).st_size for p in paths)


def install_probes(tracer: Tracer) -> None:
    """Patch every probed litrag name; ``tracer.unpatch()`` undoes it."""
    from litrag import cli, extraction, gateway, metrics, prompts, reports, retrieval, textsim, voting

    def answer_item(a, k, _):
        pub, cq, endpoint = a[0], a[1], a[2]
        return f"{pub.citation.doi}|{cq.id}|{endpoint.name}"

    def retrieve_item(a, k, _):
        return f"{k.get('doc_id', '')}|{_arg(a, k, 1, 'query')}"

    def convert_item(a, k, _):
        answer = _arg(a, k, 1, "answer")
        return f"{answer.doi}|{answer.cq_id}|{answer.endpoint}"

    def request_item(a, k, _):
        return f"{k.get('doc_id', '')}|{_arg(a, k, 1, 'endpoint').name}"

    count = lambda a, k, result: len(result)  # noqa: E731

    tracer.patch(cli, "load_corpus", "corpus.load", value=_corpus_bytes)
    for module in (extraction, voting):
        tracer.patch(module, "retrieve_context", "retrieval.retrieve", item=retrieve_item)
        tracer.patch_pool(module)
    tracer.patch(retrieval, "chunk_document", "retrieval.chunk", value=count)
    tracer.patch(retrieval, "score_chunks", "retrieval.score")
    tracer.patch(retrieval, "assemble_context", "retrieval.assemble")
    tracer.patch(textsim.TfidfModel, "fit", "textsim.fit")
    tracer.patch(textsim.TfidfModel, "transform", "textsim.transform")
    tracer.patch(textsim, "tokenize", "textsim.tokenize", value=count)
    tracer.patch(textsim, "cosine", "textsim.cosine")
    tracer.patch(prompts.PromptTemplate, "render", "prompts.render")
    tracer.patch(gateway.LlmGateway, "complete", "gateway.complete", item=request_item)
    tracer.patch(gateway.MockBackend, "send", "gateway.send")
    tracer.patch(extraction, "answer_cq", "extraction.answer_cq", item=answer_item)
    tracer.patch(extraction.AnswerStore, "append", "extraction.store_append")
    tracer.patch(extraction.AnswerStore, "load", "extraction.store_load")
    tracer.patch(extraction.AnswerStore, "canonicalize", "extraction.canonicalize")
    tracer.patch(voting, "to_categorical", "voting.convert", item=convert_item)
    tracer.patch(voting.VerdictStore, "append", "voting.store_append")
    tracer.patch(voting.VerdictStore, "load", "voting.store_load")
    tracer.patch(voting.VerdictStore, "canonicalize", "voting.canonicalize")
    tracer.patch(cli, "vote_all", "voting.vote")
    tracer.patch(cli, "filter_dl_publication", "voting.filter",
                 item=lambda a, k, _: a[0].citation.doi)
    tracer.patch(metrics, "average_pairwise_similarity", "metrics.similarity")
    tracer.patch(metrics, "per_cq_coverage", "metrics.coverage")
    tracer.patch(metrics, "cohen_kappa", "metrics.kappa")
    tracer.patch(reports, "write_report", "reports.write", item=lambda a, k, _: _arg(a, k, 1, "name"))
    tracer.patch(gateway.TimingLog, "load_csv", "footprint.timing_load", value=count)
    tracer.patch(gateway.TimingLog, "save_csv", "footprint.timing_save")
    tracer.patch(cli, "footprint_from_log", "footprint.compute")


def covered_length(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


GATEWAY_STAGES = ("cli.ask", "cli.categorize")


def layer_metrics(spans: Sequence[Span], parallelism: int) -> dict[str, float]:
    """Per-layer counts and times of one traced iteration."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)
    names = {span.id: span.name for span in spans}

    def calls(name: str) -> int:
        return len(by_name[name])

    def seconds(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def total(name: str) -> float:
        return sum(s.value for s in by_name[name])

    def self_s(prefix: str) -> float:
        return sum(selfs[s.id] for s in spans if s.name.startswith(prefix))

    retrievals = by_name["retrieval.retrieve"]
    distinct = len({(s.root, s.item) for s in retrievals})
    backend_s = seconds("gateway.send")
    complete_s = seconds("gateway.complete")
    gateway_wall = sum(seconds(stage) for stage in GATEWAY_STAGES)
    backend_in_stages = sum(s.duration for s in by_name["gateway.send"] if names.get(s.root) in GATEWAY_STAGES)
    return {
        "corpus.load_calls": calls("corpus.load"),
        "corpus.load_s": seconds("corpus.load"),
        "corpus.bytes_read": total("corpus.load"),
        "retrieval.calls": len(retrievals),
        "retrieval.distinct_contexts": distinct,
        "retrieval.useful_ratio": distinct / len(retrievals) if retrievals else 0.0,
        "retrieval.self_s": self_s("retrieval."),
        "retrieval.chunk_s": seconds("retrieval.chunk"),
        "retrieval.chunks": total("retrieval.chunk"),
        "retrieval.score_s": seconds("retrieval.score"),
        "retrieval.assemble_s": seconds("retrieval.assemble"),
        "textsim.fit_calls": calls("textsim.fit"),
        "textsim.fit_s": seconds("textsim.fit"),
        "textsim.transform_calls": calls("textsim.transform"),
        "textsim.transform_s": seconds("textsim.transform"),
        "textsim.tokens": total("textsim.tokenize"),
        "textsim.cosine_calls": calls("textsim.cosine"),
        "textsim.cosine_s": seconds("textsim.cosine"),
        "textsim.self_s": self_s("textsim."),
        "prompts.render_calls": calls("prompts.render"),
        "prompts.render_s": seconds("prompts.render"),
        "gateway.requests": calls("gateway.complete"),
        "gateway.attempts": calls("gateway.send"),
        "gateway.failed": sum(1 for s in by_name["gateway.complete"] if s.error),
        "gateway.complete_s": complete_s,
        "gateway.backend_s": backend_s,
        "gateway.overhead_s": complete_s - backend_s,
        "gateway.overlap": backend_in_stages / (gateway_wall * parallelism) if gateway_wall else 0.0,
        "extraction.answer_self_s": self_s("extraction.answer_cq"),
        "extraction.store_appends": calls("extraction.store_append"),
        "extraction.store_append_s": seconds("extraction.store_append"),
        "extraction.store_loads": calls("extraction.store_load"),
        "extraction.store_load_s": seconds("extraction.store_load"),
        "extraction.canonicalize_s": seconds("extraction.canonicalize"),
        "voting.convert_s": seconds("voting.convert"),
        "voting.store_appends": calls("voting.store_append"),
        "voting.store_append_s": seconds("voting.store_append"),
        "voting.store_loads": calls("voting.store_load"),
        "voting.store_load_s": seconds("voting.store_load"),
        "voting.canonicalize_s": seconds("voting.canonicalize"),
        "voting.vote_s": seconds("voting.vote"),
        "voting.filter_s": seconds("voting.filter"),
        "metrics.similarity_s": seconds("metrics.similarity"),
        "metrics.coverage_s": seconds("metrics.coverage"),
        "metrics.kappa_calls": calls("metrics.kappa"),
        "metrics.kappa_s": seconds("metrics.kappa"),
        "reports.write_calls": calls("reports.write"),
        "reports.write_s": seconds("reports.write"),
        "footprint.timing_loads": calls("footprint.timing_load"),
        "footprint.timing_load_s": seconds("footprint.timing_load"),
        "footprint.timing_save_s": seconds("footprint.timing_save"),
        "footprint.timing_entries": total("footprint.timing_load"),
        "footprint.compute_s": seconds("footprint.compute"),
    }


def write_spans(path: Path, spans: Sequence[Span]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
