"""Sliding-window chunking, a per-document tf-idf index for chunk scoring, and
budgeted context assembly."""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Sequence

from . import textsim

log = logging.getLogger(__name__)


class TokenUnit(str, enum.Enum):
    WHITESPACE_WORD = "whitespace-word"
    CHARACTER = "character"


@dataclass(frozen=True)
class ChunkingConfig:
    chunk_size: int = 1000
    overlap: int = 50
    token_unit: TokenUnit = TokenUnit.WHITESPACE_WORD

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if not 0 <= self.overlap < self.chunk_size:
            raise ValueError("overlap must satisfy 0 <= overlap < chunk_size")

    @property
    def stride(self) -> int:
        return self.chunk_size - self.overlap


@dataclass(frozen=True)
class Chunk:
    doc_id: str
    index: int
    start: int
    text: str
    length: int


@dataclass(frozen=True)
class ChunkScore:
    chunk_index: int
    score: float


@dataclass(frozen=True)
class RetrievalContext:
    chunks: tuple[Chunk, ...]
    total_tokens: int
    budget: int

    @property
    def text(self) -> str:
        return "\n\n".join(chunk.text for chunk in self.chunks)


def chunk_document(text: str, config: ChunkingConfig, doc_id: str = "") -> list[Chunk]:
    """Cut the text into windows of ``chunk_size`` tokens advancing by
    ``chunk_size - overlap``.

    The walk stops once a window reaches the end of the document, so every
    token is covered at least once and only the final chunk may be short.
    Empty input gives an empty list.
    """
    if config.token_unit is TokenUnit.CHARACTER:
        tokens: Sequence[str] = text
    else:
        tokens = text.split()
    if not tokens:
        return []
    chunks: list[Chunk] = []
    start = 0
    while True:
        window = tokens[start:start + config.chunk_size]
        if config.token_unit is TokenUnit.CHARACTER:
            chunk_text = text[start:start + config.chunk_size]
        else:
            chunk_text = " ".join(window)
        chunks.append(
            Chunk(
                doc_id=doc_id,
                index=len(chunks),
                start=start,
                text=chunk_text,
                length=len(window),
            )
        )
        if start + config.chunk_size >= len(tokens):
            break
        start += config.stride
    return chunks


def rank_scores(scores: Sequence[ChunkScore]) -> list[ChunkScore]:
    """Descending score; ties broken by ascending chunk index for determinism."""
    return sorted(scores, key=lambda s: (-s.score, s.chunk_index))


def assemble_context(
    ranked: Sequence[ChunkScore], chunks: Sequence[Chunk], budget: int
) -> RetrievalContext:
    """Admit whole chunks in rank order until the next one would exceed the
    token budget.

    Admission stops at the first chunk that does not fit; this keeps the
    admitted set a prefix of the ranking, so growing the budget can only
    extend it. Chunks are never truncated.
    """
    by_index = {chunk.index: chunk for chunk in chunks}
    admitted: list[Chunk] = []
    total = 0
    for item in ranked:
        chunk = by_index[item.chunk_index]
        if total + chunk.length > budget:
            break
        admitted.append(chunk)
        total += chunk.length
    if not admitted and chunks:
        log.warning(
            "retrieval budget %d below smallest chunk length %d; empty context",
            budget,
            min(chunk.length for chunk in chunks),
        )
    return RetrievalContext(chunks=tuple(admitted), total_tokens=total, budget=budget)


class DocumentIndex:
    """One publication's chunks with a tf-idf model fitted over them.

    Built once per publication; every question is then scored against the
    stored chunk vectors and norms, so a query costs one transform and one
    cosine per chunk. The idf table is fitted over the document's own chunks.
    Each chunk is tokenized once: its term counts give both its distinct
    terms, for the fit, and its vector, so the model and vectors equal those
    of `TfidfModel.fit` and `TfidfModel.transform` over the chunk texts.
    """

    def __init__(self, text: str, config: ChunkingConfig, doc_id: str = "") -> None:
        self.chunks = tuple(chunk_document(text, config, doc_id=doc_id))
        counts = [textsim.term_counts(chunk.text) for chunk in self.chunks]
        # the distinct terms: a Counter itself would add its counts to the document frequencies
        self.model = textsim.TfidfModel.fit_terms(c.keys() for c in counts)
        self.vectors = [self.model.weigh(c) for c in counts]
        self.norms = [textsim.norm(vector) for vector in self.vectors]

    def retrieve(self, query: str, budget: int) -> RetrievalContext:
        """Score, rank, and assemble the query's context."""
        if not self.chunks:
            return RetrievalContext(chunks=(), total_tokens=0, budget=budget)
        return assemble_context(rank_scores(score_chunks(query, self)), self.chunks, budget)


def score_chunks(query: str, index: DocumentIndex) -> list[ChunkScore]:
    """Cosine between the query's tf-idf vector and every chunk's in ``index``."""
    if not index.chunks:
        raise ValueError("score requires at least one chunk")
    query_vec = index.model.transform(query)
    return [
        ChunkScore(chunk_index=chunk.index, score=textsim.cosine(query_vec, vector, norm_v=norm))
        for chunk, vector, norm in zip(index.chunks, index.vectors, index.norms)
    ]


def retrieve_context(
    text: str, query: str, config: ChunkingConfig, budget: int, doc_id: str = ""
) -> RetrievalContext:
    """Chunk, score, rank, and assemble in one step."""
    return DocumentIndex(text, config, doc_id=doc_id).retrieve(query, budget)
