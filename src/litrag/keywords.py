"""Keyword harvesting from abstracts: LLM extraction, LLM consolidation,
and loading of the human-curated list."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import prompts
from .appendlog import RecordStore, json_line, json_records, replace_file
from .corpus import KeywordSet
from .errors import PipelineError
from .gateway import ChatRequest, LlmGateway, ModelEndpoint

log = logging.getLogger(__name__)

KEYWORD_MARKER = "Deep learning related words:"

CONSOLIDATION_QUERY = (
    "your task is to eliminate redundancies and non-deep-learning-related "
    "terms from the provided keyword list for the literature survey"
)


@dataclass(frozen=True, slots=True)
class KeywordReply:
    endpoint: str
    stem: str
    keywords: list[str]

    @property
    def key(self) -> tuple[str, str]:
        return self.endpoint, self.stem


class ReplyStore(RecordStore[KeywordReply]):
    """JSONL store of the keywords an endpoint extracted from an abstract, keyed
    by (endpoint, file stem); a reply without a keyword list is not stored."""

    def encode(self, reply: KeywordReply) -> str:
        return json_line(reply) if reply.keywords else ""

    def parse(self, lines: Sequence[str]) -> list[KeywordReply]:
        return json_records(lines, KeywordReply)


def parse_keyword_response(text: str) -> list[str]:
    """Pull the comma-separated list that follows the last keyword marker.

    Items are trimmed and lowercased; an absent marker gives an empty list.
    """
    pos = text.rfind(KEYWORD_MARKER)
    if pos < 0:
        return []
    tail = text[pos + len(KEYWORD_MARKER):]
    for stop in ("Answer:::",):
        cut = tail.find(stop)
        if cut >= 0:
            tail = tail[:cut]
    items = [item.strip().lower() for item in tail.split(",")]
    return [item for item in items if item]


def extract_keywords(
    abstract: str,
    endpoint: ModelEndpoint,
    gateway: LlmGateway,
    doc_id: str = "",
) -> list[str]:
    """One extraction call for a single abstract."""
    if not abstract.strip():
        raise ValueError("abstract is empty")
    prompt = prompts.render(
        "keyword-extraction",
        {"query": prompts.KEYWORD_EXTRACTION_QUERY, "context": abstract},
    )
    request = ChatRequest.create(endpoint, prompt)
    response = gateway.complete(endpoint, request, doc_id=doc_id, stage="keywords")
    keywords = parse_keyword_response(response.text)
    if not keywords:
        log.warning("no keyword marker in response for %s", doc_id or "abstract")
    return keywords


def consolidate_keywords(
    raw: Sequence[str], endpoint: ModelEndpoint, gateway: LlmGateway
) -> list[str]:
    """Single consolidation call over the full raw list, then local exact dedup."""
    if not raw:
        raise ValueError("nothing to consolidate")
    prompt = prompts.render(
        "keyword-extraction",
        {"query": CONSOLIDATION_QUERY, "context": ", ".join(raw)},
    )
    request = ChatRequest.create(endpoint, prompt)
    response = gateway.complete(endpoint, request, doc_id="keywords", stage="keywords")
    consolidated = parse_keyword_response(response.text)
    if not consolidated:
        log.warning("no keyword marker in consolidation response")
    seen: set[str] = set()
    unique = []
    for keyword in consolidated:
        if keyword not in seen:
            seen.add(keyword)
            unique.append(keyword)
    return unique


def load_curated(path: str | Path) -> KeywordSet:
    """Read one keyword per line; blanks skipped, duplicates dropped with a warning."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    keywords: list[str] = []
    seen: set[str] = set()
    for line in lines:
        keyword = line.strip().lower()
        if not keyword:
            continue
        if keyword in seen:
            log.warning("duplicate curated keyword %r skipped", keyword)
            continue
        seen.add(keyword)
        keywords.append(keyword)
    if not keywords:
        raise PipelineError(f"{path}: curated keyword file is empty")
    return KeywordSet(keywords=tuple(keywords))


def save_keywords(path: str | Path, keywords: Sequence[str]) -> None:
    replace_file(Path(path), ["\n".join(keywords) + "\n"])


def curation_diff(consolidated: Sequence[str], curated: Sequence[str]) -> tuple[list[str], list[str]]:
    """What human curation removed from, and added to, the consolidated list."""
    consolidated_set = set(consolidated)
    curated_set = set(curated)
    removed = [kw for kw in consolidated if kw not in curated_set]
    added = [kw for kw in curated if kw not in consolidated_set]
    return removed, added
