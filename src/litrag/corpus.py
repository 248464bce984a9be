"""Bibliography ingestion: BibTeX parsing, DOI dedup, corpus loading.

The parser is deliberately small and forgiving. It recognises ``@type{key, ...}``
entries with brace- or quote-delimited field values, skips ``@comment``,
``@string`` and ``@preamble`` blocks, and never raises on malformed input:
problems are collected as entry-level errors carrying the byte offset of the
offending entry so that a long export can be repaired by hand.
"""

from __future__ import annotations

import logging
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .errors import PipelineError

log = logging.getLogger(__name__)

_DOI_PREFIXES = ("https://doi.org/", "http://doi.org/", "doi.org/", "doi:")

_SKIP_ENTRY_TYPES = {"comment", "string", "preamble"}

# The corpus directory's bibliography; without it, its one .bib file is read.
BIBLIOGRAPHY = "bibliography.bib"


def normalize_doi(raw: str) -> str:
    """Lowercase a DOI and strip resolver/scheme prefixes."""
    doi = raw.strip().lower()
    changed = True
    while changed:
        changed = False
        for prefix in _DOI_PREFIXES:
            if doi.startswith(prefix):
                doi = doi[len(prefix):].strip()
                changed = True
    return doi


def doi_to_filename(doi: str) -> str:
    """Full-text files are named after the normalized DOI with '/' mapped to '_'."""
    return normalize_doi(doi).replace("/", "_") + ".txt"


@dataclass(frozen=True)
class CitationRecord:
    doi: str
    title: str = ""
    year: Optional[int] = None
    venue: str = ""

    def __post_init__(self) -> None:
        if not self.doi:
            raise ValueError("CitationRecord requires a non-empty normalized DOI")
        if self.year is not None and not 1900 <= self.year <= 2100:
            raise ValueError(f"year {self.year} outside [1900, 2100]")


@dataclass(frozen=True)
class PublicationRecord:
    citation: CitationRecord
    full_text: str
    word_count: int = -1

    def __post_init__(self) -> None:
        expected = len(self.full_text.split())
        if self.word_count == -1:
            object.__setattr__(self, "word_count", expected)
        elif self.word_count != expected:
            raise ValueError("word_count must equal the whitespace token count")


@dataclass(frozen=True)
class KeywordSet:
    keywords: tuple[str, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for kw in self.keywords:
            if kw != kw.strip():
                raise ValueError(f"keyword {kw!r} has surrounding whitespace")
            if kw != kw.lower():
                raise ValueError(f"keyword {kw!r} is not lowercase")
            if kw in seen:
                raise ValueError(f"duplicate keyword {kw!r}")
            seen.add(kw)

    def __len__(self) -> int:
        return len(self.keywords)


@dataclass(frozen=True)
class EntryError:
    offset: int  # byte offset of the entry's '@' in the utf-8 encoded input
    message: str


@dataclass(frozen=True)
class ParsedEntry:
    key: str
    offset: int  # byte offset of the entry's '@' in the utf-8 encoded input


@dataclass
class BibliographyParse:
    records: list[CitationRecord] = field(default_factory=list)
    without_doi: list[ParsedEntry] = field(default_factory=list)
    errors: list[EntryError] = field(default_factory=list)


def _scan_balanced(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Return the index just past the delimiter matching text[start], or -1."""
    depth = 0
    for i in range(start, len(text)):
        ch = text[i]
        if ch == open_ch:
            depth += 1
        elif ch == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def _parse_fields(body: str) -> tuple[str, dict]:
    """Split an entry body into (cite key, {field: value}). Values keep inner braces."""
    comma = body.find(",")
    if comma < 0:
        return body.strip(), {}
    key = body[:comma].strip()
    fields: dict = {}
    i = comma + 1
    n = len(body)
    while i < n:
        # field name
        while i < n and (body[i].isspace() or body[i] == ","):
            i += 1
        name_start = i
        while i < n and body[i] not in "=,":
            i += 1
        if i >= n or body[i] != "=":
            break
        name = body[name_start:i].strip().lower()
        i += 1
        while i < n and body[i].isspace():
            i += 1
        if i >= n:
            break
        # field value: braced, quoted, or bare
        if body[i] == "{":
            end = _scan_balanced(body, i, "{", "}")
            if end < 0:
                break
            value = body[i + 1:end - 1]
            i = end
        elif body[i] == '"':
            end = body.find('"', i + 1)
            if end < 0:
                break
            value = body[i + 1:end]
            i = end + 1
        else:
            end = i
            while end < n and body[end] != ",":
                end += 1
            value = body[i:end].strip()
            i = end
        if name:
            fields[name] = " ".join(value.split())
    return key, fields


def _strip_braces(value: str) -> str:
    out = value.strip()
    while len(out) >= 2 and out[0] == "{" and out[-1] == "}":
        out = out[1:-1].strip()
    return out


def parse_bibliography(text: str) -> BibliographyParse:
    """Parse concatenated BibTeX entries into citation records.

    Entries with a DOI become :class:`CitationRecord` (DOI normalized). Entries
    without one are reported in ``without_doi``, with the byte offset of their
    '@'. Malformed entries (unbalanced braces) produce an :class:`EntryError`
    with the byte offset and parsing resumes at the next entry.
    """
    result = BibliographyParse()
    # entries are scanned in order, so each byte offset counts on from the last
    counted, counted_bytes = 0, 0

    def byte_offset(index: int) -> int:
        nonlocal counted, counted_bytes
        counted_bytes += len(text[counted:index].encode("utf-8", errors="replace"))
        counted = index
        return counted_bytes

    i = 0
    n = len(text)
    while i < n:
        at = text.find("@", i)
        if at < 0:
            break
        j = at + 1
        while j < n and (text[j].isalpha() or text[j].isdigit() or text[j] == "_"):
            j += 1
        entry_type = text[at + 1:j].strip().lower()
        while j < n and text[j].isspace():
            j += 1
        if j >= n or text[j] not in "{(" or not entry_type:
            i = at + 1
            continue
        open_ch = text[j]
        close_ch = "}" if open_ch == "{" else ")"
        end = _scan_balanced(text, j, open_ch, close_ch)
        if end < 0:
            result.errors.append(
                EntryError(
                    offset=byte_offset(at),
                    message=f"unbalanced braces in @{entry_type} entry",
                )
            )
            # resume at the next plausible entry start
            nxt = text.find("\n@", j)
            i = nxt + 1 if nxt >= 0 else n
            continue
        i = end
        if entry_type in _SKIP_ENTRY_TYPES:
            continue
        key, fields = _parse_fields(text[j + 1:end - 1])
        doi = normalize_doi(fields.get("doi", ""))
        if not doi:
            result.without_doi.append(ParsedEntry(key=key, offset=byte_offset(at)))
            continue
        year: Optional[int] = None
        year_raw = _strip_braces(fields.get("year", ""))
        if year_raw:
            try:
                year = int(year_raw)
            except ValueError:
                year = None
            if year is not None and not 1900 <= year <= 2100:
                log.warning("entry %s: year %s outside [1900, 2100], dropped", key, year)
                year = None
        result.records.append(
            CitationRecord(
                doi=doi,
                title=_strip_braces(fields.get("title", "")),
                year=year,
                venue=_strip_braces(fields.get("journal", fields.get("booktitle", ""))),
            )
        )
    return result


def dedupe_by_doi(records: Sequence[CitationRecord]) -> list[CitationRecord]:
    """Drop records whose DOI was already seen; first occurrence wins."""
    seen: set[str] = set()
    unique: list[CitationRecord] = []
    for record in records:
        if record.doi not in seen:
            seen.add(record.doi)
            unique.append(record)
    return unique


@dataclass
class CorpusLoad:
    bibliography: Path  # the .bib file the citations were parsed from
    publications: list[PublicationRecord] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (doi, reason)
    parse: BibliographyParse = field(default_factory=BibliographyParse)


def _run_fetch_hook(fetch_command: str, doi: str, directory: Path) -> None:
    """Invoke the external full-text fetcher; it inherits the environment
    (including ELSEVIER_API_KEY) and is expected to write <doi>.txt into
    the corpus directory."""
    try:
        proc = subprocess.run(
            [fetch_command, doi],
            cwd=directory,
            env=os.environ,
            capture_output=True,
            text=True,
            timeout=300,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        log.error("fetch hook failed for %s: %s", doi, exc)
        return
    if proc.returncode != 0:
        log.error("fetch hook exited %d for %s: %s", proc.returncode, doi, proc.stderr.strip())


def load_corpus(directory: str | Path, fetch_command: Optional[str] = None) -> CorpusLoad:
    """Pair every deduplicated citation with its full-text file.

    Citations without a readable, non-empty text file end up in the skip
    report instead of the publication list.
    """
    directory = Path(directory)
    bib_path = directory / BIBLIOGRAPHY
    if not bib_path.is_file():
        candidates = sorted(directory.glob("*.bib"))
        if len(candidates) == 1:
            bib_path = candidates[0]
        else:
            raise PipelineError(
                f"no bibliography in {directory}: expected {BIBLIOGRAPHY} or exactly one "
                f".bib file, found {len(candidates)}"
            )
    parse = parse_bibliography(bib_path.read_text(encoding="utf-8", errors="replace"))
    load = CorpusLoad(bibliography=bib_path, parse=parse)
    for citation in dedupe_by_doi(parse.records):
        text_path = directory / doi_to_filename(citation.doi)
        if not text_path.is_file() and fetch_command:
            _run_fetch_hook(fetch_command, citation.doi, directory)
        if not text_path.is_file():
            load.skipped.append((citation.doi, "no full-text file"))
            continue
        try:
            full_text = text_path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            load.skipped.append((citation.doi, f"unreadable: {exc}"))
            continue
        if not full_text.strip():
            load.skipped.append((citation.doi, "empty full text"))
            continue
        load.publications.append(PublicationRecord(citation=citation, full_text=full_text))
    return load
