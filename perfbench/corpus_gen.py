"""Seeded synthetic corpus for the benchmark.

The generator writes what ``litrag ingest`` reads: one ``bibliography.bib``
made of two concatenated BibTeX exports, and one UTF-8 full-text file per
citation named after its DOI. The same (spec, seed) gives byte-identical
files.

Filler words follow a Zipf-like rank distribution over a seeded vocabulary
of pseudo-words. Each document is cut into sections, and every section plants
the content terms of one of the document's focus questions at a fixed rate,
so tf-idf ranking has real signal to find. The second export repeats some
citations under a prefixed, upper-cased DOI and another title, which exercises
first-occurrence DOI deduplication, and a few citations get no text file,
which exercises the skip report.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from random import Random

ZIPF_EXPONENT = 1.1
VOCABULARY_SIZE = 4000
SECTION_WORDS = 250
FOCUS_QUESTIONS = 6
SENTENCE_WORDS = 14
PLANT_RATE = 0.06  # share of a section's words replaced by its question's terms
DUPLICATES = 2  # citations repeated in the second export
MISSING = 2  # citations listed without a full-text file

_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ke", "li", "mo", "nu", "pa", "qe",
    "ri", "so", "tu", "va", "we", "xi", "yo", "za", "bri", "cla", "dre",
    "flo", "gra", "plu", "stra", "tho", "vin", "zen",
)
_STOPWORDS = frozenset(
    "a an and are as at be before by code data deep e for from g how in is "
    "it learning of on or pipeline the to used what when where which"
    .split()
)
_VENUES = ("Ecological Informatics", "Remote Sensing of Environment", "Methods in Ecology and Evolution")


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated corpus."""

    docs: int
    words: int  # per document


@dataclass(frozen=True)
class GeneratedCorpus:
    directory: Path
    dois: tuple[str, ...]  # citations with a text file, in first-occurrence order
    missing: tuple[str, ...]  # citations without one, in first-occurrence order


def question_terms() -> list[list[str]]:
    """Content terms of each shipped competency question, in question order."""
    raw = resources.files("litrag.data").joinpath("competency_questions.txt").read_text("utf-8")
    terms = []
    for line in raw.splitlines():
        if not line.strip():
            continue
        words = re.findall(r"[a-z]+", line.split("\t", 1)[1].lower())
        terms.append([w for w in words if w not in _STOPWORDS and len(w) > 2])
    return terms


def _vocabulary(rng: Random) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCABULARY_SIZE:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _document(rng: Random, spec: CorpusSpec, vocab: list[str], cum_weights: list[float],
              terms: list[list[str]]) -> str:
    focus = rng.sample(range(len(terms)), FOCUS_QUESTIONS)
    words = rng.choices(vocab, cum_weights=cum_weights, k=spec.words)
    for start in range(0, spec.words, SECTION_WORDS):
        topic = terms[focus[(start // SECTION_WORDS) % FOCUS_QUESTIONS]]
        for pos in range(start, min(start + SECTION_WORDS, spec.words)):
            if rng.random() < PLANT_RATE:
                words[pos] = rng.choice(topic)
    lines = []
    for start in range(0, len(words), SENTENCE_WORDS):
        sentence = words[start:start + SENTENCE_WORDS]
        lines.append(" ".join(sentence).capitalize() + ".")
    return "\n".join(lines) + "\n"


def _bib_entry(key: str, doi: str, title: str, year: int, venue: str) -> str:
    return (
        f"@article{{{key},\n"
        f"  doi = {{{doi}}},\n"
        f"  title = {{{title}}},\n"
        f"  year = {{{year}}},\n"
        f"  journal = {{{venue}}}\n"
        "}\n"
    )


def generate_corpus(directory: str | Path, spec: CorpusSpec, seed: int) -> GeneratedCorpus:
    """Write the corpus for ``seed`` into ``directory`` (created if absent)."""
    if spec.docs < 1 or spec.words < 1:
        raise ValueError("a corpus needs at least one document of one word")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = Random(f"perfbench-corpus:{seed}")
    vocab = _vocabulary(rng)
    total = 0.0
    cum_weights = []
    for rank in range(1, len(vocab) + 1):
        total += rank ** -ZIPF_EXPONENT
        cum_weights.append(total)
    terms = question_terms()

    count = spec.docs + MISSING
    ids = rng.sample(range(1000, 10000), count)
    dois = [f"10.5555/bench.{seed}.{ident}" for ident in ids]
    with_text = dois[:spec.docs]
    for doi in with_text:
        text = _document(rng, spec, vocab, cum_weights, terms)
        path = directory / (doi.replace("/", "_") + ".txt")
        path.write_text(text, encoding="utf-8", newline="\n")

    entries = {}
    for n, doi in enumerate(dois):
        title = " ".join(rng.choices(vocab[:200], k=6)).capitalize()
        entries[doi] = (f"bench{n}", title, rng.randint(2015, 2024), rng.choice(_VENUES))
    order = list(dois)
    rng.shuffle(order)
    half = len(order) // 2
    first_export, second_export = order[:half], order[half:]
    repeated = rng.sample(first_export, min(DUPLICATES, len(first_export)))
    chunks = ["% export 1\n"]
    for doi in first_export:
        key, title, year, venue = entries[doi]
        chunks.append(_bib_entry(key, doi, title, year, venue))
    chunks.append("\n% export 2\n")
    for doi in second_export + repeated:
        key, title, year, venue = entries[doi]
        if doi in repeated:
            # a later export of the same paper: other DOI spelling, other title
            chunks.append(_bib_entry(key + "b", "https://doi.org/" + doi.upper(), title + " (preprint)", year, venue))
        else:
            chunks.append(_bib_entry(key, doi, title, year, venue))
    (directory / "bibliography.bib").write_text("".join(chunks), encoding="utf-8", newline="\n")
    has_text = set(with_text)
    return GeneratedCorpus(
        directory=directory,
        dois=tuple(d for d in order if d in has_text),
        missing=tuple(d for d in order if d not in has_text),
    )
