import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litrag import corpus
from litrag.corpus import (
    CitationRecord,
    KeywordSet,
    dedupe_by_doi,
    doi_to_filename,
    load_corpus,
    normalize_doi,
    parse_bibliography,
)
from conftest import N_UNIQUE_DOIS, build_bibliography, fixture_doi


def per_character_scan_balanced(text: str, start: int, open_ch: str) -> int:
    """The scanner `parse_bibliography` once used: one Python step per character."""
    close_ch = "}" if open_ch == "{" else ")"
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


# Entries in braces and in parentheses, some left open, with nested braces
# and non-ASCII text in their fields, between stray pieces of BibTeX.
BIB_FIELDS = (
    "doi = {10.1000/X}", 'doi = "10.1/q"', "doi = {https://dx.doi.org/10.1/{a}}", "doi = 10.2/b",
    "title = {A {Nested {Deep}} Title}", "title = {Études (x}", "title = {日本語}",
    "year = 2020", "year = {1850}", "journal = {Écologie}", "booktitle = (ü)", "note = {",
)
BIB_ENTRIES = st.builds(
    lambda kind, delimiters, key, fields, closed: (
        f"@{kind}{delimiters[0]}{key}, {', '.join(fields)}{delimiters[1] if closed else ''}\n"
    ),
    st.sampled_from(("article", "misc", "comment", "string", "Book ")),
    st.sampled_from(("{}", "()")),
    st.sampled_from(("k1", "key_2", "é")),
    st.lists(st.sampled_from(BIB_FIELDS), max_size=4),
    st.booleans(),
)
BIB_PIECES = st.sampled_from(("@", "@{", "{", "}", "(", ")", ",", "=", '"', " ", "\n@", "é", "日本"))
BIBLIOGRAPHIES = st.lists(st.one_of(BIB_ENTRIES, BIB_PIECES), max_size=12).map("".join)


class TestNormalizeDoi:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("10.1000/X", "10.1000/x"),
            ("https://doi.org/10.1000/X", "10.1000/x"),
            ("http://doi.org/10.1000/x", "10.1000/x"),
            ("doi:10.1000/x", "10.1000/x"),
            ("DOI: 10.1000/X ", "10.1000/x"),
            ("doi.org/10.1000/x", "10.1000/x"),
            ("https://dx.doi.org/10.1000/X", "10.1000/x"),
            ("http://dx.doi.org/10.1000/x", "10.1000/x"),
            ("dx.doi.org/10.1000/x", "10.1000/x"),
        ],
    )
    def test_prefixes_stripped(self, raw, expected):
        assert normalize_doi(raw) == expected

    def test_filename_mapping(self):
        assert doi_to_filename("10.1000/ab/CD") == "10.1000_ab_cd.txt"


class TestParseBibliography:
    def test_single_entry(self):
        result = parse_bibliography(
            '@article{k1, doi = {10.1000/X}, title = {A Title}, year = {2020}}'
        )
        assert len(result.records) == 1
        record = result.records[0]
        assert record.doi == "10.1000/x"
        assert record.title == "A Title"
        assert record.year == 2020
        assert not result.errors

    def test_empty_string(self):
        result = parse_bibliography("")
        assert result.records == []
        assert result.errors == []

    def test_quoted_values_and_bare_year(self):
        result = parse_bibliography('@article{k, doi = "10.1/a", year = 2021}')
        assert result.records[0].year == 2021

    def test_entry_without_doi_is_reported(self):
        result = parse_bibliography("@article{k1, title = {No Identifier}}")
        assert result.records == []
        assert len(result.without_doi) == 1
        assert result.without_doi[0].key == "k1"

    def test_unbalanced_braces_error_with_offset_and_recovery(self):
        text = "@article{bad, doi = {10.1/x\n@article{good, doi = {10.1/y}}"
        result = parse_bibliography(text)
        assert len(result.errors) == 1
        assert result.errors[0].offset == 0
        assert [r.doi for r in result.records] == ["10.1/y"]

    def test_byte_offset_counts_utf8_bytes(self):
        prefix = "très bien "  # 10 chars, 11 bytes
        text = prefix + "@article{bad, doi = {10.1/x"
        result = parse_bibliography(text)
        assert result.errors[0].offset == len(prefix.encode("utf-8"))

    def test_offsets_of_later_entries_count_utf8_bytes(self):
        entries = [
            "@article{first, title = {Müller}}\n",
            "@article{ok, title = {Grün}, doi = {10.1/ok}}\n",
            "@article{second, title = {Ærø}}\n",
            "@article{broken, doi = {10.1/x\n",
            "@article{third, title = {née}}\n",
        ]
        text = "".join(entries)
        starts = [len("".join(entries[:k]).encode("utf-8")) for k in range(len(entries))]
        result = parse_bibliography(text)
        assert [(e.key, e.offset) for e in result.without_doi] == [
            ("first", starts[0]), ("second", starts[2]), ("third", starts[4]),
        ]
        assert [e.offset for e in result.errors] == [starts[3]]

    def test_comment_and_string_blocks_skipped(self):
        text = (
            "@comment{ignore me}\n"
            "@string{ei = {Ecological Informatics}}\n"
            "@article{k, doi = {10.1/z}}\n"
        )
        result = parse_bibliography(text)
        assert [r.doi for r in result.records] == ["10.1/z"]
        assert not result.without_doi

    def test_out_of_range_year_dropped(self):
        result = parse_bibliography("@article{k, doi = {10.1/x}, year = {1121}}")
        assert result.records[0].year is None

    def test_991_entry_export(self, bibliography_991):
        result = parse_bibliography(bibliography_991)
        assert len(result.records) == 991
        assert not result.errors

    def test_never_raises_on_arbitrary_input(self):
        rng = random.Random(7)
        alphabet = "@{}(),= \n\"abcdoi10./\\x00é"
        for _ in range(300):
            junk = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 200)))
            parse_bibliography(junk)  # must not raise

    @settings(max_examples=300, deadline=None)
    @given(BIBLIOGRAPHIES)
    def test_matches_the_per_character_scanner(self, text):
        with mock.patch.object(corpus, "_scan_balanced", per_character_scan_balanced):
            expected = parse_bibliography(text)
        assert parse_bibliography(text) == expected


class TestDedupeByDoi:
    def test_duplicate_pair_keeps_first(self):
        a = CitationRecord(doi="10.1/x", title="A")
        b = CitationRecord(doi="10.1/x", title="B")
        assert dedupe_by_doi([a, b]) == [a]

    def test_unique_list_unchanged(self):
        records = [CitationRecord(doi=f"10.1/{i}") for i in range(5)]
        assert dedupe_by_doi(records) == records

    def test_991_entries_reduce_to_364(self, bibliography_991):
        records = parse_bibliography(bibliography_991).records
        unique = dedupe_by_doi(records)
        assert len(unique) == N_UNIQUE_DOIS
        assert len({r.doi for r in unique}) == N_UNIQUE_DOIS

    def test_idempotent_and_order_preserving(self):
        rng = random.Random(11)
        for _ in range(50):
            records = [
                CitationRecord(doi=f"10.1/{rng.randrange(10)}")
                for _ in range(rng.randrange(1, 40))
            ]
            once = dedupe_by_doi(records)
            assert dedupe_by_doi(once) == once
            assert len(once) <= len(records)
            positions = [records.index(r) for r in once]
            assert positions == sorted(positions)


class TestKeywordSetInvariants:
    def test_rejects_case_insensitive_duplicates(self):
        with pytest.raises(ValueError):
            KeywordSet(keywords=("cnn", "cnn"))

    def test_rejects_unstripped(self):
        with pytest.raises(ValueError):
            KeywordSet(keywords=(" cnn",))


class TestLoadCorpus:
    def test_mini_corpus_loads_three(self, mini_corpus_dir):
        load = load_corpus(mini_corpus_dir)
        assert len(load.publications) == 3
        assert load.skipped == []
        assert all(p.word_count == len(p.full_text.split()) for p in load.publications)

    def test_missing_text_goes_to_skip_report(self, tmp_path):
        (tmp_path / "bibliography.bib").write_text(
            "@article{a, doi = {10.1/a}}\n@article{b, doi = {10.1/b}}\n"
            "@article{c, doi = {10.1/c}}\n",
            encoding="utf-8",
        )
        (tmp_path / "10.1_a.txt").write_text("some words here", encoding="utf-8")
        (tmp_path / "10.1_b.txt").write_text("other words here", encoding="utf-8")
        load = load_corpus(tmp_path)
        assert len(load.publications) == 2
        assert load.skipped == [("10.1/c", "no full-text file")]

    def test_empty_full_text_excluded(self, tmp_path):
        (tmp_path / "bibliography.bib").write_text(
            "@article{a, doi = {10.1/a}}", encoding="utf-8"
        )
        (tmp_path / "10.1_a.txt").write_text("   \n", encoding="utf-8")
        load = load_corpus(tmp_path)
        assert load.publications == []
        assert load.skipped == [("10.1/a", "empty full text")]

    def test_fetch_hook_fills_missing_text(self, tmp_path):
        (tmp_path / "bibliography.bib").write_text(
            "@article{a, doi = {10.1/a}}", encoding="utf-8"
        )
        hook = tmp_path / "fetch.sh"
        hook.write_text(
            '#!/bin/sh\necho "fetched text for $1" > "$(echo $1 | tr / _).txt"\n',
            encoding="utf-8",
        )
        hook.chmod(0o755)
        load = load_corpus(tmp_path, fetch_command=str(hook))
        assert len(load.publications) == 1
        assert load.publications[0].full_text == "fetched text for 10.1/a\n"

    def test_duplicate_dois_collapse(self, tmp_path):
        (tmp_path / "bibliography.bib").write_text(
            "@article{a, doi = {10.1/a}, title = {First}}\n"
            "@article{b, doi = {10.1/a}, title = {Second}}\n",
            encoding="utf-8",
        )
        (tmp_path / "10.1_a.txt").write_text("words", encoding="utf-8")
        load = load_corpus(tmp_path)
        assert len(load.publications) == 1
        assert load.publications[0].citation.title == "First"

    def test_a_dx_resolver_doi_is_the_same_publication(self, tmp_path):
        (tmp_path / "bibliography.bib").write_text(
            "@article{a, doi = {10.1000/abc}, title = {First}}\n"
            "@article{b, doi = {https://dx.doi.org/10.1000/ABC}, title = {Second}}\n",
            encoding="utf-8",
        )
        (tmp_path / "10.1000_abc.txt").write_text("the full text", encoding="utf-8")
        load = load_corpus(tmp_path)
        assert [p.citation.doi for p in load.publications] == ["10.1000/abc"]
        assert load.publications[0].full_text == "the full text"
        assert load.skipped == []


def test_fixture_doi_shape():
    assert fixture_doi(7) == "10.5555/eco.0007"


def test_bibliography_builder_counts():
    text = build_bibliography(n_unique=10, n_total=25)
    result = parse_bibliography(text)
    assert len(result.records) == 25
    assert len(dedupe_by_doi(result.records)) == 10
