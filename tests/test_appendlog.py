"""The line handling that every `appendlog.RecordStore` inherits, checked on
the two JSONL stores (no header) and a CSV store (with one)."""

import os

import pytest

from conftest import FIXTURES
from litrag import appendlog
from litrag.errors import CorruptStoreError
from litrag.extraction import AnswerStore, TextualAnswer
from litrag.gateway import TimingEntry, TimingStore
from litrag.keywords import KeywordReply, ReplyStore
from litrag.voting import CategoricalAnswer, FilterVerdict, Verdict, VerdictStore, VoteRecord


def answers(n):
    # non-ASCII text, with characters that `str.splitlines` would break a line at
    return [TextualAnswer(f"10.1/{i:04d}", 1 + i % 3, "M", f"é\u2028\x85 {i}", i)
            for i in range(n)]


def replies(n):
    return [KeywordReply("M", f"stem{i:04d}", [f"é\u2028\x85 {i}", "réseau"]) for i in range(n)]


def verdicts(n):
    return [CategoricalAnswer(f"10.1/{i:04d}", 1 + i % 3, "M", Verdict.YES) for i in range(n)]


JSON_STORES = [(AnswerStore, answers), (ReplyStore, replies)]
STORES = [*JSON_STORES, (VerdictStore, verdicts)]


def written(store_class, records):
    """The bytes of a store written with ``records`` in file order."""
    store = store_class("unused")
    return (store.header + "".join(map(store.encode, records))).encode("utf-8")


def counting_encodes(monkeypatch, store_class):
    encoded = []

    def encode(self, record, _encode=store_class.encode):
        encoded.append(record)
        return _encode(self, record)

    monkeypatch.setattr(store_class, "encode", encode)
    return encoded


@pytest.mark.parametrize("store_class, make", STORES)
class TestCanonicalize:
    def test_known_records_out_of_key_order_are_sorted_from_their_own_lines(
        self, tmp_path, monkeypatch, store_class, make
    ):
        records = make(10)
        file_order = records[2:][::-1]
        path = tmp_path / "store"
        path.write_bytes(written(store_class, file_order))
        expected = [written(store_class, records[1:]), written(store_class, records)]
        store = store_class(path)
        assert store.load() == file_order
        # a record appended after the load is known too
        store.append(records[1])
        encoded = counting_encodes(monkeypatch, store_class)
        store.canonicalize()
        assert encoded == []
        assert path.read_bytes() == expected[0]
        # the known records follow the new line order
        store.append(records[0])
        store.canonicalize()
        assert encoded == [records[0]]  # by the append
        assert path.read_bytes() == expected[1]

    def test_equal_keys_keep_their_file_order(self, tmp_path, monkeypatch, store_class, make):
        records = make(4)
        # two records of one key, between those of records[0] and records[2]
        twins = {
            AnswerStore: [TextualAnswer("10.1/0002", 1, "M", text, 0)
                          for text in ("first", "second")],
            ReplyStore: [KeywordReply("M", "stem0001", [text]) for text in ("first", "second")],
            VerdictStore: [CategoricalAnswer("10.1/0002", 1, "M", verdict)
                           for verdict in (Verdict.NO, Verdict.UNPARSEABLE)],
        }[store_class]
        file_order = [records[3], twins[0], records[0], twins[1], records[2]]
        in_key_order = [records[0], twins[0], twins[1], records[2], records[3]]
        expected = written(store_class, in_key_order)
        path = tmp_path / "store"
        path.write_bytes(written(store_class, file_order))
        store = store_class(path)
        store.load()
        encoded = counting_encodes(monkeypatch, store_class)
        store.canonicalize()
        assert encoded == []
        assert path.read_bytes() == expected

    def test_a_store_that_never_loaded_sorts_the_lines_of_its_file(
        self, tmp_path, monkeypatch, store_class, make
    ):
        records = make(7)
        path = tmp_path / "store"
        path.write_bytes(written(store_class, records[::-1]))
        encoded = counting_encodes(monkeypatch, store_class)
        store_class(path).canonicalize()
        assert encoded == []
        assert path.read_bytes() == written(store_class, records)

    def test_a_store_that_never_loaded_leaves_a_file_in_key_order_alone(
        self, tmp_path, store_class, make
    ):
        data = written(store_class, make(7))
        path = tmp_path / "store"
        path.write_bytes(data)
        os.utime(path, ns=(10**18, 10**18))
        store_class(path).canonicalize()
        assert path.read_bytes() == data
        assert path.stat().st_mtime_ns == 10**18

    @pytest.mark.parametrize("loaded", [False, True])
    def test_a_missing_file_gets_its_header(self, tmp_path, store_class, make, loaded):
        store = store_class(tmp_path / "store")
        if loaded:
            assert store.load() == []
        store.canonicalize()
        assert store.path.read_bytes() == written(store_class, [])

    @pytest.mark.parametrize("edit", ["drop a line", "add a line", "torn tail"])
    def test_lines_that_no_longer_match_the_known_records_are_encoded_again(
        self, tmp_path, monkeypatch, store_class, make, edit
    ):
        records = make(6)
        path = tmp_path / "store"
        path.write_bytes(written(store_class, records[::-1]))
        store = store_class(path)
        store.load()
        data = path.read_bytes()
        last_line = data.rindex(b"\n", 0, len(data) - 1) + 1
        path.write_bytes({
            "drop a line": data[:last_line],
            "add a line": data + data[last_line:],
            "torn tail": data + data[last_line:-3],
        }[edit])
        expected = written(store_class, records)
        encoded = counting_encodes(monkeypatch, store_class)
        store.canonicalize()
        # written from the known records, as before the edit
        assert encoded == records
        assert path.read_bytes() == expected


def with_blank_line(store_class, records):
    lines = written(store_class, records).splitlines(keepends=True)
    return b"".join([*lines[:3], b"\n", *lines[3:]])


def with_torn_tail(store_class, records):
    data = written(store_class, records)
    return data + written(store_class, records[:1])[len(store_class.header):][:-4]


def with_lf_header(store_class, records):
    data = written(store_class, records)
    header = store_class.header.encode("utf-8")
    return header.replace(b"\r\n", b"\n") + data[len(header):]


def over_two_lines(store_class, records):
    # a verdict whose endpoint name holds a newline: its quoted row spans two lines
    return written(store_class, [*records[:2], CategoricalAnswer("10.1/0000", 1, "M\nN", Verdict.NO),
                                 *records[2:]])


@pytest.mark.parametrize("store_class, make, shape", [
    (VerdictStore, verdicts, lambda store_class, records: b""),
    (AnswerStore, answers, with_blank_line),
    (VerdictStore, verdicts, with_blank_line),
    (VerdictStore, verdicts, with_lf_header),
    (AnswerStore, answers, with_torn_tail),
    (VerdictStore, verdicts, with_torn_tail),
    (AnswerStore, answers, lambda store_class, records: written(store_class, records)[:-1]),
    (VerdictStore, verdicts, lambda store_class, records: written(store_class, records)[:-2]),
    (VerdictStore, verdicts, over_two_lines),
], ids=["zero-byte csv", "blank line json", "blank line csv", "lf-only header", "torn tail json",
        "torn tail csv", "unterminated record json", "unterminated record csv",
        "record over two lines"])
@pytest.mark.parametrize("reverse", [False, True], ids=["in key order", "reversed"])
def test_a_file_whose_records_stay_unknown_after_load_is_written_sorted(
    tmp_path, monkeypatch, store_class, make, shape, reverse
):
    path = tmp_path / "store"
    path.write_bytes(shape(store_class, make(6)[::-1] if reverse else make(6)))
    store = store_class(path)
    loaded = store.load()
    expected = sorted(loaded, key=lambda record: record.key)
    encoded = counting_encodes(monkeypatch, store_class)
    store.canonicalize()
    # encoded from the records, since the file's lines are not theirs one to one
    assert encoded == expected
    assert path.read_bytes() == written(store_class, expected)


@pytest.mark.parametrize("store_class, data", [
    (VerdictStore, VerdictStore.header.encode("utf-8")),
    (AnswerStore, b""),
], ids=["header-only csv", "zero-byte json"])
def test_a_file_without_records_is_known_and_left_alone(tmp_path, monkeypatch, store_class, data):
    path = tmp_path / "store"
    path.write_bytes(data)
    os.utime(path, ns=(10**18, 10**18))
    store = store_class(path)
    assert store.load() == []
    encoded = counting_encodes(monkeypatch, store_class)
    store.canonicalize()
    assert encoded == []
    assert path.read_bytes() == data
    assert path.stat().st_mtime_ns == 10**18


class TestLoad:
    def test_a_record_over_two_lines_across_read_blocks_is_read(self, tmp_path):
        records = verdicts(6000)
        path = tmp_path / "verdicts.csv"
        path.write_bytes(written(VerdictStore, records))
        # the record whose first line ends the first block of lines read after the header
        with open(path, "rb") as fh:
            fh.readline()
            at = len(fh.readlines(appendlog._SCAN_BLOCK_BYTES)) - 1
        split = CategoricalAnswer(records[at].doi, records[at].cq_id, "M\nN", Verdict.NO)
        records[at] = split
        path.write_bytes(written(VerdictStore, records))
        with open(path, "rb") as fh:
            fh.readline()
            assert fh.readlines(appendlog._SCAN_BLOCK_BYTES)[-1].endswith(b',"M\n')
        assert VerdictStore(path).load() == records

    @pytest.mark.parametrize("store_class, make", JSON_STORES)
    def test_a_bad_line_after_the_first_read_block_is_named(self, tmp_path, store_class, make):
        lines = written(store_class, make(3000)).splitlines(keepends=True)
        assert sum(map(len, lines[:2500])) > appendlog._SCAN_BLOCK_BYTES
        lines[2500] = lines[2500][:-5] + b"\n"
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptStoreError, match=r"store\.jsonl: line 2501: "):
            store_class(path).load()

    @pytest.mark.parametrize("store_class, make", JSON_STORES)
    def test_a_tail_cut_inside_a_character_is_dropped(self, tmp_path, caplog, store_class, make):
        records = make(3)
        data = written(store_class, records)
        cut = data.rindex("é".encode("utf-8")) + 1  # inside the last record's "é"
        path = tmp_path / "store.jsonl"
        path.write_bytes(data[:cut])
        assert store_class(path).load() == records[:2]
        assert "dropped a torn final line" in caplog.text

    @pytest.mark.parametrize("store_class, make", JSON_STORES)
    def test_records_hold_line_breaks_other_than_newline(self, tmp_path, store_class, make):
        records = make(3)
        path = tmp_path / "store.jsonl"
        path.write_bytes(written(store_class, records))
        assert store_class(path).load() == records

    @pytest.mark.parametrize("store_class, make", JSON_STORES)
    def test_blank_lines_are_skipped_across_parse_slices(self, tmp_path, store_class, make):
        records = make(700)
        lines = written(store_class, records).splitlines(keepends=True)
        lines[300:300] = [b"\n", b"  \n"]
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"".join(lines))
        assert store_class(path).load() == records

    @pytest.mark.parametrize("store_class, make", JSON_STORES)
    @pytest.mark.parametrize("line", [
        pytest.param(lambda line: line.rstrip(b"\n") + b"," + line, id="two objects, comma"),
        pytest.param(lambda line: line.rstrip(b"\n") + b" " + line, id="two objects, space"),
        pytest.param(lambda line: line.replace("é".encode("utf-8"), b"\xff"), id="invalid utf-8"),
    ])
    def test_a_bad_middle_line_is_named(self, tmp_path, line, store_class, make):
        lines = written(store_class, make(700)).splitlines(keepends=True)
        lines[400] = line(lines[400])
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptStoreError, match=r"store\.jsonl: line 401: "):
            store_class(path).load()

    def test_a_bad_middle_row_is_named(self, tmp_path):
        lines = written(VerdictStore, verdicts(5)).splitlines(keepends=True)
        lines[3] = lines[3].replace(b"Yes", b"\xffes")
        path = tmp_path / "verdicts.csv"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptStoreError, match=r"verdicts\.csv: line 4: "):
            VerdictStore(path).load()


class TestMemoryLayout:
    """The records that a stage loads in bulk hold no instance dict, and a
    parsed store holds one string object per value that its records repeat."""

    @pytest.mark.parametrize("record", [
        TextualAnswer("10.1/a", 1, "M", "text", 5),
        CategoricalAnswer("10.1/a", 1, "M", Verdict.YES),
        VoteRecord("10.1/a", 1, 3, 2, Verdict.YES),
        FilterVerdict("10.1/a", True),
        TimingEntry("id", "10.1/a", "M", "rag", 5, "2024-01-01T00:00:00+00:00"),
        KeywordReply("M", "stem", ["cnn"]),
    ], ids=lambda record: type(record).__name__)
    def test_a_bulk_record_has_slots_and_no_dict(self, record):
        assert type(record).__slots__
        assert not hasattr(record, "__dict__")

    @staticmethod
    def assert_shared(records, *fields):
        for field in fields:
            values = [getattr(record, field) for record in records]
            first = {}
            assert all(first.setdefault(value, value) is value for value in values), field
            assert len(first) < len(values), f"no {field} repeats"

    @pytest.mark.parametrize("store_class, name", [
        (VerdictStore, "verdicts.csv"), (AnswerStore, "answers.jsonl"),
    ])
    def test_a_golden_store_shares_one_string_per_doi_and_endpoint(self, store_class, name):
        self.assert_shared(store_class(FIXTURES / "golden" / name).load(), "doi", "endpoint")

    def test_a_timing_log_shares_one_string_per_doi_endpoint_and_stage(self, tmp_path):
        entries = [
            TimingEntry(f"id{i}", f"10.1/{i % 3}", f"M{i % 2}", ("rag", "categorize")[i % 2],
                        i, f"2024-01-01T00:00:{i:02d}+00:00")
            for i in range(12)
        ]
        TimingStore(tmp_path / "timing.csv").write(entries)
        loaded = TimingStore(tmp_path / "timing.csv").load()
        assert loaded == entries
        self.assert_shared(loaded, "doc_id", "endpoint", "stage")
