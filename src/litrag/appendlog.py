"""Line-file record stores that survive an interrupted write.

Every workspace table is a `RecordStore`: the answers, verdicts and filter
verdicts that `ask`, `categorize` and `filter` append, the votes that
`vote` writes and the timing log that each requesting stage appends to. A
subclass defines only its line format.

Each record is one line. A store's records are read one way: a stream of
64 KiB blocks of whole lines behind `RecordStore.scan`, which `load` parses
in one call and `canonicalize` reads again to sort the file's lines. A
crash can leave a final line whose newline was never written; the reader
drops such a line with a warning unless it holds a whole record, and the
next `RecordStore.extend` cuts a torn final line off, or terminates a whole
record that only lost its newline, so the next record starts on a line of
its own. A malformed line anywhere else, or a wrong header, is corruption:
both raise `CorruptStoreError` naming the file and the first bad line. A
whole-file rewrite goes through `replace_file`, so it leaves either the old
file or the new one.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import os
import threading
from pathlib import Path
from typing import (
    Callable, Generic, Hashable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar,
)

from .errors import CorruptStoreError

log = logging.getLogger(__name__)

R = TypeVar("R")
T = TypeVar("T")

# What a format's parser raises on a line that was cut short.
_MALFORMED = (ValueError, LookupError, TypeError, csv.Error)
# bytes of whole lines `RecordStore.scan` reads at a time: few calls per
# file, and a block that stays small next to a large store
_SCAN_BLOCK_BYTES = 1 << 16


def replace_file(path: Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` as UTF-8 to ``<name>.tmp`` beside ``path``, then move
    it over ``path`` with `os.replace`; an interrupted write leaves ``path``
    as it was."""
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


class RecordStore(Generic[R]):
    """Store of one record per line, after an optional header line.

    The first `extend` (or `append`) opens the file, writing `header` to a
    new one, and keeps it open until `close` or `write`; each call is
    flushed, so an interrupted stage resumes from what it stored. `write`
    replaces the whole file through `replace_file`. `keys` and
    `canonicalize` read each record's ``key``; `canonicalize` rewrites the
    file in key order, so a finished store is byte-identical whatever order
    its records arrived in, and leaves a file already in that order alone.
    After a `load` that found `header` exactly as written, only
    newline-terminated lines and one whole record on each, the store keeps
    the records it read and those `extend` appends, each in the order of its
    line. `canonicalize` loads the file when the store does not keep them;
    with them kept, it reads the file's lines again through `scan` and sorts
    them by those records' keys, encoding no record. `load`, `scan` and that
    second read share one reader.

    A subclass defines the line format: `header` (the file's first line,
    with its line end, or empty), `encode` (one record as a line, with its
    line end) and `parse` (the records on the lines after the header,
    skipping blank ones); `csv_line`, `json_line` and `json_records` below
    implement the two formats in use.
    """

    header = ""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None
        # the file's records in file order, each line as `encode` wrote it,
        # while they are known
        self._records: Optional[list[R]] = None

    def encode(self, record: R) -> str:
        raise NotImplementedError

    def write_records(self, fh: TextIO, records: Sequence[R]) -> None:
        """Write ``records`` to ``fh``, each as the line `encode` gives; a
        format that writes many records faster in one pass overrides this."""
        fh.writelines([self.encode(record) for record in records])

    def parse(self, lines: Sequence[str]) -> list[R]:
        raise NotImplementedError

    def parse_tail(self, line: bytes) -> Optional[R]:
        """The record on an unterminated final line, or None if its write was
        cut short. A format that can parse a line cut inside its last field
        narrows this."""
        try:
            records = self.parse([line.decode("utf-8")])
        except _MALFORMED:
            return None
        return records[0] if len(records) == 1 else None

    def append(self, record: R) -> None:
        self.extend((record,))

    def extend(self, records: Iterable[R]) -> None:
        records = list(records)
        with self._lock:
            # unknown should the write fail
            known, self._records = self._records, None
            if self._fh is None:
                self._fh = self._open_append()
            self.write_records(self._fh, records)
            self._fh.flush()
            if known is not None:
                known.extend(records)
                self._records = known

    def close(self) -> None:
        """Close the file `extend` opened; a later `extend` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def write(self, records: Iterable[R]) -> None:
        """Replace the file with `header` and ``records``."""
        self.close()
        self._records = None
        replace_file(self.path, itertools.chain((self.header,), map(self.encode, records)))

    def load(self) -> list[R]:
        """The file's records in file order, read through `scan` and parsed in
        one `parse` call, so that a record may span lines; the last comes from
        an unterminated final line if that holds a whole record. A missing
        file has none. Afterwards the store knows its records (see the class)
        if the file held `header` exactly as written, only newline-terminated
        lines and one record on each."""
        self._records = None
        whole: list[bool] = []
        lines, records = self.scan(lambda read: (lines := list(read), self.parse(lines)), whole)
        if whole == [True] and len(records) == len(lines):
            self._records = list(records)
        return records

    def scan(self, consume: Callable[[Iterator[str]], T],
             whole: Optional[list[bool]] = None) -> T:
        """``consume`` applied to the file's record lines, read in one pass a
        block at a time: the lines after the header, each decoded with its
        line end, and last an unterminated final line that holds a whole
        record (`parse_tail`). A wrong header, or a line ``consume`` fails to
        parse, raises `CorruptStoreError` naming the line, and a torn final
        line is dropped with a warning. A missing file has no lines. Once
        ``consume`` has read every line, the reader appends to ``whole``, if
        given, whether the file held `header` exactly as written and only
        newline-terminated lines, as a missing file does."""
        blocks = self._line_blocks(whole)
        try:
            return consume(itertools.chain.from_iterable(blocks))
        except CorruptStoreError:
            raise
        except _MALFORMED as exc:
            raise self._corrupt(exc) from exc
        finally:
            blocks.close()

    def _line_blocks(self, whole: Optional[list[bool]]) -> Iterator[list[str]]:
        """The lines `scan` gives, read and decoded a block at a time; the
        only reader of a store's records."""
        exact = True
        if self.path.is_file():
            with open(self.path, "rb") as fh:
                first = fh.readline() if self.header else b""
                exact = first == self.header.encode("utf-8")
                if first.endswith(b"\n"):
                    self._check_header(first.decode("utf-8"))
                else:
                    # no header line to check, or one cut short: that is the final line
                    fh.seek(0)
                while block := fh.readlines(_SCAN_BLOCK_BYTES):
                    # only the file's last line can lack its line end
                    if not block[-1].endswith(b"\n"):
                        exact = False
                        if self._tail_record(block[-1]) is None:
                            block.pop()
                    yield [line.decode("utf-8") for line in block]
        if whole is not None:
            whole.append(exact)

    def _tail_record(self, tail: bytes) -> Optional[R]:
        """The record on the unterminated final line ``tail``, or None, with a
        warning, if its write was cut short."""
        record = self.parse_tail(tail)
        if record is None:
            log.warning(
                "%s: dropped a torn final line of %d byte(s) left by an interrupted write",
                self.path, len(tail),
            )
        return record

    def _check_header(self, line: str) -> None:
        if line.rstrip("\r\n") != self.header.rstrip("\r\n"):
            raise CorruptStoreError(
                f"{self.path}: line 1: expected header {self.header.rstrip()}"
            )

    def _corrupt(self, exc: Exception) -> CorruptStoreError:
        """The error for a file that did not parse, naming its first whole
        line that does not parse on its own."""
        with open(self.path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                if not line.endswith(b"\n") or (number == 1 and self.header):
                    continue
                try:
                    self.parse([line.decode("utf-8")])
                except _MALFORMED as line_exc:
                    return CorruptStoreError(f"{self.path}: line {number}: {line_exc}")
        return CorruptStoreError(f"{self.path}: {exc}")

    def keys(self) -> set[Hashable]:
        return {record.key for record in self.load()}

    def canonicalize(self) -> None:
        """Close the file and rewrite it in key order, unless its records are
        already in that order. A store that does not know its records (see
        the class) loads the file first. When the records are known, a file
        already in key order is left alone, and otherwise its lines are read
        once more through `scan` and written back in the stable key order of
        those records, none encoded again. When they are still unknown, the
        file has a torn or blank line, a last record without its newline, a
        header missing or written differently or a record over several
        lines, so it cannot hold the sorted encoding: the records are written
        sorted. A missing file gets its header."""
        self.close()
        records = self.load() if self._records is None else self._records
        if self._records is None or not (records or self.path.is_file()):
            self.write(sorted(records, key=lambda record: record.key))
            return
        keys = [record.key for record in records]
        if any(a > b for a, b in zip(keys, keys[1:])):
            self._sort_lines(sorted(range(len(keys)), key=keys.__getitem__))

    def _sort_lines(self, order: list[int]) -> None:
        """Rewrite the file with the lines of the known records taken in
        ``order``, as written: a known record's line is what `encode` wrote.
        A file that no longer holds `header` exactly as written and one
        newline-terminated line per known record is written from the records,
        encoded."""
        records = [self._records[i] for i in order]
        whole: list[bool] = []
        try:
            lines = self.scan(list, whole)
        except (OSError, ValueError):
            lines = []
        if whole != [True] or len(lines) != len(order):
            self.write(records)
            return
        replace_file(self.path, itertools.chain((self.header,), map(lines.__getitem__, order)))
        self._records = records

    def _open_append(self) -> TextIO:
        """The file opened for appending, its final line repaired and, when it
        is new, its header written."""
        fh = open(self.path, "a+b")
        try:
            size = fh.seek(0, os.SEEK_END)
            if size:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    data = fh.read()
                    start = data.rfind(b"\n") + 1
                    if self.parse_tail(data[start:]) is None:
                        fh.truncate(start)
                    else:
                        fh.write(b"\n")
                    size = fh.seek(0, os.SEEK_END)
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
        except BaseException:
            fh.close()
            raise
        if not size:
            text.write(self.header)
        return text


# one buffer and writer per thread, since stores on several threads may encode at once
_csv_writer = threading.local()


def csv_line(fields: Iterable[object]) -> str:
    """One CSV row as the csv module writes it, ending in CRLF."""
    try:
        out, writer = _csv_writer.out, _csv_writer.writer
    except AttributeError:
        out = _csv_writer.out = io.StringIO()
        writer = _csv_writer.writer = csv.writer(out)
    out.seek(0)
    out.truncate()
    writer.writerow(fields)
    return out.getvalue()


# `json.dumps` with an option builds an encoder per call; every JSON line shares this one
_JSON = json.JSONEncoder(ensure_ascii=False)
# lines parsed by one `json.loads`: enough to spread the call's cost, few
# enough that the joined text stays small next to the store
_PARSE_SLICE = 256


def json_line(record: object) -> str:
    """A slotted dataclass record as one JSON object line: its fields in
    field order, non-ASCII characters kept, ending in LF."""
    return _JSON.encode({name: getattr(record, name) for name in record.__slots__}) + "\n"


def json_records(lines: Sequence[str], make: Callable[..., R]) -> list[R]:
    """``make(**fields)`` for the JSON object on each line, blank lines skipped."""
    records = []
    for start in range(0, len(lines), _PARSE_SLICE):
        part = lines[start:start + _PARSE_SLICE]
        try:
            objects = json.loads("[" + ",".join(part) + "]")
        except ValueError:
            objects = []
        if len(objects) != len(part):
            # a blank line, or one that is not one JSON value: parse each
            # line, so that a bad one raises on its own
            objects = [json.loads(line) for line in part if line.strip()]
        records.extend(make(**fields) for fields in objects)
    return records
