"""Line-file record stores that survive an interrupted write.

Every workspace table is a `RecordStore`: the answers, verdicts and filter
verdicts that `ask`, `categorize` and `filter` append, the votes that
`vote` writes and the timing log that each requesting stage appends to. A
subclass defines only its line format.

Each record is one line. A crash can leave a final line whose newline was
never written. `RecordStore.load` drops such a line with a warning unless it
holds a whole record; the next `RecordStore.extend` cuts a torn final line
off, or terminates a whole record that only lost its newline, so the next
record starts on a line of its own. A malformed line anywhere else, or a
wrong header, is corruption: `RecordStore.load` raises `CorruptStoreError`
naming the file and the first bad line. A whole-file rewrite
goes through `replace_file`, so it leaves either the old file or the new one.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import os
import threading
from pathlib import Path
from typing import BinaryIO, Generic, Hashable, Iterable, Iterator, Optional, TextIO, TypeVar

from .errors import CorruptStoreError

log = logging.getLogger(__name__)

R = TypeVar("R")

# What a format's parser raises on a line that was cut short.
_MALFORMED = (ValueError, LookupError, TypeError, csv.Error)


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
    After a `load` that found one whole record on each line, the store keeps
    the records it read and those `extend` appends, so `canonicalize` need
    not read the file again.

    A subclass defines the line format: `header` (the file's first line,
    with its line end, or empty), `encode` (one record as a line, with its
    line end) and `parse` (the records on the lines after the header,
    skipping blank ones).
    """

    header = ""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._fh: Optional[TextIO] = None
        # the file's records in file order, each line as `encode` writes it,
        # while they are known
        self._records: Optional[list[R]] = None

    def encode(self, record: R) -> str:
        raise NotImplementedError

    def parse(self, lines: Iterable[str]) -> list[R]:
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
        lines = [self.encode(record) for record in records]
        with self._lock:
            # unknown should the write fail
            known, self._records = self._records, None
            if self._fh is None:
                self._fh = self._open_append()
            self._fh.writelines(lines)
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
        if not self.path.is_file():
            self._records = []
            return []
        self._records = None
        tail = b""
        lines = 0

        def whole_lines(fh: BinaryIO) -> Iterator[str]:
            nonlocal tail, lines
            for line in fh:
                if line.endswith(b"\n"):
                    lines += 1
                    yield line.decode("utf-8")
                else:
                    tail = line

        with open(self.path, "rb") as fh:
            try:
                header, records = self._parse_file(whole_lines(fh))
            except CorruptStoreError:
                raise
            except _MALFORMED as exc:
                raise self._corrupt(exc) from exc
        # no torn tail, and one record on each line after the header
        if not tail and header == self.header and len(records) == lines - bool(self.header):
            self._records = list(records)
        if tail:
            record = self.parse_tail(tail)
            if record is None:
                log.warning(
                    "%s: dropped a torn final line of %d byte(s) left by an interrupted write",
                    self.path, len(tail),
                )
            else:
                records.append(record)
        return records

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
        """Close the file and rewrite it in key order, unless it already holds
        those bytes. When the store knows its records (see the class), it
        reads nothing: a file whose records are already in key order is left
        alone without being encoded again, and otherwise those records are
        written in key order. Without them, the file is loaded, sorted and
        compared with its encoding."""
        self.close()
        # with none known, the path below also gives a missing file its header
        if self._records:
            keys = [record.key for record in self._records]
            if any(a > b for a, b in zip(keys, keys[1:])):
                self.write(sorted(self._records, key=lambda record: record.key))
            return
        records = sorted(self.load(), key=lambda record: record.key)
        if not self._holds(itertools.chain((self.header,), map(self.encode, records))):
            self.write(records)

    def _holds(self, lines: Iterable[str]) -> bool:
        """Whether the file's bytes are ``lines`` in UTF-8, compared a line at a
        time, so no copy of the whole file is made."""
        try:
            with open(self.path, "rb") as fh:
                for line in lines:
                    data = line.encode("utf-8")
                    if fh.read(len(data)) != data:
                        return False
                return not fh.read(1)
        except OSError:
            return False

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

    def _parse_file(self, lines: Iterator[str]) -> tuple[Optional[str], list[R]]:
        """The header line as read (empty for a format without one, None for a
        file without lines) and the records after it."""
        first: Optional[str] = ""
        if self.header:
            first = next(lines, None)
            if first is not None and first.rstrip("\r\n") != self.header.rstrip("\r\n"):
                raise CorruptStoreError(
                    f"{self.path}: line 1: expected header {self.header.rstrip()}"
                )
        return first, self.parse(lines)


# one buffer and writer per thread, since a store encodes outside its lock
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
