"""Append-only line files that survive an interrupted write.

Each record is one line. A crash can leave a final line whose newline was
never written. `read_records` drops such a line with a warning unless it
holds a whole record; `open_append` cuts a torn final line off, or
terminates a whole record that only lost its newline, so the next record
starts on a line of its own. A malformed line anywhere else is corruption,
and each format's parser raises on it.

`RecordStore` is the resumable record store of `ask`, `categorize` and
`filter`; a subclass defines only its line format.
"""

from __future__ import annotations

import csv
import io
import logging
import os
import threading
from pathlib import Path
from typing import (
    BinaryIO, Callable, Generic, Hashable, Iterable, Iterator, Optional, TextIO, TypeVar,
)

log = logging.getLogger(__name__)

R = TypeVar("R")

# Reads the record on a final line that lacks its newline; None if torn.
ParseTail = Callable[[bytes], Optional[R]]


def open_append(path: str | Path, parse_tail: ParseTail) -> TextIO:
    """Open ``path`` for appending UTF-8 text, first repairing its final line.

    The handle is positioned at the end of the file, so ``tell() == 0``
    means it is empty.
    """
    fh = open(path, "a+b")
    try:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                if parse_tail(data[start:]) is None:
                    fh.truncate(start)
                else:
                    fh.write(b"\n")
                fh.seek(0, os.SEEK_END)
        return io.TextIOWrapper(fh, encoding="utf-8", newline="")
    except BaseException:
        fh.close()
        raise


def read_records(
    path: str | Path,
    parse_lines: Callable[[Iterator[str]], list[R]],
    parse_tail: ParseTail,
) -> list[R]:
    """The records of ``path``.

    ``parse_lines`` must consume every newline-terminated line, each decoded
    as UTF-8 when it is reached. A final line without a newline is kept when
    ``parse_tail`` reads a whole record from it and dropped with a warning
    otherwise.
    """
    tail = b""

    def whole_lines(fh: BinaryIO) -> Iterator[str]:
        nonlocal tail
        for line in fh:
            if line.endswith(b"\n"):
                yield line.decode("utf-8")
            else:
                tail = line

    with open(path, "rb") as fh:
        records = parse_lines(whole_lines(fh))
    if tail:
        record = parse_tail(tail)
        if record is None:
            log.warning(
                "%s: dropped a torn final line of %d byte(s) left by an interrupted write",
                path, len(tail),
            )
        else:
            records.append(record)
    return records


# What a format's parser raises on a line that was cut short.
_MALFORMED = (ValueError, LookupError, TypeError, csv.Error)


class RecordStore(Generic[R]):
    """Append-only store of one record per line, keyed by ``record.key``.

    The first `append` opens the file (writing `header` to a new one) and
    keeps it open until `close` or `canonicalize`; each record is flushed
    as it is written, so an interrupted stage resumes from what it stored.
    A final line torn by a crash is dropped with a warning on `load` and cut
    off by the next `append`; a malformed line anywhere else raises.
    `canonicalize` rewrites the file in key order, so a finished store is
    byte-identical whatever order its records arrived in; it leaves the
    file alone when the last `load` found it in that order and nothing was
    appended since.

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
        self._canonical = False

    def encode(self, record: R) -> str:
        raise NotImplementedError

    def parse(self, lines: Iterable[str]) -> list[R]:
        raise NotImplementedError

    def append(self, record: R) -> None:
        line = self.encode(record)
        with self._lock:
            if self._fh is None:
                self._fh = open_append(self.path, self._parse_tail)
                if self.header and self._fh.tell() == 0:
                    self._fh.write(self.header)
            self._fh.write(line)
            self._fh.flush()
            self._canonical = False

    def close(self) -> None:
        """Close the file `append` opened; a later `append` reopens it."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def load(self) -> list[R]:
        if not self.path.is_file():
            return []
        tail_seen = False

        def parse_tail(line: bytes) -> Optional[R]:
            nonlocal tail_seen
            tail_seen = True
            return self._parse_tail(line)

        records = read_records(self.path, self._parse_file, parse_tail)
        keys = [record.key for record in records]
        self._canonical = not tail_seen and all(a < b for a, b in zip(keys, keys[1:]))
        return records

    def keys(self) -> set[Hashable]:
        return {record.key for record in self.load()}

    def canonicalize(self) -> None:
        self.close()
        if self._canonical:
            return
        records = self.load()
        if self._canonical:
            return
        records.sort(key=lambda record: record.key)
        with self._lock:
            with open(self.path, "w", encoding="utf-8", newline="") as fh:
                fh.write(self.header)
                fh.writelines(self.encode(record) for record in records)
            self._canonical = True

    def _parse_file(self, lines: Iterator[str]) -> list[R]:
        if self.header:
            first = next(lines, None)
            if first is not None and first.rstrip("\r\n") != self.header.rstrip("\r\n"):
                raise ValueError(f"{self.path}: expected header {self.header.rstrip()}")
        return self.parse(lines)

    def _parse_tail(self, line: bytes) -> Optional[R]:
        """The record on an unterminated final line, or None if the write was cut short."""
        try:
            records = self.parse([line.decode("utf-8")])
        except _MALFORMED:
            return None
        return records[0] if len(records) == 1 else None


def csv_line(fields: Iterable[object]) -> str:
    """One CSV row as the csv module writes it, ending in CRLF."""
    out = io.StringIO()
    csv.writer(out).writerow(fields)
    return out.getvalue()
