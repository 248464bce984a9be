"""Append-only line files that survive an interrupted write.

Each record is one line. A crash can leave a final line whose newline was
never written. `read_records` drops such a line with a warning unless it
holds a whole record; `open_append` cuts a torn final line off, or
terminates a whole record that only lost its newline, so the next record
starts on a line of its own. A malformed line anywhere else is corruption,
and each format's parser raises on it.
"""

from __future__ import annotations

import io
import logging
import os
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Optional, TextIO, TypeVar

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
