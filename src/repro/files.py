"""Crash-safe file writes: whole-file replacement and grow-only JSONL.

Sweep journals, metric series and streaming traces are written through
these helpers, so a process killed mid-write never leaves a reader a
torn file: :func:`atomic_write` replaces a file whole, and
:class:`JsonlAppender` grows one by whole flushed lines whose torn tail
:func:`read_jsonl` tolerates.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Callable, Dict, List, Optional


class CorruptFileError(RuntimeError):
    """A file is corrupt, or is not the kind of file its reader expects."""


def atomic_write(path: Any, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    The bytes land in a temporary file in the same directory, are
    fsync'd, and replace ``path`` in one :func:`os.replace` -- so a
    reader never observes a torn write: either the old file or the new
    one, never a prefix.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class JsonlAppender:
    """Crash-tolerant grow-only JSONL channel (one flushed line per record).

    The sibling of :func:`atomic_write` for files that *grow*: a metric
    time series or a streaming trace cannot be rewritten whole on every
    record.  Instead each record is one ``json.dumps`` line, written and
    flushed immediately, so a crash tears at most the trailing line --
    which :func:`read_jsonl` tolerates by stopping at the first
    unparsable tail.  Floats round-trip exactly (``repr`` doubles, and
    ``nan`` as the bare ``NaN`` literal the stdlib parser accepts).
    """

    def __init__(self, path: Any) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.written = 0

    def write(self, record: Dict[str, Any]) -> None:
        """Append one record as a single flushed JSON line."""
        handle = self._handle
        if handle is None:
            raise ValueError(f"{self.path}: appender is closed")
        handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        handle.flush()
        self.written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self._handle is None else "open"
        return f"JsonlAppender({self.path!r}, {status}, written={self.written})"


def read_jsonl(
    path: Any, on_torn: Optional[Callable[[str], None]] = None
) -> List[Dict[str, Any]]:
    """Read a :class:`JsonlAppender` file, tolerating a torn final line.

    A process killed mid-:meth:`~JsonlAppender.write` leaves at most one
    partial trailing line; parsing stops there and everything before it
    is returned.  (An unparsable line anywhere *else* means real
    corruption and raises.)  ``on_torn`` is called with a one-line
    description when a torn tail was skipped, so callers can surface
    the data loss instead of silently absorbing it.
    """
    path = os.fspath(path)
    records: List[Dict[str, Any]] = []
    pending_error = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if pending_error is not None:
                raise CorruptFileError(
                    f"{path}: corrupt JSONL line before end of file "
                    f"({pending_error})"
                )
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                pending_error = exc  # torn tail if nothing follows
    if pending_error is not None and on_torn is not None:
        on_torn(
            f"{path}: skipped torn final record (writer crashed "
            f"mid-write: {pending_error})"
        )
    return records
