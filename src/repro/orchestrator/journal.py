"""Write-ahead journaling primitives: fsync'd appends, tolerant reads.

The durability contract the orchestrator is built on:

* :func:`fsync_dir` — after an ``os.replace`` the *parent directory*
  must be fsynced too, or a crash can lose the rename itself (the file
  data is safe but the directory entry may still point at the old
  inode, or at nothing for a freshly created file);
* :class:`Journal` — an append-only JSONL log where every record is
  flushed *and fsynced* before the append returns, so a record the
  caller saw acknowledged survives a power cut;
* :func:`read_records` — a reader that treats a torn final line (the
  signature of a crash mid-append) as end-of-log instead of an error,
  and counts any interior garbage instead of raising.

These helpers are deliberately dependency-free so the record store and
the result cache can share them without import cycles.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["fsync_dir", "Journal", "read_records"]


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so renames/creations inside it are durable.

    Best effort: some file systems (and some CI sandboxes) refuse to
    open directories for fsync — losing the *extra* durability there is
    acceptable, failing the write that already succeeded is not.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class Journal:
    """An append-only JSONL log with per-append fsync.

    Used as the durable job queue's write-ahead log: one JSON object
    per line, appended with a **single ``os.write`` on an ``O_APPEND``
    descriptor** and fsynced before the append returns, so an
    acknowledged state transition is crash-safe.  The unbuffered
    whole-line write also makes concurrent appenders safe: POSIX
    ``O_APPEND`` writes are atomic with respect to each other, so two
    processes journaling to the same WAL can interleave *lines* but
    never the bytes inside a line (a buffered text handle would split
    large records across multiple write syscalls and could).  The
    descriptor stays open across appends; :meth:`close` releases it.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fd: int | None = None

    def _handle(self) -> int:
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            created = not self.path.exists()
            self._fd = os.open(
                str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            if created:
                # The journal file itself must survive a crash, not just
                # its contents: sync the directory entry.
                fsync_dir(self.path.parent)
        return self._fd

    @staticmethod
    def _encode(record: dict[str, Any]) -> bytes:
        return (
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        ).encode("utf-8")

    @staticmethod
    def _write_all(fd: int, blob: bytes) -> None:
        # A single os.write normally takes the whole line; a short write
        # (signal, quota edge) is continued — the O_APPEND atomicity we
        # rely on holds per syscall, and every record fits one syscall
        # on regular files in practice.
        view = memoryview(blob)
        while view:
            written = os.write(fd, view)
            view = view[written:]

    def append(self, record: dict[str, Any]) -> None:
        """Append one record; returns only after it is on stable storage."""
        fd = self._handle()
        self._write_all(fd, self._encode(record))
        os.fsync(fd)

    def append_many(self, records: list[dict[str, Any]]) -> None:
        """Append a batch under a single fsync (one barrier, not N)."""
        if not records:
            return
        fd = self._handle()
        self._write_all(fd, b"".join(self._encode(r) for r in records))
        os.fsync(fd)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def unlink(self) -> None:
        """Close and remove the journal file (campaign completed cleanly)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass
        else:
            fsync_dir(self.path.parent)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def read_records(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Replay a journal tolerantly: ``(records, torn_lines)``.

    A line that fails to decode — the torn tail of a crashed append, or
    interior corruption, including bytes that are not UTF-8 — is
    counted and skipped, never raised: the journal is an optimization
    over re-executing work, so a damaged record must degrade to "that
    work is requeued", not to a crash.  A missing file is simply an
    empty journal.
    """
    records: list[dict[str, Any]] = []
    torn = 0
    try:
        data = Path(path).read_bytes()
    except OSError:
        return records, torn
    for raw in data.splitlines():
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            torn += 1
            continue
        if isinstance(obj, dict):
            records.append(obj)
        else:
            torn += 1
    return records, torn
