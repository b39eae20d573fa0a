"""A crash-safe persistent job queue for campaign runs.

Each job is one ``(spec key, rep)`` pair of a campaign plan.  State
transitions are journaled to a JSONL write-ahead log (one fsync'd line
per transition) so that after a crash the queue can be replayed to the
exact last acknowledged state:

``queued``  → the run is planned and nobody owns it;
``leased``  → an owner (a runner process) is executing it, with a
              wall-clock lease deadline;
``done``    → the run was merged into the record store;
``failed``  → the run exhausted its retry budget (quarantined).

Recovery rule: on open, any ``leased`` entry whose lease expired *or*
whose owner pid provably no longer exists is reclaimed to ``queued``.
The journal is an optimization over the checkpoint — a torn or missing
journal only means runs are re-executed, never that results are lost —
so all reads are tolerant.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import OrchestratorError
from repro.orchestrator.journal import Journal, read_records

__all__ = ["JobEntry", "DurableJobQueue", "default_owner", "process_start_ticks"]

_STATES = ("queued", "leased", "done", "failed")


def process_start_ticks(pid: int) -> int | None:
    """The kernel start time (clock ticks since boot) of ``pid``, or None.

    Field 22 of ``/proc/<pid>/stat`` — the one pid attribute that
    survives nothing: a reused pid gets a fresh start time, so
    ``(pid, start_ticks)`` identifies a process where a bare pid does
    not.  Returns ``None`` off Linux or when the process is gone.
    """
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
        # comm (field 2) may contain spaces and parens: split after the
        # *last* ')' — everything beyond is whitespace-separated fields
        # 3.., so starttime (field 22) is index 19 of the remainder.
        rest = text[text.rindex(")") + 2 :].split()
        return int(rest[19])
    except (OSError, ValueError, IndexError):
        return None


def default_owner() -> str:
    """The owner token for this process: ``pid:<n>@<host>#<start-ticks>``.

    A bare pid misidentifies dead owners after pid reuse (the number
    comes back as someone else) and across hosts (a shared filesystem
    shows host A's journal to host B, whose pid table says nothing
    about A's processes) — so the token carries the hostname and the
    process start time too.  Legacy ``pid:<n>`` tokens from older
    journals still parse, and are treated as local.
    """
    start = process_start_ticks(os.getpid())
    return f"pid:{os.getpid()}@{socket.gethostname()}#{start if start is not None else 0}"


def _owner_parts(owner: str | None) -> tuple[int | None, str | None, int | None]:
    """``(pid, host, start_ticks)`` of an owner token; Nones where absent."""
    if not owner or not owner.startswith("pid:"):
        return None, None, None
    body = owner[len("pid:") :]
    host: str | None = None
    start: int | None = None
    if "@" in body:
        pid_text, _, rest = body.partition("@")
        host, _, start_text = rest.partition("#")
        host = host or None
        if start_text:
            try:
                start = int(start_text)
            except ValueError:
                start = None
    else:
        pid_text = body
    try:
        return int(pid_text), host, start
    except ValueError:
        return None, host, start


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM etc.: the pid exists but is not ours.  Treat as alive —
        # reclaiming work from a live process would double-execute it.
        return True
    return True


def _owner_provably_dead(owner: str | None) -> bool:
    """May a lease from ``owner`` be reclaimed before it expires?

    Only when the owner is a *local* process we can prove is gone:

    * a foreign-host token is never provably dead — this host's pid
      table says nothing about another machine, so the lease must ride
      out its expiry instead;
    * a local pid that no longer exists is dead;
    * a local pid that exists but with a *different* start time is a
      pid-reuse impostor — the original owner is dead.
    """
    pid, host, start = _owner_parts(owner)
    if pid is None or pid == os.getpid():
        return False
    if host is not None and host != socket.gethostname():
        return False
    if not _pid_alive(pid):
        return True
    if start is not None and start != 0:
        current = process_start_ticks(pid)
        if current is not None and current != start:
            return True
    return False


@dataclass
class JobEntry:
    """One (spec key, rep) job and its journaled state.

    ``trace`` is the job's deterministic distributed-trace id (see
    :mod:`repro.telemetry.trace`) when the submitter carried one; it
    rides every journal record so a recovered job resumes under the
    same trace it was admitted with.
    """

    key: str
    rep: int
    state: str = "queued"
    attempt: int = 0
    owner: str | None = None
    lease_expires: float | None = None
    trace: str | None = None

    @property
    def job_id(self) -> tuple[str, int]:
        return (self.key, self.rep)


@dataclass
class DurableJobQueue:
    """Persistent (spec key, rep) job queue over a JSONL journal.

    ``open()`` replays the journal, reclaims stale leases, and records
    how many entries were reclaimed/torn so the runner can surface them
    on the telemetry bus.  All mutating methods append one journal line
    before returning, so an acknowledged transition is crash-safe.
    """

    path: Path
    owner: str = field(default_factory=default_owner)
    lease_s: float = 600.0

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        self.entries: dict[tuple[str, int], JobEntry] = {}
        self.reclaimed: list[JobEntry] = []
        self.torn_lines = 0
        self._journal = Journal(self.path)
        self._opened = False

    # -- lifecycle ---------------------------------------------------------

    def open(self, now: float | None = None) -> "DurableJobQueue":
        """Replay the journal and reclaim leases from dead/expired owners."""
        if self._opened:
            return self
        records, self.torn_lines = read_records(self.path)
        for record in records:
            self._apply(record)
        clock = time.time() if now is None else now
        for entry in self.entries.values():
            if entry.state != "leased":
                continue
            expired = entry.lease_expires is not None and clock >= entry.lease_expires
            if expired or _owner_provably_dead(entry.owner):
                self.reclaimed.append(
                    JobEntry(
                        entry.key, entry.rep, "leased", entry.attempt, entry.owner
                    )
                )
                entry.state = "queued"
                entry.owner = None
                entry.lease_expires = None
                self._append(entry, op="reclaim")
        self._opened = True
        return self

    def close(self, remove: bool = False) -> None:
        """Release the journal handle; ``remove=True`` deletes the log.

        Remove only on clean campaign completion — the checkpoint is
        then authoritative and the journal would just shadow it.
        """
        if remove:
            self._journal.unlink()
        else:
            self._journal.close()
        self._opened = False

    # -- journal plumbing --------------------------------------------------

    def _record(self, entry: JobEntry, op: str) -> dict[str, Any]:
        record = {
            "op": op,
            "key": entry.key,
            "rep": entry.rep,
            "state": entry.state,
            "attempt": entry.attempt,
            "owner": entry.owner,
            "lease_expires": entry.lease_expires,
        }
        # Written only when present, so journals from trace-off
        # campaigns stay byte-for-byte what they always were.
        if entry.trace is not None:
            record["trace"] = entry.trace
        return record

    def _append(self, entry: JobEntry, op: str) -> None:
        self._journal.append(self._record(entry, op))

    def _apply(self, record: dict[str, Any]) -> None:
        try:
            key = str(record["key"])
            rep = int(record["rep"])
            state = str(record["state"])
        except (KeyError, TypeError, ValueError):
            self.torn_lines += 1
            return
        if state not in _STATES:
            self.torn_lines += 1
            return
        owner = record.get("owner")
        lease = record.get("lease_expires")
        trace = record.get("trace")
        entry = JobEntry(
            key=key,
            rep=rep,
            state=state,
            attempt=int(record.get("attempt", 0) or 0),
            owner=str(owner) if owner is not None else None,
            lease_expires=float(lease) if lease is not None else None,
            trace=str(trace) if trace is not None else None,
        )
        self.entries[entry.job_id] = entry

    # -- state transitions -------------------------------------------------

    def _require_open(self) -> None:
        if not self._opened:
            raise OrchestratorError("job queue used before open()")

    def _admit(self, key: str, rep: int, trace: str | None = None) -> JobEntry | None:
        """Make (key, rep) pending; returns the entry when it changed.

        The caller (the runner) declares this work *is* planned and not
        in the record store — so an entry a previous campaign attempt
        marked ``done`` or ``failed`` is reopened to ``queued`` (resume
        retries quarantined failures; the store, not the journal, is
        authoritative about completed work).
        """
        entry = self.entries.get((key, int(rep)))
        if entry is None:
            entry = JobEntry(key=key, rep=int(rep), trace=trace)
            self.entries[entry.job_id] = entry
            return entry
        if trace is not None and entry.trace is None:
            entry.trace = trace
        if entry.state in ("done", "failed"):
            entry.state = "queued"
            entry.owner = None
            entry.lease_expires = None
            return entry
        return None

    def enqueue(self, key: str, rep: int, trace: str | None = None) -> JobEntry:
        """Add a job as ``queued``; idempotent for already-pending jobs."""
        self._require_open()
        changed = self._admit(key, rep, trace=trace)
        if changed is not None:
            self._append(changed, op="enqueue")
        return self.entries[(key, int(rep))]

    def enqueue_many(self, jobs: list[tuple[str, int]] | list[tuple[str, int, str | None]]) -> int:
        """Batch enqueue under one fsync; returns how many changed state.

        Accepts ``(key, rep)`` pairs or ``(key, rep, trace)`` triples.
        """
        self._require_open()
        fresh: list[JobEntry] = []
        for job in jobs:
            key, rep = job[0], job[1]
            trace = job[2] if len(job) > 2 else None
            changed = self._admit(key, rep, trace=trace)
            if changed is not None:
                fresh.append(changed)
        self._journal.append_many([self._record(e, "enqueue") for e in fresh])
        return len(fresh)

    def lease(self, key: str, rep: int, now: float | None = None) -> JobEntry:
        """Take ownership of a queued job for ``lease_s`` seconds."""
        self._require_open()
        entry = self.entries.get((key, int(rep)))
        if entry is None:
            entry = self.enqueue(key, rep)
        if entry.state in ("done", "failed"):
            raise OrchestratorError(
                f"cannot lease {entry.state} job ({key!r}, rep {rep})"
            )
        clock = time.time() if now is None else now
        entry.state = "leased"
        entry.owner = self.owner
        entry.lease_expires = clock + float(self.lease_s)
        self._append(entry, op="lease")
        return entry

    def lease_many(
        self, jobs: list[tuple[str, int]], now: float | None = None
    ) -> list[JobEntry]:
        """Lease a batch of queued jobs under one fsync.

        Batched dispatch hands a whole chunk of runs to one worker; the
        journal still records one lease per job (resume sees the same
        per-job states either way), but they are appended and fsync'd as
        a single write, like :meth:`enqueue_many`.
        """
        self._require_open()
        clock = time.time() if now is None else now
        records: list[dict[str, Any]] = []
        leased: list[JobEntry] = []
        for key, rep in jobs:
            entry = self.entries.get((key, int(rep)))
            if entry is None:
                entry = JobEntry(key=key, rep=int(rep))
                self.entries[entry.job_id] = entry
                records.append(self._record(entry, "enqueue"))
            if entry.state in ("done", "failed"):
                raise OrchestratorError(
                    f"cannot lease {entry.state} job ({key!r}, rep {rep})"
                )
            entry.state = "leased"
            entry.owner = self.owner
            entry.lease_expires = clock + float(self.lease_s)
            records.append(self._record(entry, "lease"))
            leased.append(entry)
        self._journal.append_many(records)
        return leased

    def requeue(self, key: str, rep: int, attempt: int | None = None) -> JobEntry:
        """Return a leased job to ``queued`` (retry after a worker fault)."""
        self._require_open()
        entry = self.entries.get((key, int(rep)))
        if entry is None:
            entry = self.enqueue(key, rep)
        entry.state = "queued"
        entry.owner = None
        entry.lease_expires = None
        if attempt is not None:
            entry.attempt = int(attempt)
        else:
            entry.attempt += 1
        self._append(entry, op="requeue")
        return entry

    def mark_done(self, key: str, rep: int) -> JobEntry:
        """Record that a job's result was merged into the store."""
        return self._finish(key, rep, "done")

    def mark_failed(self, key: str, rep: int) -> JobEntry:
        """Record that a job was quarantined (retry budget exhausted)."""
        return self._finish(key, rep, "failed")

    def _finish(self, key: str, rep: int, state: str) -> JobEntry:
        self._require_open()
        entry = self.entries.get((key, int(rep)))
        if entry is None:
            entry = JobEntry(key=key, rep=int(rep))
            self.entries[entry.job_id] = entry
        entry.state = state
        entry.owner = None
        entry.lease_expires = None
        self._append(entry, op=state)
        return entry

    # -- introspection -----------------------------------------------------

    def counts(self) -> dict[str, int]:
        out = {state: 0 for state in _STATES}
        for entry in self.entries.values():
            out[entry.state] += 1
        return out

    def pending(self) -> list[JobEntry]:
        """Jobs still to execute (queued or leased), in insertion order."""
        return [e for e in self.entries.values() if e.state in ("queued", "leased")]
