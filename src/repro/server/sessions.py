"""Per-client session leases, journaled through the WAL.

A session is the server's memory of one client: an id the client quotes
on every request and a wall-clock lease renewed by any request
(heartbeats included).  Sessions are journaled to an fsync'd WAL (the
same :class:`~repro.orchestrator.journal.Journal` the job queue uses)
so a server crash mid-campaign restarts with its client table intact:
a client that reconnects and quotes its old id resumes its session if
the lease is still live, and is handed a fresh one otherwise — either
way its *jobs* survived in the job queue, so nothing re-executes.

Eviction is heartbeat-based: the server's reaper sweeps
:meth:`SessionRegistry.expire` and any session whose lease has lapsed
is closed (journaled, so a restart does not resurrect it).  Ids are a
journal-replayed counter, not random, so restarts never collide and the
registry stays deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from ..orchestrator.journal import Journal, read_records

__all__ = ["Session", "SessionRegistry"]


@dataclass
class Session:
    """One client's lease."""

    session_id: str
    lease_expires: float

    def live(self, now: float) -> bool:
        return now < self.lease_expires


class SessionRegistry:
    """The journaled client-session table (caller serializes access)."""

    def __init__(self, path: str | Path, lease_s: float = 30.0):
        self.path = Path(path)
        self.lease_s = float(lease_s)
        self.sessions: dict[str, Session] = {}
        self.resumed = 0
        self._counter = 0
        self._journal = Journal(self.path)

    # -- persistence -------------------------------------------------------

    def load(self, now: float | None = None) -> "SessionRegistry":
        """Replay the WAL: live sessions resume, lapsed ones stay dead."""
        clock = time.time() if now is None else now
        records, _torn = read_records(self.path)
        for record in records:
            sid = record.get("session")
            op = record.get("op")
            if not isinstance(sid, str) or not sid.startswith("s"):
                continue
            try:
                number = int(sid[1:])
            except ValueError:
                continue
            self._counter = max(self._counter, number)
            if op in ("open", "renew"):
                expires = float(record.get("lease_expires") or 0.0)
                session = self.sessions.get(sid)
                if session is None:
                    self.sessions[sid] = Session(sid, expires)
                else:
                    session.lease_expires = expires
            elif op in ("close", "expire"):
                self.sessions.pop(sid, None)
        dead = [sid for sid, s in self.sessions.items() if not s.live(clock)]
        for sid in dead:
            del self.sessions[sid]
        self.resumed = len(self.sessions)
        return self

    def _append(self, op: str, session: Session) -> None:
        self._journal.append(
            {
                "op": op,
                "session": session.session_id,
                "lease_expires": session.lease_expires,
            }
        )

    def close_journal(self) -> None:
        self._journal.close()

    # -- lifecycle ---------------------------------------------------------

    def open(self, now: float | None = None) -> Session:
        clock = time.time() if now is None else now
        self._counter += 1
        session = Session(f"s{self._counter}", clock + self.lease_s)
        self.sessions[session.session_id] = session
        self._append("open", session)
        return session

    def resume(self, session_id: str, now: float | None = None) -> Session | None:
        """The live session with this id, lease renewed; None if lapsed."""
        clock = time.time() if now is None else now
        session = self.sessions.get(session_id)
        if session is None or not session.live(clock):
            return None
        self.renew(session_id, now=clock)
        return session

    def renew(self, session_id: str, now: float | None = None) -> bool:
        clock = time.time() if now is None else now
        session = self.sessions.get(session_id)
        if session is None:
            return False
        session.lease_expires = clock + self.lease_s
        # Renewals are frequent and idempotent: journaling each one
        # would dominate the WAL, so only lease *extensions past the
        # last journaled horizon* are persisted implicitly by the next
        # open/close; a crash loses at most one lease period of renews,
        # after which the client simply opens a fresh session.
        return True

    def close(self, session_id: str) -> bool:
        session = self.sessions.pop(session_id, None)
        if session is None:
            return False
        self._append("close", session)
        return True

    def expire(self, now: float | None = None) -> list[Session]:
        """Evict every session whose lease lapsed; returns the evicted."""
        clock = time.time() if now is None else now
        lapsed = [s for s in self.sessions.values() if not s.live(clock)]
        for session in lapsed:
            del self.sessions[session.session_id]
            self._append("expire", session)
        return lapsed
