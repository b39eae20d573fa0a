"""The remote tier: read-through / write-behind against ``repro serve``.

A ``repro serve`` instance already owns a disk tier (its result cache);
two new frames in the length-prefixed wire protocol let any client use
it as a shared warm tier:

* ``cache-get {keys: [[fingerprint, engine, rep], ...], model_revision}``
  answered by ``cache-entries {entries: [...]}`` — whole validated
  entries for the keys the server holds, absent keys simply missing;
* ``cache-put {entry}`` answered by ``cache-ok {stored}``.

Reads are synchronous (a miss must be known before the run executes)
and batched: ``lookup_many`` ships up to :data:`MAX_KEYS_PER_FRAME`
keys per frame over one persistent connection.  Writes are
**write-behind**: ``store_entry`` enqueues and returns; a daemon thread
drains the queue so a slow or dead server never sits on the campaign's
critical path.  ``flush()`` exists for tests and CI equivalence jobs
that need the queue drained at a barrier.

Every transport or protocol failure is normalized to ``OSError`` — the
:class:`~repro.cache.tiered.TieredCache` treats a remote fault exactly
like a disk fault on any other tier: strike the tier's circuit breaker
and degrade, never fail the run.
"""

from __future__ import annotations

import collections
import socket
import threading
from typing import Any, Mapping

from ..errors import ConfigError, ProtocolError
from ..scenario import MODEL_REVISION, ScenarioSpec
from .tier import EntryKey, validate_entry

__all__ = ["RemoteTier", "MAX_KEYS_PER_FRAME", "parse_address"]

# Bound on keys per cache-get frame (both sides enforce it): ~128
# entries of tens of KiB keeps a reply comfortably under the 64 MiB
# frame cap while amortizing round-trips across a campaign's backlog.
MAX_KEYS_PER_FRAME = 128


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (the CLI's --cache-remote)."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ConfigError(f"cache remote must be host:port, got {address!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ConfigError(f"bad cache remote port in {address!r}") from exc


class RemoteTier:
    """One shared warm tier behind a ``repro serve`` endpoint."""

    def __init__(self, host: str, port: int, timeout_s: float = 5.0):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._io_lock = threading.Lock()
        self._sock: socket.socket | None = None
        # Write-behind machinery: puts queue here; one daemon thread
        # drains.  put_errors counts entries dropped after a send
        # failure (write-behind is best-effort by design).
        self._queue: collections.deque[dict[str, Any]] = collections.deque()
        self._queue_cv = threading.Condition()
        self._inflight = 0
        self._flusher: threading.Thread | None = None
        self._closed = False
        self.put_errors = 0
        self.puts = 0

    @classmethod
    def from_address(cls, address: str, timeout_s: float = 5.0) -> "RemoteTier":
        host, port = parse_address(address)
        return cls(host, port, timeout_s=timeout_s)

    # -- transport ---------------------------------------------------------

    def _connected(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            sock.settimeout(self.timeout_s)
            self._sock = sock
        return self._sock

    def _drop_connection(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _roundtrip(self, msg: dict[str, Any]) -> dict[str, Any]:
        """One request/response over the persistent connection.

        Any defect — reset, torn frame, protocol garbage, an ``error``
        frame — drops the connection and raises ``OSError`` so the
        composite's breaker accounting sees one uniform failure shape.
        """
        from ..server.protocol import check_version, recv_frame, send_frame

        with self._io_lock:
            try:
                sock = self._connected()
                send_frame(sock, msg)
                reply = recv_frame(sock)
            except ProtocolError as exc:
                self._drop_connection()
                raise ConnectionError(f"remote cache protocol error: {exc}") from exc
            except OSError:
                self._drop_connection()
                raise
            if reply is None:
                self._drop_connection()
                raise ConnectionError("remote cache closed the connection")
            try:
                check_version(reply)
            except ProtocolError as exc:
                self._drop_connection()
                raise ConnectionError(str(exc)) from exc
            if reply.get("type") == "error":
                self._drop_connection()
                raise ConnectionError(
                    f"remote cache error: {reply.get('message', reply.get('error'))}"
                )
            return reply

    # -- reads (read-through) ----------------------------------------------

    def lookup_keys(self, keys: "list[EntryKey]") -> dict[EntryKey, dict[str, Any]]:
        """Fetch entries for ``keys``; absent keys are misses.

        Raises ``OSError`` on transport failure.  Replies are validated
        entry by entry: a peer returning garbage (or entries for keys we
        never asked about) contributes nothing.
        """
        from ..server.protocol import message

        wanted = {(str(fp), str(eng), int(rep)) for fp, eng, rep in keys}
        out: dict[EntryKey, dict[str, Any]] = {}
        todo = sorted(wanted)
        for i in range(0, len(todo), MAX_KEYS_PER_FRAME):
            chunk = todo[i : i + MAX_KEYS_PER_FRAME]
            reply = self._roundtrip(
                message(
                    "cache-get",
                    keys=[[fp, eng, rep] for fp, eng, rep in chunk],
                    model_revision=MODEL_REVISION,
                )
            )
            if reply.get("type") != "cache-entries":
                raise ConnectionError(
                    f"unexpected reply {reply.get('type')!r} to cache-get"
                )
            for entry in reply.get("entries") or ():
                if not validate_entry(entry, model_revision=MODEL_REVISION):
                    continue
                key = (entry["fingerprint"], entry["engine"], int(entry["rep"]))
                if key in wanted:
                    out[key] = entry
        return out

    def lookup(self, spec: ScenarioSpec, rep: int) -> dict[str, Any] | None:
        key: EntryKey = (spec.fingerprint, spec.engine, int(rep))
        return self.lookup_keys([key]).get(key)

    def lookup_many(
        self, jobs: "list[tuple[ScenarioSpec, int]]"
    ) -> dict[EntryKey, dict[str, Any]]:
        keys = [(spec.fingerprint, spec.engine, int(rep)) for spec, rep in jobs]
        return self.lookup_keys(keys)

    # -- writes (write-behind) ---------------------------------------------

    def store_entry(self, entry: Mapping[str, Any]) -> None:
        """Enqueue one entry for background upload (never blocks on I/O)."""
        if not validate_entry(entry, model_revision=MODEL_REVISION):
            return
        with self._queue_cv:
            if self._closed:
                return
            self._queue.append(dict(entry))
            if self._flusher is None or not self._flusher.is_alive():
                self._flusher = threading.Thread(
                    target=self._flush_loop, name="repro-cache-put", daemon=True
                )
                self._flusher.start()
            self._queue_cv.notify_all()

    def _flush_loop(self) -> None:
        from ..server.protocol import message

        while True:
            with self._queue_cv:
                while not self._queue and not self._closed:
                    self._queue_cv.wait(timeout=0.5)
                if self._closed and not self._queue:
                    return
                entry = self._queue.popleft()
                self._inflight += 1
            try:
                reply = self._roundtrip(message("cache-put", entry=entry))
                stored = reply.get("type") == "cache-ok" and bool(reply.get("stored"))
            except OSError:
                stored = False
            with self._queue_cv:
                self._inflight -= 1
                if stored:
                    self.puts += 1
                else:
                    # Best-effort write-behind: the entry is already
                    # on the local disk tier; drop, count, move on.
                    self.put_errors += 1
                self._queue_cv.notify_all()

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until the write-behind queue drains (tests, CI barriers)."""
        import time

        deadline = time.monotonic() + timeout
        with self._queue_cv:
            while self._queue or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._queue_cv.wait(timeout=remaining)
        return True

    # -- bookkeeping -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._queue_cv:
            return {
                "address": f"{self.host}:{self.port}",
                "pending_puts": len(self._queue) + self._inflight,
                "puts": self.puts,
                "put_errors": self.put_errors,
            }

    def close(self) -> None:
        with self._queue_cv:
            self._closed = True
            self._queue_cv.notify_all()
        flusher = self._flusher
        if flusher is not None and flusher.is_alive():
            flusher.join(timeout=2.0)
        with self._io_lock:
            self._drop_connection()
