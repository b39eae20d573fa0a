"""The orchestrator server: request router, durable job table, workers.

:class:`OrchestratorServer` is a threaded TCP server fronting the
existing :class:`~repro.service.SimulationService` behind the durable
job queue and the content-addressed result cache.  Its contract:

**Idempotent admission.**  A job's identity is ``(spec fingerprint,
rep)``.  The first submit admits it (one ``server.admit`` event, one
journaled ``enqueue``); every resubmission of the same identity —
client retry, second client, post-crash replay — attaches to the
existing job.  Finished jobs replay their result from the cache without
re-executing, so a duplicate submit is always safe and nearly free.

**Durability.**  Admitted jobs are journaled through the same WAL the
local campaign runner uses (``jobs.journal``), specs are persisted
under ``specs/<fingerprint>.json``, and results live in the result
cache — so a server killed mid-campaign restarts with its whole job
table intact: finished work replays, unfinished work re-executes, and
the resulting record store is byte-identical to an uninterrupted run.

**Bounded load.**  Admission control (see :mod:`.admission`) sheds
over-capacity and mid-drain submits with a ``busy`` frame carrying a
RetryAfter hint instead of queueing unboundedly.

**Graceful drain.**  ``SIGTERM``/``SIGINT`` stop admission, let leased
jobs finish, checkpoint state (the WAL is already on disk — drain just
finishes the in-flight tail), and exit 0.

Execution is serialized across worker threads by a process-wide lock:
the engine contexts and the service's breaker and tallies are not
thread-safe.  A job is one
:meth:`~repro.service.SimulationService.resolve` call under that lock,
so its cache probe, its engine run on a miss and its cache write are
serialized with the simulation.  Workers still matter — they pipeline
the journaled lease and done/failed writes, the lease and completion
events and the SLO accounting around the single execution stream,
while handler threads answer waits — but the simulation itself runs
one-at-a-time by design.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import socketserver
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..cache import validate_entry
from ..errors import ConfigError, ProtocolError
from ..orchestrator.queue import DurableJobQueue
from ..scenario import ScenarioSpec
from ..service import ResultCache, get_service
from ..telemetry.bus import get_bus
from ..telemetry.trace import TraceContext, span_id_for, trace_id_for, trace_scope
from .admission import AdmissionController, AdmissionPolicy
from .ops import MetricsServer, SLOPolicy, SLOTracker, prometheus_text
from .protocol import check_version, message, recv_frame, send_frame
from .sessions import SessionRegistry

__all__ = ["ServerConfig", "OrchestratorServer"]

# One simulation at a time, process-wide (see module doc).
_EXEC_LOCK = threading.Lock()


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` can tune.

    ``port=0`` binds an ephemeral port (the bound port is on
    :attr:`OrchestratorServer.port`).  ``io_timeout_s`` is the per-recv
    socket deadline — a client that dribbles bytes slower than this
    (slow-loris) is evicted, not waited on.  ``wait_cap_s`` bounds how
    long one ``wait`` request may park a handler thread before the
    client is told ``pending`` and re-polls.

    ``metrics_port`` (when not None) serves Prometheus text exposition
    on ``GET /metrics``; 0 binds an ephemeral port (bound port on
    :attr:`OrchestratorServer.metrics_port`).  The ``slo_*`` knobs
    parameterize the :class:`~repro.server.ops.SLOTracker`;
    ``slo_every`` is how many completions pass between ``server.slo``
    event emissions.
    """

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    max_pending: int = 64
    batch_headroom: float = 0.75
    retry_after_s: float = 0.25
    io_timeout_s: float = 10.0
    wait_cap_s: float = 30.0
    session_lease_s: float = 30.0
    metrics_port: int | None = None
    slo_queue_wait_p99_s: float = 2.0
    slo_max_shed_rate: float = 0.05
    slo_min_hit_ratio: float = 0.0
    slo_window: int = 128
    slo_every: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "state_dir", Path(self.state_dir))
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.io_timeout_s <= 0 or self.wait_cap_s <= 0:
            raise ConfigError("io_timeout_s and wait_cap_s must be > 0")
        if self.session_lease_s <= 0:
            raise ConfigError("session_lease_s must be > 0")
        if self.metrics_port is not None and self.metrics_port < 0:
            raise ConfigError("metrics_port must be >= 0")
        if self.slo_every < 1:
            raise ConfigError("slo_every must be >= 1")

    def slo_policy(self) -> SLOPolicy:
        """The SLO policy these knobs describe (validates them too)."""
        return SLOPolicy(
            queue_wait_p99_s=self.slo_queue_wait_p99_s,
            max_shed_rate=self.slo_max_shed_rate,
            min_hit_ratio=self.slo_min_hit_ratio,
            window=self.slo_window,
        )


@dataclass
class _Job:
    """One (fingerprint, rep) job's in-memory face."""

    fingerprint: str
    rep: int
    scenario: ScenarioSpec | None
    status: str = ""  # "" while pending, then "ok" | "failed"
    cached: bool = False
    error: str | None = None
    result: Any = None  # jsonable RunResult once finished
    events: list = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    # Deterministic distributed-trace id (trace_id_for(fingerprint, rep)
    # unless the submit frame carried one) and the monotonic clock at
    # admission, for the queue-wait measurement at lease time.
    trace: str = ""
    enqueued_at: float = 0.0

    @property
    def job_id(self) -> tuple[str, int]:
        return (self.fingerprint, self.rep)

    def span(self, name: str) -> TraceContext:
        """The context of one of this job's spans ("job" is the root)."""
        if name == "job":
            return TraceContext(self.trace, span_id_for(self.trace, "job"), None)
        return TraceContext(
            self.trace,
            span_id_for(self.trace, name),
            span_id_for(self.trace, "job"),
        )


def _emit(event: str, **fields: Any) -> None:
    bus = get_bus()
    if bus.enabled:
        bus.emit(event, **fields)


class OrchestratorServer(socketserver.ThreadingTCPServer):
    """The networked allocation service (see module doc for the contract)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServerConfig):
        self.config = config
        state = config.state_dir
        state.mkdir(parents=True, exist_ok=True)
        (state / "specs").mkdir(exist_ok=True)
        self.cache_dir = state / "cache"
        self._store = ResultCache(self.cache_dir)

        self._lock = threading.RLock()
        self._jobs: dict[tuple[str, int], _Job] = {}
        self._work: collections.deque[_Job] = collections.deque()
        self._work_cv = threading.Condition(self._lock)
        self._stopping = False
        self._drained = threading.Event()
        self._service_threads: list[threading.Thread] = []

        self.admission = AdmissionController(
            policy=AdmissionPolicy(
                max_pending=config.max_pending,
                batch_headroom=config.batch_headroom,
                retry_after_s=config.retry_after_s,
            )
        )
        self.sessions = SessionRegistry(
            state / "sessions.journal", lease_s=config.session_lease_s
        )
        self.queue = DurableJobQueue(state / "jobs.journal")

        # Ops surface: sliding-window SLO accounting, per-worker state,
        # lifetime cache tallies, and (optionally) a /metrics endpoint.
        self.slo = SLOTracker(config.slo_policy())
        self.worker_state: dict[str, str] = {}
        self._cache_tally = {"hits": 0, "misses": 0}
        # Remote-tier traffic (clients using this server as a shared
        # warm cache tier over cache-get/cache-put frames).
        self._remote_cache_tally = {
            "get_hits": 0,
            "get_misses": 0,
            "puts": 0,
            "put_errors": 0,
        }
        self._completions = 0
        self._metrics_server: MetricsServer | None = None

        super().__init__((config.host, config.port), _Handler)
        self._recover()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def metrics_port(self) -> int | None:
        """The bound /metrics port, when the exposition endpoint is on."""
        return self._metrics_server.port if self._metrics_server else None

    def _render_metrics(self) -> str:
        bus = get_bus()
        snapshot = bus.metrics.snapshot() if len(bus.metrics) else None
        return prometheus_text(self.stats(), snapshot)

    def start(self) -> "OrchestratorServer":
        """Recoveries done in ``__init__``; spawn workers and the reaper."""
        for i in range(self.config.workers):
            t = threading.Thread(
                target=self._worker, name=f"repro-worker-{i}", daemon=True
            )
            self.worker_state[t.name] = "idle"
            t.start()
            self._service_threads.append(t)
        if self.config.metrics_port is not None:
            self._metrics_server = MetricsServer(
                self.config.host, self.config.metrics_port, self._render_metrics
            )
        reaper = threading.Thread(target=self._reaper, name="repro-reaper", daemon=True)
        reaper.start()
        self._service_threads.append(reaper)
        _emit(
            "server.start",
            port=self.port,
            pid=os.getpid(),
            state_dir=str(self.config.state_dir),
        )
        bus = get_bus()
        if bus.enabled:
            bus.metrics.counter("server.start").inc()
        return self

    def request_drain(self, reason: str) -> None:
        """Stop admitting; finish leased jobs; then :meth:`wait_drained`."""
        with self._lock:
            if self.admission.draining:
                return
            self.admission.draining = True
            pending = len(self.admission.pending)
            self._work_cv.notify_all()
        _emit("server.drain", reason=reason, pending=pending)
        self._maybe_drained()

    def wait_drained(self, timeout: float | None = None) -> bool:
        return self._drained.wait(timeout)

    def close(self) -> None:
        """Stop threads and release journals (listening socket included)."""
        with self._lock:
            self._stopping = True
            self._work_cv.notify_all()
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        self.shutdown()
        self.server_close()
        for t in self._service_threads:
            t.join(timeout=5.0)
        with self._lock:
            self.queue.close()
            self.sessions.close_journal()

    def _maybe_drained(self) -> None:
        with self._lock:
            if self.admission.draining and not self.admission.pending:
                self._drained.set()

    # -- WAL recovery ------------------------------------------------------

    def _spec_path(self, fingerprint: str) -> Path:
        return self.config.state_dir / "specs" / f"{fingerprint}.json"

    def _persist_spec(self, scenario: ScenarioSpec) -> None:
        path = self._spec_path(scenario.fingerprint)
        if path.exists():
            return
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(scenario.to_jsonable(), handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _load_spec(self, fingerprint: str) -> ScenarioSpec | None:
        try:
            data = json.loads(self._spec_path(fingerprint).read_text())
            return ScenarioSpec.from_jsonable(data)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _recover(self) -> None:
        """Replay both WALs: pending jobs re-queue, finished jobs replay."""
        self.queue.open()
        self.sessions.load()
        for entry in self.queue.entries.values():
            job_id = (entry.key, entry.rep)
            scenario = self._load_spec(entry.key)
            # A recovered job resumes under the trace it was admitted
            # with; absent from the journal (older servers, trace-off
            # clients) the id re-derives identically from the identity.
            trace = entry.trace or trace_id_for(entry.key, entry.rep)
            if entry.state in ("queued", "leased"):
                if scenario is None:
                    # Spec never made it to disk (crash between journal
                    # and spec write is impossible — spec is persisted
                    # first — but a deleted specs dir is not).  The job
                    # cannot re-execute; surface it as failed.
                    self.queue.mark_failed(entry.key, entry.rep)
                    continue
                job = _Job(entry.key, entry.rep, scenario, trace=trace)
                job.enqueued_at = time.monotonic()
                self._jobs[job_id] = job
                self.admission.occupy(job_id)
                self._work.append(job)
            elif entry.state == "done":
                job = _Job(
                    entry.key, entry.rep, scenario, status="ok", cached=True, trace=trace
                )
                job.done.set()
                self._jobs[job_id] = job
            else:  # failed
                job = _Job(entry.key, entry.rep, scenario, status="failed", trace=trace)
                job.error = "quarantined by a previous server instance"
                job.done.set()
                self._jobs[job_id] = job

    # -- workers -----------------------------------------------------------

    def _worker(self) -> None:
        me = threading.current_thread().name
        while True:
            with self._work_cv:
                while not self._work and not self._stopping:
                    self._work_cv.wait(timeout=0.2)
                    if self._stopping and not self._work:
                        break
                if self._stopping and not self._work:
                    return
                job = self._work.popleft()
                self.queue.lease(job.fingerprint, job.rep)
                self.worker_state[me] = f"running {job.fingerprint[:10]}:{job.rep}"
            wait_s = (
                max(0.0, time.monotonic() - job.enqueued_at)
                if job.enqueued_at
                else None
            )
            self.slo.observe_queue_wait(wait_s or 0.0)
            bus = get_bus()
            # The lease ends the queue span: admission-to-lease is the
            # wait the SLO tracks, so the event carries it (machine
            # time rides the payload, like worker.end.elapsed_s).
            ctx = job.span("queue") if bus.tracing and job.trace else None
            with trace_scope(ctx):
                _emit(
                    "server.lease",
                    job=job.fingerprint,
                    rep=job.rep,
                    queue_wait_s=wait_s,
                )
            self._execute(job)
            with self._lock:
                self.worker_state[me] = "idle"
            self._maybe_drained()

    def _execute(self, job: _Job) -> None:
        scenario = job.scenario
        assert scenario is not None  # only spec-backed jobs reach the deque
        bus = get_bus()
        run_ctx = job.span("run") if bus.tracing and job.trace else None
        started = time.perf_counter()
        try:
            # The run span covers execution: with tracing on, the
            # service's cache probe and the engine's own events are all
            # stamped with this job's trace while we hold the scope.
            with trace_scope(run_ctx), _EXEC_LOCK:
                entry, cached = get_service().resolve(
                    scenario, job.rep, cache=True, cache_dir=self.cache_dir
                )
            job.result = entry["result"]
            job.events = list(entry.get("events", ()))
            job.status = "ok"
            job.cached = cached
        except Exception as exc:  # noqa: BLE001 — a job failure is data
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        with self._lock:
            if job.status == "ok":
                self.queue.mark_done(job.fingerprint, job.rep)
            else:
                self.queue.mark_failed(job.fingerprint, job.rep)
            self.admission.release(job.job_id)
            self._completions += 1
            self._cache_tally["hits" if job.cached else "misses"] += 1
            emit_slo = self._completions % self.config.slo_every == 0
        self.slo.observe_cache(job.cached)
        fields: dict[str, Any] = dict(
            job=job.fingerprint, rep=job.rep, status=job.status, cached=job.cached
        )
        if bus.tracing:
            # Machine time stays out of trace-off streams so they are
            # byte-for-byte what they were before tracing existed.
            fields["elapsed_s"] = elapsed
        with trace_scope(run_ctx):
            _emit("server.complete", **fields)
        if bus.enabled:
            bus.metrics.counter("server.complete", status=job.status).inc()
        if emit_slo:
            _emit("server.slo", **self.slo.evaluate())
        job.done.set()

    def _reaper(self) -> None:
        """Evict sessions whose lease lapsed (heartbeat silence)."""
        interval = max(0.05, self.config.session_lease_s / 4.0)
        while not self._stopping:
            time.sleep(interval)
            with self._lock:
                if self._stopping:
                    return
                lapsed = self.sessions.expire()
            for session in lapsed:
                _emit("server.session", action="expire", session=session.session_id)

    # -- request routing ---------------------------------------------------

    def dispatch(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        check_version(msg)
        mtype = msg.get("type")
        # Hyphenated frame types (cache-get, cache-put) map onto
        # underscore method names.
        handler = (
            getattr(self, f"_req_{mtype.replace('-', '_')}", None)
            if isinstance(mtype, str)
            else None
        )
        if mtype not in ("hello",) and isinstance(msg.get("session"), str):
            with self._lock:
                self.sessions.renew(msg["session"])
        if handler is None:
            raise ProtocolError(f"unknown request type {mtype!r}")
        return handler(msg, peer)

    def _req_hello(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        wanted = msg.get("session")
        with self._lock:
            session = None
            action = "open"
            if isinstance(wanted, str):
                session = self.sessions.resume(wanted)
                action = "resume"
            if session is None:
                session = self.sessions.open()
                action = "open"
        peer.session_id = session.session_id
        _emit("server.session", action=action, session=session.session_id)
        return message(
            "welcome", session=session.session_id, lease_s=self.sessions.lease_s
        )

    def _req_submit(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        try:
            scenario = ScenarioSpec.from_jsonable(msg["spec"])
            rep = int(msg["rep"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad submit: {exc}") from exc
        priority = msg.get("priority") or "batch"
        session_id = msg.get("session") or peer.session_id or "-"
        job_id = (scenario.fingerprint, rep)
        # The wire trace id is an optimization: absent (older clients,
        # trace-off runs) the server mints the identical id from the job
        # identity, so both sides always agree.
        wire_trace = msg.get("trace")
        trace = (
            wire_trace
            if isinstance(wire_trace, str) and wire_trace
            else trace_id_for(scenario.fingerprint, rep)
        )
        with self._lock:
            job = self._jobs.get(job_id)
            if job is not None:
                # Idempotent resubmission: attach to the existing job.
                state = job.status or ("queued" if not job.done.is_set() else "done")
                return message(
                    "accepted",
                    job=scenario.fingerprint,
                    rep=rep,
                    state=state,
                    trace=job.trace,
                )
            decision = self.admission.try_admit(job_id, priority)
            if not decision.admitted:
                pending = len(self.admission.pending)
            else:
                # Spec before journal: recovery can always re-execute
                # anything the WAL admits.
                self._persist_spec(scenario)
                self.queue.enqueue(scenario.fingerprint, rep, trace=trace)
                job = _Job(scenario.fingerprint, rep, scenario, trace=trace)
                job.enqueued_at = time.monotonic()
                self._jobs[job_id] = job
                self._work.append(job)
                self._work_cv.notify()
        self.slo.observe_admit(shed=not decision.admitted)
        bus = get_bus()
        if not decision.admitted:
            shed_ctx = (
                TraceContext(trace, span_id_for(trace, "job"), None)
                if bus.tracing
                else None
            )
            with trace_scope(shed_ctx):
                _emit(
                    "server.shed",
                    reason=decision.reason,
                    priority=priority if priority in ("interactive", "batch") else "batch",
                    retry_after_s=decision.retry_after_s,
                    pending=pending,
                )
            if bus.enabled:
                bus.metrics.counter("server.shed", reason=decision.reason).inc()
            return message(
                "busy", reason=decision.reason, retry_after_s=decision.retry_after_s
            )
        # Admission opens the queue span (the lease closes it).
        admit_ctx = job.span("queue") if bus.tracing else None
        with trace_scope(admit_ctx):
            _emit(
                "server.admit",
                job=scenario.fingerprint,
                rep=rep,
                priority=priority if priority in ("interactive", "batch") else "batch",
                session=str(session_id),
            )
        if bus.enabled:
            bus.metrics.counter("server.admit").inc()
        return message(
            "accepted", job=scenario.fingerprint, rep=rep, state="queued", trace=trace
        )

    def _result_frame(self, job: _Job) -> dict[str, Any]:
        if job.status == "ok" and job.result is None:
            # Recovered done job: replay lazily from the result cache.
            if job.scenario is not None:
                try:
                    entry = self._store.load(job.scenario, job.rep)
                except OSError:
                    entry = None
                if entry is not None:
                    job.result = entry["result"]
                    job.events = list(entry.get("events", ()))
            if job.result is None:
                return message(
                    "result",
                    job=job.fingerprint,
                    rep=job.rep,
                    status="failed",
                    cached=True,
                    error="result cache entry lost after restart",
                )
        return message(
            "result",
            job=job.fingerprint,
            rep=job.rep,
            status=job.status,
            cached=job.cached,
            result=job.result,
            events=job.events,
            error=job.error,
            trace=job.trace or None,
        )

    def _req_wait(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        try:
            fingerprint = str(msg["job"])
            rep = int(msg["rep"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad wait: {exc}") from exc
        timeout = min(
            float(msg.get("timeout_s") or self.config.wait_cap_s),
            self.config.wait_cap_s,
        )
        with self._lock:
            job = self._jobs.get((fingerprint, rep))
        if job is None:
            return message(
                "error", error="unknown-job", message=f"no job ({fingerprint}, {rep})"
            )
        if job.done.wait(timeout=timeout):
            return self._result_frame(job)
        return message("pending", job=fingerprint, rep=rep)

    def _req_ping(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        sid = msg.get("session")
        if isinstance(sid, str):
            _emit("server.session", action="renew", session=sid)
        return message("stats", **self.stats())

    def _req_stats(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        return message("stats", **self.stats())

    def _req_bye(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        sid = msg.get("session") or peer.session_id
        if isinstance(sid, str):
            with self._lock:
                closed = self.sessions.close(sid)
            if closed:
                _emit("server.session", action="close", session=sid)
        return message("bye")

    # -- the shared warm tier (sessionless cache frames) -------------------

    # Bound on keys per cache-get frame, slightly above the client's
    # batch size so a well-behaved RemoteTier never trips it.
    _MAX_CACHE_KEYS = 256

    def _req_cache_get(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        keys = msg.get("keys")
        if not isinstance(keys, list) or len(keys) > self._MAX_CACHE_KEYS:
            raise ProtocolError(
                f"cache-get needs a keys list of at most {self._MAX_CACHE_KEYS}"
            )
        revision = msg.get("model_revision")
        entries: list[dict[str, Any]] = []
        hits = 0
        misses = 0
        for key in keys:
            if not (isinstance(key, (list, tuple)) and len(key) == 3):
                raise ProtocolError("cache-get keys are [fingerprint, engine, rep]")
            fingerprint, engine, rep = key
            try:
                entry = self._store.load_key(
                    str(fingerprint),
                    str(engine),
                    int(rep),
                    model_revision=int(revision) if revision is not None else None,
                )
            except (OSError, TypeError, ValueError):
                entry = None
            if entry is not None:
                entries.append(entry)
                hits += 1
            else:
                misses += 1
        with self._lock:
            self._remote_cache_tally["get_hits"] += hits
            self._remote_cache_tally["get_misses"] += misses
        return message("cache-entries", entries=entries)

    def _req_cache_put(self, msg: dict[str, Any], peer: "_Handler") -> dict[str, Any]:
        entry = msg.get("entry")
        stored = False
        if isinstance(entry, dict) and validate_entry(
            entry, model_revision=entry.get("model_revision")
        ):
            try:
                self._store.store_entry(entry)
                stored = True
            except (OSError, ConfigError):
                stored = False
        with self._lock:
            self._remote_cache_tally["puts" if stored else "put_errors"] += 1
        return message("cache-ok", stored=stored)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            snapshot = {
                **self.admission.snapshot(),
                "sessions": len(self.sessions.sessions),
                "jobs": self.queue.counts(),
                "workers": dict(self.worker_state),
                "cache": dict(self._cache_tally),
                "remote_cache": dict(self._remote_cache_tally),
            }
        hits = snapshot["cache"]["hits"]
        total = hits + snapshot["cache"]["misses"]
        snapshot["cache"]["hit_ratio"] = hits / total if total else None
        snapshot["slo"] = self.slo.evaluate()
        return snapshot


class _Handler(socketserver.BaseRequestHandler):
    """One connection: a request/response loop over framed messages.

    Read-side defects close the connection (the peer is gone or
    garbling); request-level defects answer an ``error`` frame and keep
    the connection — the client's next request is independent.
    """

    server: OrchestratorServer
    session_id: str | None = None

    def handle(self) -> None:
        sock: socket.socket = self.request
        sock.settimeout(self.server.config.io_timeout_s)
        while True:
            try:
                msg = recv_frame(sock)
            except (ProtocolError, OSError):
                return  # torn frame, reset, or slow-loris timeout: evict
            if msg is None:
                return  # clean EOF
            try:
                reply = self.server.dispatch(msg, self)
            except ProtocolError as exc:
                reply = message("error", error="protocol", message=str(exc))
            except Exception as exc:  # noqa: BLE001 — never kill the acceptor
                reply = message("error", error=type(exc).__name__, message=str(exc))
            try:
                send_frame(sock, reply)
            except OSError:
                return
            if msg.get("type") == "bye":
                return
