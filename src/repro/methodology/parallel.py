"""Parallel campaign execution with serial-identical results, supervised.

The engines honour one contract the whole methodology layer is built
on: *the repetition index fully determines a run's randomness*.  Runs
therefore need no shared state, and a campaign is an embarrassingly
parallel bag of (spec, rep) pairs.  :class:`ParallelProtocolRunner`
exploits exactly that — and nothing more.  It does not walk the plan:
:meth:`~repro.methodology.runner.ProtocolRunner.run` is the one walk at
every worker count, and this module only changes where the outcome of a
run comes from:

* prefetched cache hits still resolve inline in the parent, at their
  merge position; every other pending (spec, rep) pair is executed in
  a supervised worker process (raw :mod:`multiprocessing` workers, one
  duplex pipe each), and the walk waits for its reply by ordinal;
  dispatch is *batched*: each message hands a worker a chunk of runs
  (sized adaptively from queue depth and worker count, specs deduped
  per batch) instead of one, so per-run IPC and scheduling overhead is
  amortised across the chunk;
* results do not travel over the pipe: workers append each outcome as
  a length-prefixed pickle frame to a per-batch spool file (flushed
  before the ``prog`` progress marker is sent), and the parent reads
  complete frames incrementally — a worker killed mid-batch loses only
  its unfinished runs, finished frames are salvaged from the spool;
* the walk merges every outcome **in protocol order**, so the resulting
  :class:`~repro.methodology.records.RecordStore` — records, simulated
  wall clock, block indices, checkpoints — is byte-identical to a
  serial campaign's, and replay fingerprints match; failure policies,
  checkpointing, journaling, tracing and :meth:`resume` are the serial
  runner's by construction.

On top of that contract sits the supervision layer of
:mod:`repro.orchestrator`:

* workers send heartbeats on their pipe; a watchdog in the parent kills
  workers whose current run exceeds the per-run wall-clock timeout or
  whose heartbeats stop (frozen/stopped process), and respawns them;
* a run interrupted by an *infrastructure* fault — worker death,
  timeout, stall — is requeued with exponential backoff + deterministic
  jitter under a bounded retry budget, then quarantined as a structured
  ``WorkerCrashed``/``WorkerTimeout``/``WorkerStalled`` failure subject
  to the normal ``on_error`` policy.  Exceptions *raised by the
  executor* are never retried here: application failures keep their
  existing exactly-once semantics;
* dispatch is admission-controlled to a bounded window ahead of the
  merge frontier, so a slow run applies backpressure instead of letting
  completed-but-unmergeable results pile up without bound;
* with a ``checkpoint_path``, dispatch leases each batch's jobs in the
  campaign's :class:`~repro.orchestrator.queue.DurableJobQueue` with one
  fsync, and SIGINT/SIGTERM stop dispatch and drain in-flight work
  before the walk checkpoints and raises
  :class:`~repro.errors.CampaignInterrupted`.

Workers run with a fresh, parent-independent telemetry bus: engine
events are captured in an in-memory ring, shipped back with the
outcome, and re-emitted by the parent tagged with a dense ``worker``
id, bracketed by ``worker.start``/``worker.end`` events carrying the
(spec, rep, seed) triple.  Worker metrics registries are folded into
the parent registry at merge time.

Worker processes are started with the ``fork`` method where available
(process arguments are inherited, not pickled, so closure-based
executors work); (spec, rep) task arguments and outcomes cross the
pipe's pickling boundary.  An executor whose results cannot be pickled
surfaces as a structured failed outcome, subject to the normal
``on_error`` policy.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import shutil
import signal
import struct
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Iterator

from ..errors import ExperimentError
from ..orchestrator.interrupts import pending_signal
from ..orchestrator.supervise import SupervisionPolicy
from ..telemetry.bus import RUN_RING_CAPACITY, EventBus, RingBufferSink, get_bus, set_bus
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.profiling import SpanProfiler, get_profiler, set_profiler
from .plan import ExperimentSpec, PlannedRun
from .runner import Executor, ProtocolRunner, RunOutcome, execute_outcome

__all__ = ["ParallelProtocolRunner"]

# Module-level worker state, populated by the worker initializer.
_WORKER: dict[str, Any] = {}

# Infra fault reason -> the structured error type it quarantines as.
_INFRA_ERROR_TYPES = {
    "worker-died": "WorkerCrashed",
    "timeout": "WorkerTimeout",
    "stalled": "WorkerStalled",
}


@dataclass
class _WorkerReply:
    """One executed run, as shipped back from a worker process."""

    pid: int
    elapsed_s: float
    outcome: RunOutcome
    events: list[dict[str, Any]] = field(default_factory=list)
    metrics: MetricsRegistry | None = None
    # Result-cache tally delta of this run (hits/misses in the worker
    # are invisible to the parent's module counters otherwise).
    cache_stats: dict[str, int] = field(default_factory=dict)


def _worker_init(executor: Executor, level: str, capture: bool) -> None:
    """Initialise one worker process: own bus, own profiler, the executor.

    The forked child inherits the parent's process-wide bus *object* —
    including any open JSONL sinks — so the very first thing a worker
    does is install a fresh bus; engine events land in a private ring
    (when the parent session captures telemetry at all) and are shipped
    back with each outcome instead of racing the parent's sinks.
    """
    bus = EventBus(level=level)
    if capture:
        bus.ring = bus.attach(RingBufferSink(RUN_RING_CAPACITY))
    set_bus(bus)
    set_profiler(SpanProfiler(enabled=False))
    _WORKER["executor"] = executor


def _worker_run(spec: ExperimentSpec, rep: int) -> _WorkerReply:
    """Execute one (spec, rep) pair in this worker and package the outcome."""
    from .. import service as _service

    bus = get_bus()
    ring = bus.ring
    if ring is not None:
        ring._buffer.clear()
        bus.metrics = MetricsRegistry()
    before = _service.cache_stats()
    start = time.perf_counter()
    outcome = execute_outcome(_WORKER["executor"], spec, rep)
    elapsed = time.perf_counter() - start
    after = _service.cache_stats()
    # Exceptions are not reliably picklable; the structured fields of
    # the outcome carry everything the parent's merge path needs.
    outcome.exception = None
    return _WorkerReply(
        pid=os.getpid(),
        elapsed_s=elapsed,
        outcome=outcome,
        events=ring.events if ring is not None else [],
        metrics=bus.metrics if ring is not None and len(bus.metrics) else None,
        cache_stats={
            k: after[k] - before.get(k, 0) for k in after if after[k] != before.get(k, 0)
        },
    )


def _supervised_main(
    conn: Any, executor: Executor, level: str, capture: bool, heartbeat_s: float
) -> None:
    """Worker process main loop: heartbeats + one batch of runs per request.

    SIGINT/SIGTERM are ignored — graceful shutdown is the parent's job
    (it drains and then closes the pipe).  A daemon thread sends a
    heartbeat every ``heartbeat_s`` even while a run executes (the GIL
    is released in the engine's numeric kernels and in sleep), so the
    parent can distinguish *slow* from *frozen*.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _worker_init(executor, level, capture)
    send_lock = threading.Lock()
    stop = threading.Event()
    pid = os.getpid()

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                with send_lock:
                    conn.send(("hb", pid))
            except (OSError, ValueError):
                return

    threading.Thread(target=_beat, daemon=True, name="heartbeat").start()
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            _, batch_id, spool_path, specs, jobs = message
            with open(spool_path, "wb") as spool:
                for ordinal, spec_key, rep in jobs:
                    reply = _worker_run(specs[spec_key], rep)
                    try:
                        payload = pickle.dumps(
                            (ordinal, reply), protocol=pickle.HIGHEST_PROTOCOL
                        )
                    except Exception as exc:
                        # The outcome could not cross the pickling
                        # boundary; spool a structured failure instead
                        # of dying silently.
                        fallback = _WorkerReply(
                            pid=pid,
                            elapsed_s=reply.elapsed_s,
                            outcome=RunOutcome(
                                error_type=type(exc).__name__, message=str(exc)
                            ),
                        )
                        payload = pickle.dumps(
                            (ordinal, fallback), protocol=pickle.HIGHEST_PROTOCOL
                        )
                    spool.write(struct.pack("<I", len(payload)))
                    spool.write(payload)
                    # Flush to the OS before announcing progress: if
                    # this process is killed right after, the parent
                    # still salvages every announced frame.
                    spool.flush()
                    with send_lock:
                        conn.send(("prog", batch_id, ordinal))
            with send_lock:
                conn.send(("bdone", batch_id, len(jobs)))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


def _pool_context() -> multiprocessing.context.BaseContext:
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return multiprocessing.get_context(method)


@dataclass
class _Task:
    """One schedulable (spec, rep) run and its supervision state."""

    ordinal: int
    planned: PlannedRun
    attempts: int = 0
    not_before: float = 0.0
    dispatched: bool = False


@dataclass
class _Batch:
    """A chunk of runs dispatched to one worker in a single message."""

    batch_id: int
    spool: Path
    tasks: dict[int, _Task]  # ordinal -> task; drained as frames land
    offset: int = 0  # bytes of the spool consumed so far
    completed: bool = False  # worker sent its bdone marker


@dataclass
class _WorkerHandle:
    """Parent-side view of one worker process."""

    process: Any
    conn: Any
    batch: _Batch | None = None
    dispatched_at: float = 0.0
    last_seen: float = 0.0
    broken: bool = False


class _Supervisor:
    """Dispatches tasks to worker processes and polices their liveness.

    It is the outcome source of :meth:`ProtocolRunner.run` for the runs
    that are not resolved inline: the walk asks :meth:`wait` for each
    run's reply by ordinal and merges it inside :meth:`replayed`.
    """

    def __init__(
        self,
        runner: "ParallelProtocolRunner",
        bus: Any,
        queue: Any,
        spool_dir: Path,
    ):
        self.runner = runner
        self.policy = runner.policy
        self.n_workers = runner.n_workers
        self.bus = bus
        self.queue = queue
        self.stats = runner.supervision_stats
        # Worker pid -> dense id, for the ``worker`` field of events.
        self.worker_ids: dict[int, int] = {}
        self.spool_dir = spool_dir
        self.ctx = _pool_context()
        self.window = self.policy.window_for(self.n_workers)
        self.workers: list[_WorkerHandle] = []
        self.tasks: dict[int, _Task] = {}
        self.pending: deque[_Task] = deque()
        self.delayed: list[_Task] = []
        self.requeue_ready: list[_Task] = []
        self.results: dict[int, _WorkerReply] = {}
        self.frontier = 0
        self.draining = False
        self.drain_signal: str | None = None
        self.next_batch = 0
        # Dispatch/transfer accounting, surfaced as
        # ``runner.transfer_stats`` for bench and ops tooling.
        self.transfer: dict[str, float] = {
            "batches": 0,
            "jobs": 0,
            "specs": 0,
            "frames": 0,
            "spool_bytes": 0,
            "dispatch_overhead_s": 0.0,
        }

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_supervised_main,
            args=(
                child_conn,
                self.runner.executor,
                self.bus.level,
                self.bus.enabled,
                self.policy.heartbeat_s,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            process=process, conn=parent_conn, last_seen=time.monotonic()
        )
        self.workers.append(handle)
        self.worker_ids.setdefault(process.pid, len(self.worker_ids))
        return handle

    def start(self, jobs: list[tuple[int, PlannedRun]]) -> None:
        """Queue the (ordinal, run) jobs and spawn workers for them."""
        for ordinal, planned in jobs:
            task = self.tasks[ordinal] = _Task(ordinal, planned)
            self.pending.append(task)
        for _ in range(min(self.n_workers, self._outstanding())):
            self._spawn()

    def _outstanding(self) -> int:
        return len(self.pending) + len(self.delayed) + len(self.requeue_ready)

    def _retire(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        if handle in self.workers:
            self.workers.remove(handle)
        self.stats["worker_deaths"] += 1

    def _maybe_respawn(self) -> None:
        if self.draining:
            return
        busy = sum(1 for h in self.workers if h.batch is not None)
        want = min(self.n_workers, busy + self._outstanding())
        while len(self.workers) < want:
            self._spawn()

    # -- message pump ------------------------------------------------------

    def _pump_messages(self, timeout: float = 0.05) -> None:
        conns = [h.conn for h in self.workers if not h.broken]
        if not conns:
            time.sleep(timeout)
            return
        try:
            ready = mp_connection.wait(conns, timeout)
        except OSError:
            return
        by_conn = {h.conn: h for h in self.workers}
        for conn in ready:
            handle = by_conn.get(conn)
            if handle is not None:
                self._drain_conn(handle)

    def _drain_conn(self, handle: _WorkerHandle) -> None:
        """Consume every buffered message on a worker's pipe."""
        while True:
            try:
                if handle.conn.closed or not handle.conn.poll():
                    return
                message = handle.conn.recv()
            except (EOFError, OSError):
                handle.broken = True
                return
            self._on_message(handle, message)

    def _on_message(self, handle: _WorkerHandle, message: Any) -> None:
        handle.last_seen = time.monotonic()
        kind = message[0]
        if kind == "hb":
            if self.bus.enabled:
                self.bus.emit("worker.heartbeat", pid=int(message[1]))
            return
        batch = handle.batch
        if batch is None or batch.batch_id != message[1]:
            return  # stale marker from a batch already salvaged
        if kind == "prog":
            # One more run's frame is durably spooled: reset the per-run
            # watchdog clock and collect what's ready.
            handle.dispatched_at = handle.last_seen
            self._collect(batch)
        elif kind == "bdone":
            batch.completed = True
            self._collect(batch)
            self._finish_batch(handle)

    def _collect(self, batch: _Batch) -> None:
        """Read every complete spool frame past the consumed offset.

        The spool is append-only and each frame is flushed before its
        ``prog`` marker, so a torn tail can only be the frame being
        written at the moment of a kill — parsing stops at the last
        complete frame and resumes from the same offset next time.
        """
        try:
            with open(batch.spool, "rb") as spool:
                spool.seek(batch.offset)
                data = spool.read()
        except OSError:
            return
        pos = 0
        while pos + 4 <= len(data):
            (length,) = struct.unpack_from("<I", data, pos)
            if pos + 4 + length > len(data):
                break
            try:
                ordinal, reply = pickle.loads(data[pos + 4 : pos + 4 + length])
            except Exception:
                break  # corrupt tail: salvage stops at the last good frame
            pos += 4 + length
            ordinal = int(ordinal)
            self.transfer["frames"] += 1
            self.transfer["spool_bytes"] += 4 + length
            batch.tasks.pop(ordinal, None)
            # A worker presumed dead may still have delivered: the reply
            # wins, any scheduled retry of the same run is dropped.
            if any(t.ordinal == ordinal for t in self.delayed):
                self.delayed = [t for t in self.delayed if t.ordinal != ordinal]
            if any(t.ordinal == ordinal for t in self.requeue_ready):
                self.requeue_ready = [
                    t for t in self.requeue_ready if t.ordinal != ordinal
                ]
            self.results[ordinal] = reply
        batch.offset += pos

    def _finish_batch(self, handle: _WorkerHandle) -> None:
        batch = handle.batch
        handle.batch = None
        if batch is None:
            return
        # A clean bdone with frames unaccounted for should not happen
        # (each frame is flushed before its marker); requeue leftovers
        # as an infra fault rather than losing them.
        if batch.tasks:
            now = time.monotonic()
            for task in sorted(batch.tasks.values(), key=lambda t: t.ordinal):
                if task.ordinal not in self.results:
                    self._infra_failure(task, "worker-died", now)
        try:
            batch.spool.unlink()
        except OSError:
            pass

    def _salvage(self, handle: _WorkerHandle, reason: str, now: float) -> None:
        """Recover a dead worker's batch: keep spooled runs, requeue the rest."""
        batch = handle.batch
        handle.batch = None
        if batch is None:
            return
        self._collect(batch)
        for task in sorted(batch.tasks.values(), key=lambda t: t.ordinal):
            if task.ordinal not in self.results:
                self._infra_failure(task, reason, now)
        try:
            batch.spool.unlink()
        except OSError:
            pass

    # -- fault handling ----------------------------------------------------

    def _infra_failure(self, task: _Task, reason: str, now: float) -> None:
        """A run was interrupted by infrastructure: retry or quarantine."""
        task.attempts += 1
        task.dispatched = False
        key = task.planned.spec.key
        rep = task.planned.rep
        if task.attempts <= self.policy.max_retries:
            delay = self.policy.backoff_s(key, rep, task.attempts, self.runner.seed)
            task.not_before = now + delay
            self.delayed.append(task)
            self.stats["requeues"] += 1
            if self.queue is not None:
                self.queue.requeue(key, rep, attempt=task.attempts)
            if self.bus.enabled:
                self.bus.metrics.counter("orchestrator.requeues", reason=reason).inc()
                self.bus.emit(
                    "orchestrator.requeue",
                    spec=key,
                    rep=rep,
                    attempt=task.attempts,
                    reason=reason,
                    delay_s=float(delay),
                )
            return
        self.stats["quarantines"] += 1
        budget = self.policy.max_retries
        detail = {
            "worker-died": "worker process died",
            "timeout": f"run exceeded the {self.policy.run_timeout_s:g}s timeout",
            "stalled": "worker heartbeats stopped",
        }[reason]
        self.results[task.ordinal] = _WorkerReply(
            pid=0,
            elapsed_s=0.0,
            outcome=RunOutcome(
                error_type=_INFRA_ERROR_TYPES[reason],
                message=f"{detail}; retry budget exhausted "
                f"({task.attempts} attempts, {budget} retries allowed)",
            ),
        )
        if self.bus.enabled:
            self.bus.metrics.counter("orchestrator.quarantines").inc()
            self.bus.emit(
                "orchestrator.quarantine",
                spec=key,
                rep=rep,
                attempts=task.attempts,
                reason=reason,
            )

    def _reap_dead(self, now: float) -> None:
        for handle in list(self.workers):
            if not handle.broken and handle.process.is_alive():
                continue
            # Consume progress markers buffered before death, then
            # salvage finished frames straight from the spool file.
            self._drain_conn(handle)
            self._salvage(handle, "worker-died", now)
            self._retire(handle)
        self._maybe_respawn()

    def _watchdog(self, now: float) -> None:
        for handle in list(self.workers):
            if handle.batch is None:
                continue
            # ``dispatched_at`` resets at every ``prog`` marker, so the
            # timeout stays a *per-run* wall-clock ceiling even when
            # runs travel in batches.
            if now - handle.dispatched_at > self.policy.run_timeout_s:
                reason = "timeout"
            elif now - handle.last_seen > self.policy.stall_threshold_s:
                reason = "stalled"
            else:
                continue
            handle.process.kill()
            self._drain_conn(handle)
            self._salvage(handle, reason, now)
            self._retire(handle)
        self._maybe_respawn()

    # -- scheduling --------------------------------------------------------

    def _promote_delayed(self, now: float) -> None:
        still: list[_Task] = []
        for task in self.delayed:
            if task.ordinal in self.results:
                continue
            if now >= task.not_before:
                self.requeue_ready.append(task)
            else:
                still.append(task)
        self.delayed = still
        self.requeue_ready.sort(key=lambda t: t.ordinal)

    def _next_task(self) -> _Task | None:
        if self.requeue_ready:
            return self.requeue_ready.pop(0)
        while self.pending:
            task = self.pending[0]
            if task.ordinal in self.results:
                self.pending.popleft()
                continue
            if task.ordinal >= self.frontier + self.window:
                return None  # admission control: stay near the frontier
            return self.pending.popleft()
        return None

    def _chunk_size(self) -> int:
        """Runs per batch, adapted to queue depth and worker count.

        A deep queue earns big chunks (per-run dispatch overhead is
        amortised); near the end of the campaign the chunk shrinks
        toward 1 so the stragglers spread across workers instead of
        queueing behind one.
        """
        outstanding = self._outstanding()
        if outstanding <= 0:
            return 1
        target = math.ceil(outstanding / (self.n_workers * 4))
        return max(1, min(target, self.policy.max_batch, self.window))

    def _send_batch(self, handle: _WorkerHandle, tasks: list[_Task], now: float) -> None:
        started = time.perf_counter()
        self.next_batch += 1
        batch_id = self.next_batch
        spool = self.spool_dir / f"batch-{batch_id:06d}.bin"
        # Ship each distinct spec once per batch; jobs reference it by
        # key.  Same-spec runs execute back to back inside the batch so
        # the worker's engine-context cache stays warm (merge order is
        # by ordinal, so execution order within a batch is free).
        specs: dict[str, ExperimentSpec] = {}
        jobs: list[tuple[int, str, int]] = []
        for task in sorted(tasks, key=lambda t: (t.planned.spec.key, t.planned.rep)):
            specs.setdefault(task.planned.spec.key, task.planned.spec)
            jobs.append((task.ordinal, task.planned.spec.key, task.planned.rep))
        batch = _Batch(
            batch_id=batch_id, spool=spool, tasks={t.ordinal: t for t in tasks}
        )
        try:
            handle.conn.send(("batch", batch_id, str(spool), specs, jobs))
        except (OSError, ValueError):
            # Worker already gone; let the reaper requeue the batch.
            handle.broken = True
            handle.batch = batch
            for task in tasks:
                task.dispatched = True
            return
        for task in tasks:
            task.dispatched = True
        handle.batch = batch
        handle.dispatched_at = now
        handle.last_seen = now
        if self.queue is not None:
            self.queue.lease_many(
                [(t.planned.spec.key, t.planned.rep) for t in tasks]
            )
        self.transfer["batches"] += 1
        self.transfer["jobs"] += len(jobs)
        self.transfer["specs"] += len(specs)
        self.transfer["dispatch_overhead_s"] += time.perf_counter() - started
        if self.bus.enabled:
            worker = self.worker_ids.get(handle.process.pid, 0)
            self.bus.emit(
                "orchestrator.batch",
                batch=batch_id,
                size=len(jobs),
                specs=len(specs),
                worker=worker,
            )
            for task in tasks:
                self.bus.emit(
                    "orchestrator.dispatch",
                    spec=task.planned.spec.key,
                    rep=task.planned.rep,
                    attempt=task.attempts,
                    worker=worker,
                    batch=batch_id,
                )

    def _dispatch(self, now: float) -> None:
        if self.draining:
            return
        for handle in self.workers:
            if handle.batch is not None or handle.broken:
                continue
            chunk = self._chunk_size()
            tasks: list[_Task] = []
            while len(tasks) < chunk:
                task = self._next_task()
                if task is None:
                    break
                tasks.append(task)
            if not tasks:
                return
            self._send_batch(handle, tasks, now)

    def _check_interrupt(self) -> None:
        if self.draining:
            return
        sig = pending_signal()
        if sig is None:
            return
        self.draining = True
        self.drain_signal = sig
        if self.bus.enabled:
            self.bus.emit(
                "orchestrator.drain",
                signal=sig,
                pending=self._outstanding(),
                inflight=sum(
                    len(h.batch.tasks) for h in self.workers if h.batch is not None
                ),
            )

    def tick(self) -> None:
        """One supervision round: pump, reap, police, promote, dispatch."""
        self._check_interrupt()
        self._pump_messages()
        now = time.monotonic()
        self._reap_dead(now)
        self._watchdog(now)
        self._promote_delayed(now)
        self._dispatch(now)
        self._maybe_respawn()

    # -- the outcome source ------------------------------------------------

    def wait(self, ordinal: int) -> _WorkerReply | None:
        """Supervise until the reply for ``ordinal`` lands.

        Every ordinal below it has been merged, which is the frontier
        admission control keeps dispatch near.  Returns None once a
        drain leaves nothing in flight that could still produce it.
        """
        self.frontier = ordinal
        task = self.tasks[ordinal]
        while True:
            reply = self.results.pop(ordinal, None)
            if reply is not None:
                return reply
            if self.draining and not task.dispatched:
                return None
            self.tick()

    @contextmanager
    def replayed(self, reply: _WorkerReply, planned: PlannedRun) -> Iterator[RunOutcome]:
        """A worker's outcome, merged between ``worker.start``/``worker.end``.

        The worker's captured engine events are replayed in between,
        tagged with its dense ``worker`` id, and its metrics, cache tally
        and execution time are folded into the parent's.
        """
        from .. import service as _service

        bus = self.bus
        worker = self.worker_ids.setdefault(reply.pid, len(self.worker_ids))
        attribution = {
            "worker": worker,
            "spec": planned.spec.key,
            "rep": planned.rep,
            "seed": self.runner.seed,
        }
        if reply.cache_stats:
            _service.add_cache_stats(reply.cache_stats)
        if bus.enabled:
            bus.emit("worker.start", **attribution)
            bus.replay(reply.events, worker=worker)
            if reply.metrics is not None:
                bus.metrics.merge(reply.metrics)
        get_profiler().record("executor.run", reply.elapsed_s)
        outcome = reply.outcome
        yield outcome
        if bus.enabled:
            status = "ok" if outcome.ok else ("quarantined" if outcome.violation else "failed")
            bus.emit(
                "worker.end", **attribution, status=status, elapsed_s=float(reply.elapsed_s)
            )

    def shutdown(self) -> None:
        for handle in list(self.workers):
            try:
                handle.conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for handle in list(self.workers):
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self.workers.clear()


class ParallelProtocolRunner(ProtocolRunner):
    """A :class:`ProtocolRunner` whose cache misses run in supervised workers."""

    def __init__(
        self,
        executor: Executor,
        n_workers: int | None = None,
        on_error: str = "fail",
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 10,
        on_violation: str = "skip",
        seed: int | None = None,
        policy: SupervisionPolicy | None = None,
    ):
        super().__init__(
            executor,
            on_error=on_error,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            on_violation=on_violation,
        )
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ExperimentError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        # Attribution seed for worker.start/worker.end events; defaults
        # to the executor's campaign seed when it exposes one.
        self.seed = int(seed if seed is not None else getattr(executor, "seed", 0) or 0)
        self.policy = policy if policy is not None else SupervisionPolicy()
        # Batched-dispatch accounting from the last run(): batches/jobs
        # dispatched, spool frames/bytes transferred, and the
        # parent-side dispatch overhead in seconds.
        self.transfer_stats: dict[str, float] = {}

    @contextmanager
    def _worker_pool(
        self, jobs: list[tuple[int, PlannedRun]], queue: Any, bus: Any
    ) -> Iterator[_Supervisor]:
        spool_dir = Path(tempfile.mkdtemp(prefix="repro-spool-"))
        supervisor = _Supervisor(self, bus, queue, spool_dir)
        try:
            supervisor.start(jobs)
            yield supervisor
        finally:
            supervisor.shutdown()
            self.transfer_stats = dict(supervisor.transfer)
            shutil.rmtree(spool_dir, ignore_errors=True)
