"""Protocol runner: executes a plan block by block, resiliently.

The runner walks an :class:`~repro.methodology.plan.ExperimentPlan` in
its (shuffled) block order, maintains a simulated wall clock (run
durations plus the randomly drawn inter-block waits), and hands every
planned run to a caller-provided executor — typically a closure around
an engine built per experiment configuration.

The executor contract::

    executor(spec: ExperimentSpec, rep: int) -> RunResult

The repetition index fully determines the run's randomness (engines
seed their file system, chooser and noise from it), so records are
reproducible irrespective of block order — yet the protocol order and
waits are recorded, as the paper archives them.

Long campaigns on production systems fail partially: a run raises, a
node dies, the job hits its time limit.  The runner therefore supports

* ``on_error="skip"``: a raising run is quarantined as a
  :class:`~repro.methodology.records.FailedRunRecord` and the campaign
  continues (``"fail"``, the default, re-raises after checkpointing);
* ``on_violation="skip"`` (the default): a run that trips a
  :class:`~repro.errors.InvariantViolation` — a machine-checked model
  bug detected by a validating engine — is quarantined even under
  ``on_error="fail"``, so one corrupted point never aborts (or worse,
  silently pollutes) a paranoid campaign; ``"fail"`` re-raises;
* crash-safe checkpoints of the full store to ``checkpoint_path``
  (JSON, atomic replace): one after every ``checkpoint_every`` executed
  runs and a final one.  A crash loses at most ``checkpoint_every``
  executed runs; prefetched cache hits do not count, since any hit
  merged after the last checkpoint is re-served from the cache on
  resume;
* :meth:`resume`, which loads the checkpoint and re-executes only the
  (spec, rep) pairs that have no successful record yet — quarantined
  failures are retried, with the prior attempt's failure records
  archived to ``store.retried_failures`` rather than discarded.  A
  checkpoint holding runs outside the plan is refused.

:meth:`ProtocolRunner.run` is the only walk of the protocol, at every
worker count.  Where a run's :class:`RunOutcome` comes from is the one
thing that varies: serial runs (and prefetched cache hits at any worker
count) execute inline through :func:`execute_outcome`, while the
parallel runner (:mod:`repro.methodology.parallel`) plugs its worker
pool in as the source of the rest — outcomes are plain picklable data.
Either way the walk folds each outcome into the store with
:meth:`ProtocolRunner._merge`, in protocol order, so stores are
byte-identical whatever executed the runs.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from ..engine.result import RunResult
from ..errors import CampaignInterrupted, CheckpointError, ExperimentError, InvariantViolation
from ..orchestrator.interrupts import pending_signal
from ..orchestrator.queue import DurableJobQueue
from ..telemetry.bus import get_bus
from ..telemetry.profiling import get_profiler
from ..telemetry.trace import TraceContext, current_trace, root_context, trace_scope
from .plan import ExperimentPlan, ExperimentSpec, PlannedRun
from .records import FailedRunRecord, RecordStore, RunRecord

__all__ = ["ProtocolRunner", "RunOutcome", "execute_outcome"]

Executor = Callable[[ExperimentSpec, int], RunResult]

_ON_ERROR_POLICIES = ("fail", "skip")


@dataclass
class RunOutcome:
    """What executing one planned run produced.

    Either ``result`` is set (success) or the error fields describe the
    exception.  Everything except ``exception`` is plain picklable data,
    so outcomes cross process boundaries; ``exception`` is only set when
    the run executed in-process and lets the fail policy re-raise the
    original object.
    """

    result: RunResult | None = None
    error_type: str | None = None
    message: str = ""
    violation: bool = False
    retries: int = 0
    flow_trace: tuple[Mapping[str, Any], ...] = ()
    invalid: bool = False
    exception: BaseException | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.result is not None


def execute_outcome(executor: Executor, spec: ExperimentSpec, rep: int) -> RunOutcome:
    """Run one (spec, rep) through ``executor``, capturing the outcome."""
    prof = get_profiler()
    try:
        with prof.span("executor.run"):
            result = executor(spec, rep)
    except Exception as exc:
        return RunOutcome(
            error_type=type(exc).__name__,
            message=str(exc),
            violation=isinstance(exc, InvariantViolation),
            # Engines annotate exceptions with the run's retry trace
            # (there is no RunResult to carry it).
            retries=int(getattr(exc, "flow_retries", 0) or 0),
            flow_trace=tuple(getattr(exc, "flow_trace", ()) or ()),
            exception=exc,
        )
    if not isinstance(result, RunResult):
        return RunOutcome(
            error_type="ExperimentError",
            message=f"executor returned {type(result).__name__}, expected RunResult",
            invalid=True,
        )
    return RunOutcome(result=result)


class ProtocolRunner:
    """Walks a plan and collects records, surviving partial failures."""

    def __init__(
        self,
        executor: Executor,
        on_error: str = "fail",
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 10,
        on_violation: str = "skip",
    ):
        if on_error not in _ON_ERROR_POLICIES:
            raise ExperimentError(
                f"on_error must be one of {_ON_ERROR_POLICIES}, got {on_error!r}"
            )
        if on_violation not in _ON_ERROR_POLICIES:
            raise ExperimentError(
                f"on_violation must be one of {_ON_ERROR_POLICIES}, got {on_violation!r}"
            )
        if checkpoint_every < 1:
            raise ExperimentError("checkpoint_every must be >= 1")
        self.executor = executor
        self.on_error = on_error
        self.on_violation = on_violation
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.checkpoint_every = checkpoint_every
        # Orchestration counters, accumulated across run()/resume() calls:
        # requeues/quarantines/worker_deaths are written by the worker
        # pool, reclaimed by _open_queue at any worker count.
        self.supervision_stats: dict[str, int] = {
            "requeues": 0,
            "quarantines": 0,
            "worker_deaths": 0,
            "reclaimed": 0,
        }

    # -- checkpointing -----------------------------------------------------------

    def _open_queue(self) -> "DurableJobQueue | None":
        """The campaign's durable job queue, or None without a checkpoint.

        The journal lives next to the checkpoint (``<checkpoint>.journal``)
        so both artifacts of a campaign travel together.  Leases left by
        a dead owner are reclaimed on open and surfaced on the bus.
        """
        if self.checkpoint_path is None:
            return None
        queue = DurableJobQueue(Path(str(self.checkpoint_path) + ".journal"))
        queue.open()
        self.supervision_stats["reclaimed"] += len(queue.reclaimed)
        bus = get_bus()
        if bus.enabled:
            for entry in queue.reclaimed:
                bus.metrics.counter("orchestrator.reclaimed").inc()
                bus.emit(
                    "orchestrator.reclaim",
                    key=entry.key,
                    rep=entry.rep,
                    owner=entry.owner,
                )
        return queue

    def _checkpoint(self, store: RecordStore) -> None:
        if self.checkpoint_path is not None:
            store.write_json(self.checkpoint_path)
            bus = get_bus()
            if bus.enabled:
                bus.metrics.counter("runner.checkpoints").inc()
                bus.emit(
                    "checkpoint.write",
                    path=str(self.checkpoint_path),
                    records=len(store),
                    failures=len(store.failures),
                )

    def resume(self, plan: ExperimentPlan, progress: Callable[[str], None] | None = None) -> RecordStore:
        """Continue an interrupted campaign from its checkpoint.

        Already-recorded (spec, rep) pairs are skipped; quarantined
        failures are archived to ``store.retried_failures`` and
        re-executed (they get a second chance under the current
        ``on_error`` policy, and the prior attempt's failure history is
        preserved).  Without a checkpoint file the campaign simply
        starts from scratch.

        A checkpoint holding a run (recorded or quarantined) whose
        (spec key, rep) is not in ``plan`` was written by another
        campaign: it raises :class:`~repro.errors.CheckpointError`
        naming the file, which is left untouched, instead of merging
        the other campaign's runs into this store.

        A checkpoint that cannot be parsed — a torn write from a crash
        mid-replace, manual truncation, disk corruption — degrades to an
        empty store (every run re-executes) instead of raising: the
        checkpoint is an optimization over recomputation, never the only
        copy of the data.  The degradation is surfaced as a
        ``checkpoint.corrupt`` event and ``runner.checkpoint_corrupt``
        counter.
        """
        if self.checkpoint_path is None:
            raise ExperimentError("resume() needs a checkpoint_path")
        store = RecordStore()
        if self.checkpoint_path.exists():
            try:
                store = RecordStore.read_json(self.checkpoint_path)
            except CheckpointError as exc:
                bus = get_bus()
                if bus.enabled:
                    bus.metrics.counter("runner.checkpoint_corrupt").inc()
                    bus.emit(
                        "checkpoint.corrupt",
                        path=str(self.checkpoint_path),
                        error=str(exc),
                    )
                store = RecordStore()
            else:
                self._check_plan_owns(store, plan)
                store.archive_failures()
        return self.run(plan, progress=progress, resume_from=store)

    def _check_plan_owns(self, store: RecordStore, plan: ExperimentPlan) -> None:
        planned = {(p.spec.key, p.rep) for p in plan}
        held = store.completed_keys() | {(f.spec_key, f.rep) for f in store.failures}
        foreign = sorted(held - planned)
        if foreign:
            key, rep = foreign[0]
            raise CheckpointError(
                f"checkpoint {self.checkpoint_path} holds {len(foreign)} run(s) that "
                f"are not in this campaign's plan (first: {key} rep {rep}); "
                "it belongs to another campaign"
            )

    # -- outcome merging ----------------------------------------------------------

    def _trace_context(self, planned: PlannedRun) -> TraceContext | None:
        """The job's root trace context, or None with tracing off.

        The trace id derives from the compiled scenario fingerprint when
        the executor exposes its ``scenarios`` map (the service and
        remote executors both do) — which is what makes a local and a
        remote execution of the same job share one trace.  Executors
        without one fall back to the planned spec key, which is equally
        deterministic, just not comparable across executor kinds.
        """
        if not get_bus().tracing:
            return None
        identity = planned.spec.key
        scenarios = getattr(self.executor, "scenarios", None)
        if isinstance(scenarios, Mapping):
            fingerprint = getattr(scenarios.get(planned.spec.key), "fingerprint", None)
            if isinstance(fingerprint, str):
                identity = fingerprint
        return root_context(identity, planned.rep)

    def _emit_start(self, bus: Any, planned: PlannedRun, block_index: int, wall_clock: float) -> None:
        if bus.enabled:
            bus.emit(
                "run.start",
                t=wall_clock,
                exp_id=planned.spec.exp_id,
                scenario=planned.spec.scenario,
                spec=planned.spec.key,
                rep=planned.rep,
                block=block_index,
            )

    def _merge(
        self,
        store: RecordStore,
        planned: PlannedRun,
        block_index: int,
        wall_clock: float,
        outcome: RunOutcome,
        bus: Any,
    ) -> float:
        """Fold one outcome into the store; returns the new wall clock.

        Raises under the fail policies (after checkpointing), whether
        the outcome was executed inline or by a worker — one definition
        of what a run's outcome means.
        """
        if outcome.invalid:
            self._checkpoint(store)
            raise ExperimentError(outcome.message)
        if not outcome.ok:
            policy = self.on_violation if outcome.violation else self.on_error
            status = "quarantined" if outcome.violation else "failed"
            if bus.enabled:
                bus.metrics.counter("runner.runs", status=status).inc()
                bus.emit(
                    "run.end",
                    t=wall_clock,
                    exp_id=planned.spec.exp_id,
                    scenario=planned.spec.scenario,
                    spec=planned.spec.key,
                    rep=planned.rep,
                    block=block_index,
                    status=status,
                    bw_mib_s=None,
                    makespan_s=None,
                    retries=outcome.retries,
                    complete=False,
                    error_type=outcome.error_type,
                )
            if policy == "fail":
                self._checkpoint(store)
                if outcome.exception is not None:
                    raise outcome.exception
                raise ExperimentError(f"{outcome.error_type}: {outcome.message}")
            # Post-mortem dump: the flight recorder's recent events for
            # this job's trace (all recent events with tracing off), so
            # the quarantine record explains itself without the stream.
            last_events: tuple[Mapping[str, Any], ...] = ()
            flight = getattr(bus, "flight", None)
            if flight is not None:
                ctx = current_trace()
                last_events = tuple(
                    flight.for_trace(ctx.trace if ctx is not None else None, limit=64)
                )
            store.failures.append(
                FailedRunRecord(
                    exp_id=planned.spec.exp_id,
                    scenario=planned.spec.scenario,
                    rep=planned.rep,
                    factors=planned.spec.factors,
                    error_type=outcome.error_type or "Exception",
                    message=outcome.message,
                    wall_clock_s=wall_clock,
                    block=block_index,
                    retries=outcome.retries,
                    flow_trace=outcome.flow_trace,
                    last_events=last_events,
                )
            )
            return wall_clock
        result = outcome.result
        store.append(
            RunRecord.from_run_result(
                result,
                exp_id=planned.spec.exp_id,
                scenario=planned.spec.scenario,
                rep=planned.rep,
                factors=planned.spec.factors,
                wall_clock_s=wall_clock,
                block=block_index,
            )
        )
        wall_clock += float(result.makespan)
        if bus.enabled:
            bw = float(result.aggregate_bandwidth_mib_s)
            bus.metrics.counter("runner.runs", status="ok").inc()
            bus.metrics.histogram("run.bandwidth_mib_s").observe(bw)
            extra = {}
            if result.resource_series:
                extra["servers"] = {
                    rid: [[float(t), float(v)] for t, v in zip(ts.times, ts.values)]
                    for rid, ts in result.resource_series.items()
                }
            bus.emit(
                "run.end",
                t=wall_clock,
                exp_id=planned.spec.exp_id,
                scenario=planned.spec.scenario,
                spec=planned.spec.key,
                rep=planned.rep,
                block=block_index,
                status="ok",
                bw_mib_s=bw,
                makespan_s=float(result.makespan),
                retries=int(result.retries),
                complete=bool(result.complete),
                error_type=None,
                **extra,
            )
        return wall_clock

    # -- execution ----------------------------------------------------------------

    def _prefetch(self, pending: list[PlannedRun]) -> set[tuple[str, int]]:
        """Bulk-load cached results ahead of time; returns the staged keys.

        Executors that can (the service executor does) get the whole
        pending campaign in one call: one directory scan per fingerprint
        instead of one failed open per missing entry.  Per-run hit
        accounting still happens at each run's position in the schedule,
        so the event stream and cache tallies are byte-identical to the
        per-run path.
        """
        prefetch = getattr(self.executor, "prefetch", None)
        if not callable(prefetch) or not pending:
            return set()
        with get_profiler().span("runner.prefetch"):
            return set(prefetch([(planned.spec, planned.rep) for planned in pending]))

    def _worker_pool(
        self, jobs: list[tuple[int, PlannedRun]], queue: "DurableJobQueue | None", bus: Any
    ) -> AbstractContextManager[Any]:
        """The pool that executes ``jobs`` (ordinal, run) out of process.

        The serial runner has none — a pool of zero: every run executes
        in-process at its merge position.  The parallel runner returns
        its supervised workers here; the walk in :meth:`run` then waits
        for each job's reply by ordinal instead of executing it.
        """
        return nullcontext()

    @contextmanager
    def _inline(
        self, planned: PlannedRun, journal: "DurableJobQueue | None"
    ) -> Iterator[RunOutcome]:
        """Execute one run in-process, at its merge position.

        ``journal`` is the campaign queue for an executed run (leased
        before it runs) and None for a prefetched hit, which is never
        in flight.
        """
        if journal is not None:
            journal.lease(planned.spec.key, planned.rep)
        yield execute_outcome(self.executor, planned.spec, planned.rep)

    def run(
        self,
        plan: ExperimentPlan,
        progress: Callable[[str], None] | None = None,
        resume_from: RecordStore | None = None,
    ) -> RecordStore:
        """Execute every planned run, merging outcomes in protocol order.

        This is the one walk of the protocol, whatever executes the
        runs: serial runs and prefetched cache hits execute inline, a
        worker pool (see :meth:`_worker_pool`) supplies the outcomes of
        the rest.  With a ``checkpoint_path`` configured, every run the
        walk executes is journaled in a durable queue next to the
        checkpoint and its state transitions (lease → done/failed) are
        fsync'd, so a resumed campaign reclaims exactly the runs a dead
        owner had in flight.  Prefetched cache hits run no engine, are
        never in flight and stay out of the journal, so a fresh all-hit
        campaign never creates the journal.  They do not count toward
        ``checkpoint_every`` either: the store is checkpointed after
        every ``checkpoint_every`` successfully executed runs and once
        at the end, so a crash loses at most ``checkpoint_every``
        executed runs, and the hits merged since the last checkpoint
        are re-served from the cache on resume.  SIGINT/SIGTERM (when
        armed via :func:`repro.orchestrator.interrupts.handle_signals`)
        checkpoint and raise :class:`~repro.errors.CampaignInterrupted`
        between runs instead of tearing down mid-merge.
        """
        store = resume_from if resume_from is not None else RecordStore()
        recorded = store.completed_keys()
        # Reconstruct the simulated protocol clock while walking the
        # plan: skipped (already-recorded) runs advance it to their
        # recorded end, so post-resume records carry the exact clock a
        # fresh, uninterrupted campaign would have stamped.
        end_clocks = store.end_clocks()
        pending = [p for p in plan if (p.spec.key, p.rep) not in recorded]
        bus = get_bus()
        # Prefetched hits resolve inline at their merge position and are
        # never in flight: only the misses are journaled and handed to a
        # worker pool, numbered by their ordinal among the pending runs
        # (the merge order).
        hits = self._prefetch(pending)
        misses = [
            (ordinal, p)
            for ordinal, p in enumerate(pending)
            if (p.spec.key, p.rep) not in hits
        ]
        queue = self._open_queue()
        if queue is not None:
            queue.enqueue_many([(p.spec.key, p.rep) for _, p in misses])
        wall_clock = 0.0
        executed_since_checkpoint = 0
        ordinal = 0
        interrupted: str | None = None
        completed = False
        try:
            with self._worker_pool(misses, queue, bus) as pool:
                for block_index, (block, wait) in enumerate(zip(plan.blocks, plan.waits_s)):
                    block_ran = False
                    for planned in block:
                        key = (planned.spec.key, planned.rep)
                        if key in recorded:
                            # The original run advanced the clock (and
                            # its block waited); mirror both so pending
                            # runs resume at the fresh-campaign clock.
                            wall_clock = max(wall_clock, end_clocks[key])
                            block_ran = True
                            continue
                        hit = key in hits
                        # The queue journals executed runs only.
                        journal = None if hit else queue
                        reply = None
                        if pool is None or hit:
                            interrupted = pending_signal()
                        else:
                            reply = pool.wait(ordinal)
                            if reply is None:
                                interrupted = pool.drain_signal
                        if interrupted is not None:
                            break
                        ordinal += 1
                        block_ran = True
                        source = (
                            self._inline(planned, journal)
                            if reply is None
                            else pool.replayed(reply, planned)
                        )
                        with trace_scope(self._trace_context(planned)):
                            self._emit_start(bus, planned, block_index, wall_clock)
                            with source as outcome:
                                if journal is not None:
                                    # Close the lease before merging: the
                                    # merge may raise under a fail policy,
                                    # and a finished run's lease must not
                                    # read as a dead owner's on resume
                                    # (the store, not this record, says
                                    # what is still pending).
                                    if outcome.ok:
                                        journal.mark_done(*key)
                                    else:
                                        journal.mark_failed(*key)
                                wall_clock = self._merge(
                                    store, planned, block_index, wall_clock, outcome, bus
                                )
                        # Only executed runs count toward the cadence: a
                        # hit merged after the last checkpoint is
                        # re-served from the cache on resume.
                        if hit or not outcome.ok:
                            continue
                        executed_since_checkpoint += 1
                        if executed_since_checkpoint >= self.checkpoint_every:
                            self._checkpoint(store)
                            executed_since_checkpoint = 0
                    if interrupted is not None:
                        break
                    if block_ran:
                        wall_clock += wait
                    if progress is not None:
                        progress(
                            f"block {block_index + 1}/{len(plan.blocks)} done "
                            f"(wall clock {wall_clock / 60:.1f} min)"
                        )
            completed = interrupted is None
        finally:
            if queue is not None:
                queue.close(remove=completed)
        if interrupted is not None:
            self._checkpoint(store)
            raise CampaignInterrupted(
                interrupted,
                checkpoint=str(self.checkpoint_path)
                if self.checkpoint_path is not None
                else None,
            )
        self._checkpoint(store)
        return store
