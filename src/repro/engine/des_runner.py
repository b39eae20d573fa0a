"""Request-level discrete-event engine (processor sharing).

Every process issues its transfers one at a time, exactly as IOR's
blocking POSIX writes do: a 1 MiB transfer splits into its chunk
extents (with 512 KiB chunks, two extents on two different targets),
the extents progress concurrently under max-min fair processor sharing
of the calibrated resources, and the process issues its next transfer
one request round-trip after the previous one completed.

This engine makes no fluid-scale approximations — no aggregate flows,
no latency *model* (latency is an explicit gap) — so it serves as the
ground truth against which the fluid engine is validated
(``tests/engine/test_cross_validation.py``).  The price is cost:
event count scales with the number of transfers, so use it with small
volumes (a guard raises beyond ``max_requests``).

Events are solved over **route classes**: every extent (one in-flight
chunk request) from one node to one target crosses the same resources.
A run builds one :class:`~repro.netsim.maxmin.MaxMinSolver` with a row
per class and solves each event with the classes' extent counts; the
members of a class share every step of the max-min fill, so a class's
rate is each member's rate bit for bit.

An event pays only for what changed since an earlier event of its run.
Each issue, finish, timeout and retry moves one class count by one, and
with it the extent count of each resource on the class's route and the
busy targets of the pools that count distinct targets (``_ClassState``);
only the resources it touched are looked at again.  A noise-scaled
provider ignores the time, so its capacity is memoized per run on
(resource, extent count, distinct targets); fault wrappers still run
every event.  A new noise epoch draws only for the resources the noise
model touches (``touches``, see :class:`~repro.netsim.fluid.NoiseModel`).  A counted solve is a pure function of the class counts and
the capacities, so it is memoized per run on those two, and an event
that repeats a pair reuses the rates.  An event whose fill reaches the
order-dependent force-freeze corner (the solve returns ``None``) is
solved per extent in active order with
:func:`~repro.netsim.maxmin.max_min_rates`, every time: that answer
depends on the extents' order, so it is never memoized.  Nothing is
kept across runs.  ``tests/engine/test_des_reference.py`` keeps the
per-extent loop as the reference the class loop must reproduce.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from bisect import bisect_right

from ..errors import ExperimentError, SimulationError
from ..telemetry.bus import get_bus
from ..telemetry.profiling import get_profiler

if TYPE_CHECKING:  # pragma: no cover
    from ..verify.invariants import RuntimeChecker
from ..netsim.fluid import FlowTraceEvent, ResourceContext, _touched_resources
from ..netsim.maxmin import MaxMinSolver, max_min_rates
from ..units import MiB
from ..workload.application import Application
from .base import EngineBase, PreparedRun, _metadata_overheads
from .result import ApplicationResult, RunResult

__all__ = ["DESEngine"]

_TIME_EPS = 1e-12
_BYTES_EPS = 1e-3
_RATE_EPS = 1e-9 * float(MiB)  # bytes/s below which a request is stalled
_UNSOLVED = object()  # a (counts, capacities) pair the run has not solved yet
# Solves a run keeps at most; past it the memo starts over.  An entry
# holds both vectors and the class rates, about 5 KiB at 32 nodes x 8
# targets, where no pair repeats; the paper-scale runs measured keep
# 70-2100 pairs.
_SOLVED_LIMIT = 4096


@dataclass
class _Proc:
    """One application process: its transfer stream and its state."""

    app_id: str
    rank: int
    transfers: "list[list[tuple[int, float]]]"  # per transfer: [(target, bytes)] per chunk
    next_transfer: int = 0
    outstanding: int = 0
    finished_at: float | None = None


class _ClassState:
    """Active extents per route class, and the provider inputs they set.

    ``counts[c]`` is the number of active extents of class ``c``.  Each
    :meth:`enter` or :meth:`leave` of a class also moves ``nflows``, the
    extent count of every resource on the class's route, and for each
    pool on the route that counts distinct targets, the pool's extents on
    the class's target and so its ``busy`` targets.  :meth:`take_touched`
    hands over the resources moved since its last call (all of them at
    first); no other resource's inputs can have changed.
    """

    def __init__(
        self,
        routes: list[tuple[int, ...]],
        class_targets: list[int],
        pools: set[int],
        nres: int,
    ) -> None:
        self.routes = routes
        self.counts = np.zeros(len(routes), dtype=np.intp)
        self.nflows = [0] * nres
        self.busy = [0] * nres
        # One counter per (pool, target): the pool's extents on the target.
        slot_of: dict[tuple[int, int], int] = {}
        self._slots = [
            [(i, slot_of.setdefault((i, target), len(slot_of))) for i in route if i in pools]
            for route, target in zip(routes, class_targets)
        ]
        self._on_target = [0] * len(slot_of)
        self._touched = set(range(nres))

    def enter(self, c: int) -> None:
        self.counts[c] += 1
        route = self.routes[c]
        nflows = self.nflows
        for i in route:
            nflows[i] += 1
        self._touched.update(route)
        on_target = self._on_target
        for i, slot in self._slots[c]:
            if not on_target[slot]:
                self.busy[i] += 1
            on_target[slot] += 1

    def leave(self, c: int) -> None:
        self.counts[c] -= 1
        route = self.routes[c]
        nflows = self.nflows
        for i in route:
            nflows[i] -= 1
        self._touched.update(route)
        on_target = self._on_target
        for i, slot in self._slots[c]:
            on_target[slot] -= 1
            if not on_target[slot]:
                self.busy[i] -= 1

    def distinct(self, i: int) -> int:
        """Busy targets of resource ``i``; 1 without a distinct tag or when idle."""
        return max(self.busy[i], 1)

    def take_touched(self) -> set[int]:
        touched, self._touched = self._touched, set()
        return touched


class DESEngine(EngineBase):
    """Request-level cross-validation engine."""

    max_requests = 120_000
    # Per-process start skew; see the arrival-heap comment in _integrate.
    startup_jitter_s = 0.002

    def run(self, apps: list[Application] | tuple[Application, ...], rep: int = 0) -> RunResult:
        prepared = self.prepare(apps, rep)
        procs = self._build_procs(prepared)
        total_transfers = sum(len(p.transfers) for p in procs)
        if total_transfers > self.max_requests:
            raise ExperimentError(
                f"DES run would issue {total_transfers} transfers "
                f"(> {self.max_requests}); reduce the data volume"
            )
        return self._integrate(prepared, procs, checker=self._make_checker(rep))

    # -- setup -----------------------------------------------------------------

    def _build_procs(self, prepared: PreparedRun) -> list[_Proc]:
        procs: list[_Proc] = []
        for app in prepared.apps:
            inodes = prepared.inodes[app.app_id]
            for rank in range(app.nprocs):
                inode = inodes[None] if None in inodes else inodes[rank]
                transfers: list[list[tuple[int, float]]] = []
                for tr in app.config.transfers(rank, app.nprocs):
                    # One concurrent chunk request per crossed chunk —
                    # BeeGFS issues chunk requests individually, so two
                    # requests to the *same* target still count twice
                    # toward its queue depth.
                    transfers.append(
                        [
                            (ext.target_id, float(ext.length))
                            for ext in inode.pattern.extents(tr.offset, tr.length)
                        ]
                    )
                procs.append(_Proc(app_id=app.app_id, rank=rank, transfers=transfers))
        return procs

    # -- the event loop ----------------------------------------------------------

    def _integrate(
        self,
        prepared: PreparedRun,
        procs: list[_Proc],
        checker: "RuntimeChecker | None" = None,
    ) -> RunResult:
        trace: list[FlowTraceEvent] = []
        try:
            with get_profiler().span("des.run"):
                return self._integrate_inner(prepared, procs, checker, trace)
        except Exception as exc:
            # No RunResult exists for a failed run: the retry/abandon
            # history rides on the exception so ProtocolRunner can
            # persist it into FailedRunRecord (see methodology.records).
            exc.flow_trace = tuple(e.to_dict() for e in trace)
            exc.flow_retries = sum(1 for e in trace if e.action == "retry")
            raise

    def _integrate_inner(
        self,
        prepared: PreparedRun,
        procs: list[_Proc],
        checker: "RuntimeChecker | None",
        trace: list[FlowTraceEvent],
    ) -> RunResult:
        bus = get_bus()
        prof = get_profiler()
        profiled = prof.enabled
        rids = list(prepared.providers)
        nres = len(rids)
        rid_index = {rid: i for i, rid in enumerate(rids)}
        providers = [prepared.providers[rid] for rid in rids]
        # Route classes: every extent from one node to one target crosses
        # the same resources, so one counted solver row stands for all of
        # them, and the active population is one count per class.
        keys = list(prepared.routes)
        class_of = {key: c for c, key in enumerate(keys)}
        routes = [tuple(rid_index[r] for r in prepared.routes[key]) for key in keys]
        solver = MaxMinSolver(routes, nres)
        # A distinct-tag provider counts the distinct targets among its
        # active extents, and each class has one target.
        pools = {i for i, p in enumerate(providers) if getattr(p, "distinct_tag", None) is not None}
        state = _ClassState(routes, [target for _, target in keys], pools, nres)
        counts, nflows = state.counts, state.nflows
        app_of = {app.app_id: app for app in prepared.apps}
        nodes = [app_of[proc.app_id].node_of_rank(proc.rank) for proc in procs]
        if checker is not None:
            checker.bind_resources(rids)
            for proc, node in zip(procs, nodes):
                for transfer in proc.transfers:
                    for target, nbytes in transfer:
                        checker.expect_bytes(routes[class_of[(node, target)]], nbytes)
        rtt = self.calibration.request_rtt_s

        noise = prepared.noise
        noise_rng = prepared.seeds.rng("noise")
        epoch_len = noise.epoch_length_s
        has_epochs = math.isfinite(epoch_len)
        multipliers = np.ones(nres)
        current_epoch = -1
        # Only the resources the noise model touches are drawn for, in
        # resource order; every other multiplier stays 1.0.
        touched = _touched_resources(noise, rids)

        def resample(epoch: int) -> None:
            nonlocal current_epoch
            if epoch == current_epoch:
                return
            current_epoch = epoch
            for i, rid in touched:
                multipliers[i] = noise.multiplier(rid, epoch, noise_rng)

        # Noise-scaled providers fold into ``base * multipliers`` (bit for
        # bit, see CapacityProvider).  They ignore the time and here
        # ``depth == nflows``, so a base entry is a function of (resource,
        # nflows, distinct), memoized for the run and looked up only for
        # resources whose inputs moved.  The rest (fault wrappers, which
        # read ``ctx.time``) are called every event.
        folded = {i for i, p in enumerate(providers) if getattr(p, "noise_scaled", False)}
        dynamic = [i for i in range(nres) if i not in folded]
        base = np.zeros(nres)
        folded_capacity: dict[tuple[int, int, int], float] = {}

        def refresh_population(now: float) -> None:
            for i in state.take_touched() & folded:
                n, d = nflows[i], state.distinct(i)
                cap = folded_capacity.get((i, n, d))
                if cap is None:
                    cap = folded_capacity[i, n, d] = providers[i].capacity(
                        ResourceContext(now, float(n), n, 1.0, d)
                    )
                base[i] = cap

        def issue(p: int, fresh: list[tuple[int, float, int, int]]) -> None:
            proc = procs[p]
            transfer = proc.transfers[proc.next_transfer]
            proc.next_transfer += 1
            proc.outstanding += len(transfer)
            node = nodes[p]
            for target, nbytes in transfer:
                fresh.append((class_of[(node, target)], float(nbytes), p, 0))

        def finish_request(p: int, now: float, seq: int) -> int:
            """Retire one outstanding chunk request (completed or abandoned)."""
            proc = procs[p]
            proc.outstanding -= 1
            if proc.outstanding == 0:
                if proc.next_transfer < len(proc.transfers):
                    heapq.heappush(arrivals, (now + rtt, seq, p))
                    seq += 1
                else:
                    proc.finished_at = now
            return seq

        def request_id(c: int, p: int) -> str:
            return f"{procs[p].app_id}:r{procs[p].rank}:t{keys[c][1]}"

        # Arrival heap: (time, seq, proc index) for the next transfer of a
        # process.  Two desynchronisation measures prevent an artefact
        # a fully deterministic DES would otherwise produce (every rank
        # stuck on the same stripe phase, hammering two targets at a
        # time — real ranks drift apart immediately through service
        # noise): each rank's transfer sequence is rotated to a random
        # starting phase (bandwidth-equivalent: same writes, different
        # order), and starts carry a tiny uniform jitter to break ties.
        jitter_rng = prepared.seeds.rng("des-startup-jitter")
        for proc in procs:
            if len(proc.transfers) > 1:
                cut = int(jitter_rng.integers(len(proc.transfers)))
                proc.transfers = proc.transfers[cut:] + proc.transfers[:cut]
        arrivals: list[tuple[float, int, int]] = []
        seq = 0
        for p, proc in enumerate(procs):
            start = app_of[proc.app_id].start_time
            if not proc.transfers:
                proc.finished_at = start
                continue
            jitter = float(jitter_rng.uniform(0.0, self.startup_jitter_s))
            heapq.heappush(arrivals, (start + jitter, seq, p))
            seq += 1

        retry = self.options.effective_retry()
        bounds = self._breakpoints()
        # Timed-out extents sleeping out a backoff:
        # (ready time, seq, (class, remaining bytes, proc index, timeouts)).
        retry_heap: list[tuple[float, int, tuple[int, float, int, int]]] = []
        lost_bytes: dict[str, float] = {}
        abandoned = 0

        # The active extents, one entry per in-flight chunk request, in
        # issue order: route class, remaining bytes, owning process, stall
        # clock (NaN while moving) and timeouts so far.
        ext_cls = np.zeros(0, dtype=np.intp)
        ext_rem = np.zeros(0)
        ext_owner = np.zeros(0, dtype=np.intp)
        ext_stall = np.zeros(0)
        ext_tries = np.zeros(0, dtype=np.intp)
        # Counted solves of this run by (class counts, capacities): a solve
        # is a pure function of the two and of this run's solver, so an
        # event that repeats a pair reuses its rates, ``None`` included.
        solved: dict[bytes, np.ndarray | None] = {}
        now = arrivals[0][0] if arrivals else 0.0
        segments = 0
        guard = 0
        max_iterations = 10 * self.max_requests + 1000
        while arrivals or ext_cls.size or retry_heap:
            guard += 1
            if guard > max_iterations:  # pragma: no cover - hard safety net
                raise SimulationError("DES engine exceeded its iteration budget")
            fresh: list[tuple[int, float, int, int]] = []
            while arrivals and arrivals[0][0] <= now + _TIME_EPS:
                issue(heapq.heappop(arrivals)[2], fresh)
            while retry_heap and retry_heap[0][0] <= now + _TIME_EPS:
                fresh.append(heapq.heappop(retry_heap)[2])
            if fresh:
                cls_new, rem_new, owner_new, tries_new = zip(*fresh)
                for c in cls_new:
                    state.enter(c)
                ext_cls = np.concatenate((ext_cls, cls_new))
                ext_rem = np.concatenate((ext_rem, rem_new))
                ext_owner = np.concatenate((ext_owner, owner_new))
                ext_stall = np.concatenate((ext_stall, np.full(len(fresh), np.nan)))
                ext_tries = np.concatenate((ext_tries, tries_new))
            if not ext_cls.size:
                next_times = [arrivals[0][0]] if arrivals else []
                if retry_heap:
                    next_times.append(retry_heap[0][0])
                now = min(next_times)
                continue

            epoch = int(now / epoch_len) if has_epochs else 0
            resample(epoch)

            refresh_population(now)
            capacities = base * multipliers
            for i in dynamic:
                n = nflows[i]
                capacities[i] = providers[i].capacity(
                    ResourceContext(now, float(n), n, multipliers[i], state.distinct(i))
                )
            key = counts.tobytes() + capacities.tobytes()
            class_rates = solved.get(key, _UNSOLVED)
            if class_rates is _UNSOLVED:
                if len(solved) == _SOLVED_LIMIT:
                    solved.clear()
                solve_t0 = perf_counter() if profiled else 0.0
                class_rates = solved[key] = solver.solve(capacities, counts=counts)
                if profiled:
                    prof.record("des.solve", perf_counter() - solve_t0)
            if class_rates is None:
                # The fill's force-freeze corner depends on the flows'
                # order: solve this event per extent, in active order.
                rates_mib = max_min_rates([routes[c] for c in ext_cls.tolist()], capacities)
            else:
                rates_mib = class_rates[ext_cls]
            rates = rates_mib * float(MiB)
            if retry is not None:
                # A zero-rate chunk request is making no progress: run
                # its stall clock; any progress clears it.
                ext_stall = np.where(
                    rates <= _RATE_EPS, np.where(np.isnan(ext_stall), now, ext_stall), np.nan
                )

            dt = math.inf
            moving = rates > 0
            if np.count_nonzero(moving):
                dt = min(dt, (ext_rem[moving] / rates[moving]).min())
            if arrivals:
                dt = min(dt, arrivals[0][0] - now)
            if has_epochs:
                dt = min(dt, (epoch + 1) * epoch_len - now)
            if bounds:
                nxt = bisect_right(bounds, now + _TIME_EPS)
                if nxt < len(bounds):
                    dt = min(dt, bounds[nxt] - now)
            if retry_heap:
                dt = min(dt, retry_heap[0][0] - now)
            if retry is not None:
                stalled = ext_stall[~np.isnan(ext_stall)]
                if stalled.size:
                    dt = min(dt, (stalled + retry.timeout_s - now).min())
            if not math.isfinite(dt) or dt < 0:
                raise SimulationError(f"DES engine stalled at t={now}")
            dt = max(dt, 0.0)

            if bus.debug:
                bus.emit(
                    "segment.solve", t=now, dt=float(dt), active=int(ext_cls.size), iterations=1
                )

            if checker is not None:
                checker.on_segment(
                    now,
                    dt,
                    capacities,
                    [routes[c] for c in ext_cls.tolist()],
                    rates_mib,
                    flow_labels=[
                        request_id(c, p) for c, p in zip(ext_cls.tolist(), ext_owner.tolist())
                    ],
                )

            now += dt
            segments += 1
            ext_rem = ext_rem - rates * dt
            done = ext_rem <= _BYTES_EPS
            leaving = done
            if retry is not None:
                timed_out = ~done & (now >= ext_stall + retry.timeout_s - _TIME_EPS)
                leaving = done | timed_out
            if not np.count_nonzero(leaving):
                continue
            # Retire in active order, as the heap's seq tie-breaks expect.
            for j in leaving.nonzero()[0].tolist():
                c, p = int(ext_cls[j]), int(ext_owner[j])
                state.leave(c)
                if done[j]:
                    seq = finish_request(p, now, seq)
                    continue
                # Chunk-request timeout: back off and retry, or drop the
                # request's remaining bytes once the budget is spent (the
                # run degrades to a partial result).
                attempts = int(ext_tries[j]) + 1
                remaining = ext_rem[j]
                flow_id = request_id(c, p)
                if attempts > retry.max_retries:
                    abandoned += 1
                    app_id = procs[p].app_id
                    lost_bytes[app_id] = lost_bytes.get(app_id, 0.0) + remaining
                    trace.append(FlowTraceEvent(now, flow_id, "abandon", attempts))
                    if bus.enabled:
                        bus.emit("flow.abandon", t=now, flow_id=flow_id, attempt=attempts)
                    if checker is not None:
                        checker.retract_bytes(routes[c], remaining)
                    seq = finish_request(p, now, seq)
                else:
                    trace.append(FlowTraceEvent(now, flow_id, "retry", attempts))
                    if bus.enabled:
                        bus.emit("flow.retry", t=now, flow_id=flow_id, attempt=attempts)
                    heapq.heappush(
                        retry_heap,
                        (now + retry.backoff_s(attempts), seq, (c, remaining, p, attempts)),
                    )
                    seq += 1
            keep = ~leaving
            ext_cls, ext_rem, ext_owner = ext_cls[keep], ext_rem[keep], ext_owner[keep]
            ext_stall, ext_tries = ext_stall[keep], ext_tries[keep]

        if checker is not None:
            checker.finish()

        if bus.enabled:
            bus.metrics.counter("engine.segments_solved", engine="des").inc(segments)
            bus.metrics.counter("engine.solver_iterations", engine="des").inc(segments)

        return self._collect(
            prepared,
            procs,
            segments,
            trace=trace,
            lost_bytes=lost_bytes,
            retries=sum(1 for e in trace if e.action == "retry"),
            abandoned=abandoned,
        )

    def _breakpoints(self) -> tuple[float, ...]:
        """Fault transition instants become extra segment boundaries."""
        if not self.options.faults_enabled:
            return ()
        schedule = self.options.fault_schedule
        if schedule is None:  # pragma: no cover - faults_enabled implies a schedule
            raise SimulationError("faults enabled without a fault schedule")
        return schedule.boundaries()

    def _collect(
        self,
        prepared: PreparedRun,
        procs: list[_Proc],
        segments: int,
        trace: list[FlowTraceEvent] | None = None,
        lost_bytes: dict[str, float] | None = None,
        retries: int = 0,
        abandoned: int = 0,
    ) -> RunResult:
        trace = trace or []
        lost_bytes = lost_bytes or {}
        servers = [h.host for h in prepared.hosts]
        meta_draw = _metadata_overheads(self.calibration, self.options, prepared)
        results = []
        for app in prepared.apps:
            meta = meta_draw(app.app_id)
            mine = [p for p in procs if p.app_id == app.app_id]
            unfinished = [f"r{p.rank}" for p in mine if p.finished_at is None]
            if unfinished:
                raise SimulationError(
                    f"DES run ended with unfinished processes of {app.app_id}: "
                    f"{', '.join(unfinished)}"
                )
            end = max(p.finished_at for p in mine)  # type: ignore[type-var]
            targets = prepared.app_targets[app.app_id]
            per_server = {s: 0 for s in servers}
            for tid in targets:
                per_server[prepared.target_host[tid]] += 1
            results.append(
                ApplicationResult(
                    app_id=app.app_id,
                    start_time=app.start_time,
                    end_time=float(end) + meta,
                    volume_bytes=float(app.total_bytes) - lost_bytes.get(app.app_id, 0.0),
                    num_nodes=app.num_nodes,
                    ppn=app.ppn,
                    stripe_count=prepared.app_stripe[app.app_id],
                    targets=targets,
                    placement=tuple(sorted(per_server.values())),
                )
            )
        return RunResult(
            apps=tuple(results),
            segments=segments,
            resource_series={},
            fault_events=tuple(e.to_dict() for e in trace),
            retries=retries,
            abandoned_flows=abandoned,
        )
