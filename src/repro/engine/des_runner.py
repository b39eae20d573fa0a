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
rate is each member's rate bit for bit.  The counts change as extents
are issued, finish, time out and come back; per-resource extent counts
and distinct busy targets follow from them, and a noise-scaled
provider is re-evaluated only when those inputs change.  An event whose
fill reaches the order-dependent force-freeze corner is solved per
extent in active order with :func:`~repro.netsim.maxmin.max_min_rates`.
``tests/engine/test_des_reference.py`` keeps the per-extent loop as the
reference the class loop must reproduce.
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
from ..netsim.fluid import FlowTraceEvent, ResourceContext
from ..netsim.maxmin import MaxMinSolver, max_min_rates
from ..units import MiB
from ..workload.application import Application
from .base import EngineBase, PreparedRun, _metadata_overheads
from .result import ApplicationResult, RunResult

__all__ = ["DESEngine"]

_TIME_EPS = 1e-12
_BYTES_EPS = 1e-3
_RATE_EPS = 1e-9 * float(MiB)  # bytes/s below which a request is stalled


@dataclass
class _Proc:
    """One application process: its transfer stream and its state."""

    app_id: str
    rank: int
    transfers: "list[list[tuple[int, float]]]"  # per transfer: [(target, bytes)] per chunk
    next_transfer: int = 0
    outstanding: int = 0
    finished_at: float | None = None


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
        counts = np.zeros(len(keys), dtype=np.intp)
        # A distinct-tag provider counts the distinct targets among its
        # active extents, and each class has one target.  So one product
        # ``counts @ population`` gives every resource's extent count and,
        # for each (distinct-tag resource, target), the extents on the
        # resource heading to that target.
        targets = sorted({target for _, target in keys})
        population = np.zeros((len(keys), nres * (1 + len(targets))), dtype=np.intp)
        population[:, :nres] = solver.incidence
        for i, provider in enumerate(providers):
            if getattr(provider, "distinct_tag", None) is not None:
                for c in np.flatnonzero(solver.incidence[:, i]).tolist():
                    population[c, nres * (1 + targets.index(keys[c][1])) + i] = 1
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

        def resample(epoch: int) -> None:
            nonlocal current_epoch
            if epoch == current_epoch:
                return
            current_epoch = epoch
            for i, rid in enumerate(rids):
                multipliers[i] = noise.multiplier(rid, epoch, noise_rng)

        # Noise-scaled providers fold into ``base * multipliers`` (bit for
        # bit, see CapacityProvider); a base entry is re-evaluated only when
        # its resource's extent or distinct-target count changes.  The rest
        # (fault wrappers, which read ``ctx.time``) are called every event.
        folded = np.array([bool(getattr(p, "noise_scaled", False)) for p in providers])
        dynamic = np.flatnonzero(~folded).tolist()
        base = np.zeros(nres)
        nflows = np.full(nres, -1, dtype=np.intp)
        distinct = np.ones(nres, dtype=np.intp)
        depth = np.zeros(nres)

        def refresh_population(now: float) -> None:
            nonlocal nflows, distinct, depth
            stats = counts @ population
            new_nflows = stats[:nres]
            # Busy targets per resource; 1 without a distinct tag or when idle.
            busy = (stats[nres:].reshape(len(targets), nres) > 0).sum(axis=0)
            new_distinct = np.maximum(busy, 1)
            changed = folded & ((new_nflows != nflows) | (new_distinct != distinct))
            nflows, distinct, depth = new_nflows, new_distinct, new_nflows.astype(float)
            for i in changed.nonzero()[0].tolist():
                base[i] = providers[i].capacity(
                    ResourceContext(now, depth[i], int(nflows[i]), 1.0, int(distinct[i]))
                )

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
        dirty = True
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
                    counts[c] += 1
                ext_cls = np.concatenate((ext_cls, cls_new))
                ext_rem = np.concatenate((ext_rem, rem_new))
                ext_owner = np.concatenate((ext_owner, owner_new))
                ext_stall = np.concatenate((ext_stall, np.full(len(fresh), np.nan)))
                ext_tries = np.concatenate((ext_tries, tries_new))
                dirty = True
            if not ext_cls.size:
                next_times = [arrivals[0][0]] if arrivals else []
                if retry_heap:
                    next_times.append(retry_heap[0][0])
                now = min(next_times)
                continue

            epoch = int(now / epoch_len) if has_epochs else 0
            resample(epoch)

            if dirty:
                refresh_population(now)
                dirty = False
            capacities = base * multipliers
            for i in dynamic:
                capacities[i] = providers[i].capacity(
                    ResourceContext(now, depth[i], int(nflows[i]), multipliers[i], int(distinct[i]))
                )
            solve_t0 = perf_counter() if profiled else 0.0
            class_rates = solver.solve(capacities, counts=counts)
            if class_rates is None:
                # The fill's force-freeze corner depends on the flows'
                # order: solve this event per extent, in active order.
                rates_mib = max_min_rates([routes[c] for c in ext_cls.tolist()], capacities)
            else:
                rates_mib = class_rates[ext_cls]
            if profiled:
                prof.record("des.solve", perf_counter() - solve_t0)
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
                counts[c] -= 1
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
            dirty = True
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
