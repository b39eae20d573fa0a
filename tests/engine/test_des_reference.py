"""The route-class DES loop against the per-extent loop it replaced.

:func:`reference_loop` is the DES event loop as it was before route
classes: one ``_Extent`` object per in-flight chunk request, a
per-event rebuild of ``depth``/``nflows`` with one update per
membership, one capacity-provider call per resource, and a one-shot
:func:`max_min_rates` per event over the extents in active order.
:class:`DESEngine` must reproduce its output bit for bit.  The
reference stands in for ``DESEngine._integrate_inner`` during a run
rather than living in a subclass, because engine seeds derive from the
engine's class name.  :func:`population_product` keeps the one-product
recomputation of the provider inputs that the incremental
``_ClassState`` replaced.

Run with ``--hypothesis-profile=verify`` for the long, derandomized
sweep (see ``tests/conftest.py``).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import repro.engine.des_runner as des_runner
from repro.calibration.plafrim import scenario_by_name
from repro.engine.base import EngineOptions
from repro.engine.des_runner import _BYTES_EPS, _RATE_EPS, _TIME_EPS, DESEngine, _ClassState, _Proc
from repro.errors import FlowError, SimulationError
from repro.faults import FaultSchedule, server_outage, target_outage
from repro.netsim.fluid import FlowTraceEvent, ResourceContext
from repro.netsim.maxmin import MaxMinSolver, max_min_rates
from repro.storage.client_model import RetryPolicy
from repro.units import MiB
from repro.verify.replay import result_fingerprint
from repro.workload.generator import single_application

# Three identical flows that reach the fill's force-freeze corner: the
# one frozen first ends one ulp below the other two.
CORNER_MEMBERSHIPS = [[0, 1]] * 3
CORNER_CAPACITIES = (106389784.2906593, 629479043.3881695)
# The ``fixed`` chooser takes the first stripe-count of these.
PINNED_TARGETS = (101, 201, 102, 202, 103, 203, 104, 204)


@dataclass
class _Extent:
    """One in-flight piece of a transfer on one target."""

    remaining: float
    resource_idxs: tuple[int, ...]
    target: int
    proc: _Proc
    stalled_since: float | None = None
    attempts: int = 0

    @property
    def request_id(self) -> str:
        return f"{self.proc.app_id}:r{self.proc.rank}:t{self.target}"


def reference_loop(self, prepared, procs, checker, trace):
    """The per-extent DES event loop, kept as the reference."""
    rids = list(prepared.providers)
    rid_index = {rid: i for i, rid in enumerate(rids)}
    providers = [prepared.providers[rid] for rid in rids]
    route_idx = {
        key: tuple(rid_index[r] for r in route) for key, route in prepared.routes.items()
    }
    node_of_rank = {
        (app.app_id, rank): app.node_of_rank(rank)
        for app in prepared.apps
        for rank in range(app.nprocs)
    }
    if checker is not None:
        checker.bind_resources(rids)
        for proc in procs:
            node = node_of_rank[(proc.app_id, proc.rank)]
            for transfer in proc.transfers:
                for target, nbytes in transfer:
                    checker.expect_bytes(route_idx[(node, target)], nbytes)
    app_start = {app.app_id: app.start_time for app in prepared.apps}
    rtt = self.calibration.request_rtt_s

    noise = prepared.noise
    noise_rng = prepared.seeds.rng("noise")
    epoch_len = noise.epoch_length_s
    has_epochs = math.isfinite(epoch_len)
    multipliers = np.ones(len(rids))
    current_epoch = -1

    def resample(epoch):
        nonlocal current_epoch
        if epoch == current_epoch:
            return
        current_epoch = epoch
        for i, rid in enumerate(rids):
            multipliers[i] = noise.multiplier(rid, epoch, noise_rng)

    def issue(proc, active):
        idx = proc.next_transfer
        proc.next_transfer += 1
        node = node_of_rank[(proc.app_id, proc.rank)]
        for target, nbytes in proc.transfers[idx]:
            active.append(
                _Extent(
                    remaining=float(nbytes),
                    resource_idxs=route_idx[(node, target)],
                    target=target,
                    proc=proc,
                )
            )
            proc.outstanding += 1

    def finish_request(proc, now, seq):
        proc.outstanding -= 1
        if proc.outstanding == 0:
            if proc.next_transfer < len(proc.transfers):
                heapq.heappush(arrivals, (now + rtt, seq, proc))
                seq += 1
            else:
                proc.finished_at = now
        return seq

    jitter_rng = prepared.seeds.rng("des-startup-jitter")
    for proc in procs:
        if len(proc.transfers) > 1:
            cut = int(jitter_rng.integers(len(proc.transfers)))
            proc.transfers = proc.transfers[cut:] + proc.transfers[:cut]
    arrivals = []
    seq = 0
    for proc in procs:
        if not proc.transfers:
            proc.finished_at = app_start[proc.app_id]
            continue
        jitter = float(jitter_rng.uniform(0.0, self.startup_jitter_s))
        heapq.heappush(arrivals, (app_start[proc.app_id] + jitter, seq, proc))
        seq += 1

    retry = self.options.effective_retry()
    bounds = self._breakpoints()
    retry_heap = []
    lost_bytes = {}
    abandoned = 0

    active = []
    now = arrivals[0][0] if arrivals else 0.0
    segments = 0
    while arrivals or active or retry_heap:
        while arrivals and arrivals[0][0] <= now + _TIME_EPS:
            _, _, proc = heapq.heappop(arrivals)
            issue(proc, active)
        while retry_heap and retry_heap[0][0] <= now + _TIME_EPS:
            active.append(heapq.heappop(retry_heap)[2])
        if not active:
            next_times = [arrivals[0][0]] if arrivals else []
            if retry_heap:
                next_times.append(retry_heap[0][0])
            now = min(next_times)
            continue

        epoch = int(now / epoch_len) if has_epochs else 0
        resample(epoch)

        depth = np.zeros(len(rids))
        nflows = np.zeros(len(rids), dtype=int)
        distinct = {}
        memberships = []
        for ext in active:
            memberships.append(ext.resource_idxs)
            for i in ext.resource_idxs:
                depth[i] += 1.0
                nflows[i] += 1
                if getattr(providers[i], "distinct_tag", None) is not None:
                    distinct.setdefault(i, set()).add(ext.target)
        capacities = np.array(
            [
                providers[i].capacity(
                    ResourceContext(
                        now,
                        depth[i],
                        int(nflows[i]),
                        multipliers[i],
                        len(distinct.get(i, ())) or 1,
                    )
                )
                for i in range(len(rids))
            ]
        )
        rates_mib = max_min_rates(memberships, capacities)
        rates = rates_mib * float(MiB)
        if retry is not None:
            for ext, rate in zip(active, rates):
                if rate <= _RATE_EPS:
                    if ext.stalled_since is None:
                        ext.stalled_since = now
                else:
                    ext.stalled_since = None

        dt = math.inf
        for ext, rate in zip(active, rates):
            if rate > 0:
                dt = min(dt, ext.remaining / rate)
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
            for ext in active:
                if ext.stalled_since is not None:
                    dt = min(dt, ext.stalled_since + retry.timeout_s - now)
        if not math.isfinite(dt) or dt < 0:
            raise SimulationError(f"DES engine stalled at t={now}")
        dt = max(dt, 0.0)

        if checker is not None:
            checker.on_segment(
                now,
                dt,
                capacities,
                memberships,
                rates_mib,
                flow_labels=[e.request_id for e in active],
            )

        now += dt
        segments += 1
        still = []
        for ext, rate in zip(active, rates):
            ext.remaining -= rate * dt
            if ext.remaining <= _BYTES_EPS:
                seq = finish_request(ext.proc, now, seq)
            elif (
                retry is not None
                and ext.stalled_since is not None
                and now >= ext.stalled_since + retry.timeout_s - _TIME_EPS
            ):
                ext.attempts += 1
                ext.stalled_since = None
                if ext.attempts > retry.max_retries:
                    abandoned += 1
                    app_id = ext.proc.app_id
                    lost_bytes[app_id] = lost_bytes.get(app_id, 0.0) + ext.remaining
                    trace.append(FlowTraceEvent(now, ext.request_id, "abandon", ext.attempts))
                    if checker is not None:
                        checker.retract_bytes(ext.resource_idxs, ext.remaining)
                    seq = finish_request(ext.proc, now, seq)
                else:
                    trace.append(FlowTraceEvent(now, ext.request_id, "retry", ext.attempts))
                    heapq.heappush(retry_heap, (now + retry.backoff_s(ext.attempts), seq, ext))
                    seq += 1
            else:
                still.append(ext)
        active = still

    if checker is not None:
        checker.finish()
    return self._collect(
        prepared,
        procs,
        segments,
        trace=trace,
        lost_bytes=lost_bytes,
        retries=sum(1 for e in trace if e.action == "retry"),
        abandoned=abandoned,
    )


@lru_cache(maxsize=None)
def _platform(scenario: str):
    calib = scenario_by_name(scenario)
    return calib, calib.platform(8)


def _engine(spec: dict) -> tuple[DESEngine, object]:
    """The engine and the application a drawn spec describes."""
    calib, topo = _platform(spec["scenario"])
    schedule, retry = None, None
    if spec["outage"] is not None:
        component, start, duration, max_retries = spec["outage"]
        outage = target_outage if isinstance(component, int) else server_outage
        schedule = FaultSchedule([outage(component, start, duration)])
        retry = RetryPolicy(timeout_s=0.005, max_retries=max_retries, backoff_base_s=0.002)
    options = EngineOptions(noise_enabled=spec["noise"], fault_schedule=schedule, retry=retry)
    chooser = spec["chooser"]
    if chooser == "fixed":
        chooser += ":" + ",".join(map(str, PINNED_TARGETS[: spec["stripe"]]))
    deployment = calib.deployment(stripe_count=spec["stripe"], chooser=chooser)
    engine = DESEngine(calib, topo, deployment, seed=spec["seed"], options=options)
    # 32 MiB, or one 1 MiB transfer per rank when there are more ranks.
    total = max(32, spec["nodes"] * spec["ppn"]) * MiB
    return engine, single_application(topo, spec["nodes"], ppn=spec["ppn"], total_bytes=total)


des_specs = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["scenario1", "scenario2"]),
        "nodes": st.integers(1, 8),
        "ppn": st.integers(1, 8),
        "stripe": st.integers(1, 8),
        "chooser": st.sampled_from(
            ["roundrobin", "random", "balanced", "capacity", "failover", "fixed"]
        ),
        "noise": st.booleans(),
        # (a target or a server, picked by _aim_outage; outage start and
        # duration in s; retries before abandoning); a 3 ms outage ends
        # before the 5 ms timeout, so stalled requests resume.
        "outage": st.none()
        | st.tuples(
            st.sampled_from(["target", "server"]),
            st.sampled_from([0.002, 0.005, 0.01]),
            st.sampled_from([math.inf, 0.003]),
            st.integers(0, 2),
        ),
        "seed": st.integers(0, 2**16),
        "rep": st.integers(0, 3),
    }
)


def _aim_outage(spec: dict, data: st.DataObject) -> dict:
    """Aim a drawn outage at a target, or a server, that holds part of the file.

    The placement is the one a fault-free engine's ``prepare`` gives for
    the same seed and rep; outages start after file creation, so the
    faulted run stripes the file over the same targets.
    """
    if spec["outage"] is None:
        return spec
    kind, start, duration, max_retries = spec["outage"]
    engine, app = _engine({**spec, "outage": None})
    prepared = engine.prepare([app], spec["rep"])
    targets = sorted({t for placed in prepared.app_targets.values() for t in placed})
    if kind == "server":
        targets = sorted({prepared.target_host[t] for t in targets})
    component = data.draw(st.sampled_from(targets), label=f"outage {kind}")
    return {**spec, "outage": (component, start, duration, max_retries)}


@given(spec=des_specs, data=st.data())
@settings(deadline=None)
def test_route_classes_reproduce_the_per_extent_loop(spec, data):
    spec = _aim_outage(spec, data)
    engine, app = _engine(spec)
    solves = []
    solve = MaxMinSolver.solve
    with patch.object(MaxMinSolver, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k)):
        result = engine.run([app], spec["rep"])
    if spec["outage"] is not None:
        event("permanent outage" if math.isinf(spec["outage"][2]) else "3 ms outage")
    event("requests timed out" if result.fault_events else "no timeouts")
    event("events reused a solve" if len(solves) < result.segments else "every event solved")
    with patch.object(DESEngine, "_integrate_inner", reference_loop):
        reference = engine.run([app], spec["rep"])
    assert result_fingerprint(result) == result_fingerprint(reference)


@st.composite
def counted_populations(draw):
    """Rows over a few resources, counts (zeros included), capacities, optional row caps."""
    nres = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.sets(st.integers(0, nres - 1), min_size=1).map(sorted), min_size=1, max_size=6
        )
    )
    counts = draw(st.lists(st.integers(0, 4), min_size=len(rows), max_size=len(rows)))
    rate = st.one_of(st.just(0.0), st.floats(1e-3, 1e9))
    capacities = draw(st.lists(rate, min_size=nres, max_size=nres))
    caps = st.lists(st.one_of(rate, st.just(math.inf)), min_size=len(rows), max_size=len(rows))
    return rows, counts, capacities, draw(st.none() | caps)


@given(population=counted_populations())
@settings(deadline=None)
def test_counted_solve_matches_the_expanded_rows(population):
    rows, counts, capacities, row_caps = population
    rates = MaxMinSolver(rows, len(capacities)).solve(
        capacities, flow_caps=row_caps, counts=np.array(counts)
    )
    expanded = [r for r, n in enumerate(counts) for _ in range(n)]
    flow_caps = None if row_caps is None else [row_caps[r] for r in expanded]
    per_flow = max_min_rates([rows[r] for r in expanded], capacities, flow_caps)
    if rates is None:
        event("handed back at the force-freeze corner")
        return
    assert_array_equal(rates[expanded], per_flow)
    assert_array_equal(rates[np.array(counts) == 0], 0.0)


def test_the_force_freeze_corner_takes_the_per_extent_path():
    per_flow = max_min_rates(CORNER_MEMBERSHIPS, CORNER_CAPACITIES)
    assert [float(r).hex() for r in per_flow] == [
        "0x1.0e902eb71170fp+25",
        "0x1.0e902eb711710p+25",
        "0x1.0e902eb711710p+25",
    ]
    solver = MaxMinSolver(CORNER_MEMBERSHIPS[:1], 2)
    assert solver.solve(CORNER_CAPACITIES, counts=np.array([3])) is None


class _CornerEverywhere(MaxMinSolver):
    """A solver whose every counted solve hands back to the caller."""

    def solve(self, capacities, flow_caps=None, counts=None):
        result = super().solve(capacities, flow_caps, counts)
        return None if counts is not None else result


def test_the_per_extent_path_on_every_event_changes_nothing(monkeypatch):
    spec = {
        "scenario": "scenario1",
        "nodes": 2,
        "ppn": 4,
        "stripe": 4,
        "chooser": "roundrobin",
        "noise": True,
        "outage": (201, 0.002, math.inf, 1),
        "seed": 7,
        "rep": 1,
    }
    engine, app = _engine(spec)
    expected = result_fingerprint(engine.run([app], spec["rep"]))
    fallbacks = []
    monkeypatch.setattr(des_runner, "MaxMinSolver", _CornerEverywhere)
    monkeypatch.setattr(
        des_runner, "max_min_rates", lambda *a: fallbacks.append(1) or max_min_rates(*a)
    )
    result = engine.run([app], spec["rep"])
    assert result.retries > 0
    assert len(fallbacks) == result.segments
    assert result_fingerprint(result) == expected


@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.array([1, -1]), np.array([1])])
def test_counts_are_validated(bad):
    with pytest.raises(FlowError):
        MaxMinSolver([[0], [0, 1]], 2).solve([1.0, 1.0], counts=bad)


def population_product(routes, class_targets, pools, nres, counts):
    """Per-resource extent counts and distinct busy targets from one product.

    This is how the class loop first derived its provider inputs: one
    ``counts @ population`` product, whose first ``nres`` columns are the
    incidence and whose remaining blocks count, for each (pool, target),
    the extents on the pool heading to that target.
    """
    targets = sorted(set(class_targets))
    population = np.zeros((len(routes), nres * (1 + len(targets))), dtype=np.intp)
    for c, (route, target) in enumerate(zip(routes, class_targets)):
        for i in route:
            population[c, i] = 1
            if i in pools:
                population[c, nres * (1 + targets.index(target)) + i] = 1
    stats = np.asarray(counts, dtype=np.intp) @ population
    busy = (stats[nres:].reshape(len(targets), nres) > 0).sum(axis=0)
    return stats[:nres].tolist(), np.maximum(busy, 1).tolist()


@st.composite
def class_systems(draw):
    """Route classes over a few resources, some of them distinct-tag pools."""
    nres = draw(st.integers(1, 6))
    resource = st.integers(0, nres - 1)
    route = st.sets(resource, min_size=1).map(sorted).map(tuple)
    routes = draw(st.lists(route, min_size=1, max_size=6))
    class_targets = draw(st.lists(st.integers(0, 2), min_size=len(routes), max_size=len(routes)))
    return routes, class_targets, draw(st.sets(resource)), nres


class _Population:
    """A :class:`_ClassState` under test, its extents, and what the loop saw.

    ``seen`` holds, per resource, the (extent count, distinct targets) the
    loop would last have handed to its provider: :meth:`refresh` updates
    exactly the resources the state reports as touched, as the loop does.
    """

    def __init__(self, routes, class_targets, pools, nres):
        self.system = (routes, class_targets, pools, nres)
        self.state = _ClassState(routes, class_targets, pools, nres)
        self.active: list[int] = []  # classes of the active extents, in issue order
        self.backing_off: list[int] = []  # timed-out extents waiting to retry
        self.seen: dict[int, tuple[int, int]] = {}

    def enter(self, c):
        self.state.enter(c)
        self.active.append(c)

    def leave(self, j, action):
        c = self.active.pop(j)
        self.state.leave(c)
        if action == "retry":
            self.backing_off.append(c)

    def refresh(self):
        state = self.state
        for i in state.take_touched():
            self.seen[i] = (state.nflows[i], state.distinct(i))
        routes, _, _, nres = self.system
        counts = np.bincount(self.active, minlength=len(routes))
        nflows, distinct = population_product(*self.system, counts)
        assert state.counts.tolist() == counts.tolist()
        assert state.nflows == nflows
        assert [state.distinct(i) for i in range(nres)] == distinct
        assert self.seen == {i: (nflows[i], distinct[i]) for i in range(nres)}


@given(system=class_systems(), data=st.data())
@settings(deadline=None)
def test_class_state_tracks_the_population_product(system, data):
    """Issue, finish, retry and abandon sequences, checked at every refresh."""
    population = _Population(*system)
    population.refresh()
    nclasses = len(system[0])
    for _ in range(data.draw(st.integers(1, 10), label="events")):
        # An event's arrivals: issued chunk requests, then retries whose
        # backoff ended; the loop then refreshes and solves.
        for c in data.draw(st.lists(st.integers(0, nclasses - 1), max_size=4), label="issued"):
            population.enter(c)
        for _ in range(data.draw(st.integers(0, len(population.backing_off)), label="retried")):
            population.enter(population.backing_off.pop(0))
        population.refresh()
        # The event's departures: completions, timeouts that retry later,
        # timeouts past the retry budget.
        for _ in range(data.draw(st.integers(0, len(population.active)), label="leaving")):
            j = data.draw(st.integers(0, len(population.active) - 1))
            population.leave(j, data.draw(st.sampled_from(["finish", "retry", "abandon"])))
    population.refresh()


def test_a_swap_that_keeps_a_pools_extent_count_moves_its_busy_targets():
    """A completion and an arrival in one event: same extents, other targets.

    Classes 0 and 1 reach pool resource 0 on target 7, class 2 on target
    8.  Each refresh below leaves the pool's extent count at 2 and moves
    only its busy targets, which its provider reads too.
    """
    population = _Population([(0, 1), (0, 2), (0, 3)], [7, 7, 8], {0}, 4)
    population.enter(0)
    population.enter(1)
    population.refresh()
    assert population.seen[0] == (2, 1)
    population.leave(0, "finish")  # class 0
    population.enter(2)
    population.refresh()
    assert population.seen[0] == (2, 2)
    population.leave(0, "abandon")  # class 1
    population.enter(2)
    population.refresh()
    assert population.seen[0] == (2, 1)
