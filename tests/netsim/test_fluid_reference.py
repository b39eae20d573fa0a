"""The fluid engine's kernels against the code they replaced.

Each ``reference_*`` function below is the engine's earlier code, kept
verbatim apart from ``self`` becoming the first argument:

* :func:`reference_fill` and :func:`reference_fill_batch`, the
  progressive-filling loops with an ``np.errstate`` per iteration, the
  ``ndarray`` reductions and boolean-indexed updates
  (:class:`ReferenceSolver` runs them);
* :func:`reference_solve_one` and :func:`reference_solve_lanes`, the
  latency-cap fixed point over ``flow_caps`` (request sizes converted
  on every call, :func:`reference_flow_caps`) and ``np.allclose``;
* :func:`reference_draw`, a noise draw for every resource;
* :func:`reference_rebuild`, the per-provider rebuild loop with a
  ``ResourceContext`` per resource and per-flow Python lists;
* :func:`reference_collect`, the eager path: one ``FlowStats`` per flow
  and the ``FluidResult`` helpers over them.

The kernels that replaced them must reproduce them bit for bit on
generated inputs: arrays compare by their bytes, floats by
``float.hex``.  Run with ``--hypothesis-profile=verify`` for the long,
derandomized sweep (see ``tests/conftest.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro.engine.base import _metadata_overheads
from repro.engine.result import ApplicationResult, RunResult
from repro.errors import FlowError
from repro.faults import FaultSchedule, target_outage
from repro.faults.inject import FaultyCapacity
from repro.methodology.plan import ExperimentSpec
from repro.netsim import fluid
from repro.netsim.flows import FluidFlow
from repro.netsim.fluid import (
    CapacityProvider,
    ConstantCapacity,
    FluidSimulation,
    ResourceContext,
    _allclose,
)
from repro.netsim.latency import BlockingRequestModel, NoLatency
from repro.netsim.maxmin import _EPS, MaxMinSolver, _membership_arrays
from repro.scenario.compile import compile_scenario
from repro.service import SimulationService
from repro.storage.client_model import RetryPolicy
from repro.storage.variability import CompositeNoise, NoiseSpec, SharedStateNoise, StochasticNoise
from repro.units import MiB
from repro.verify.replay import result_fingerprint


def assert_bits_equal(new: np.ndarray, ref: np.ndarray) -> None:
    """Same dtype, shape and bytes (so ``-0.0`` and NaN payloads count)."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert_array_equal(new, ref)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


# -- the reference kernels -----------------------------------------------------


def reference_fill_batch(self, caps: np.ndarray, flow_caps: np.ndarray | None) -> np.ndarray:
    """Progressive filling over stacked lanes (validated inputs only).

    Every operation below is either elementwise per lane or an exact
    reduction (min, 0/1 integer sum), so each lane's trajectory —
    deltas, freeze order, final rates — reproduces the scalar
    :meth:`_fill` bit for bit.  Finished lanes are masked out of the
    updates and keep their values.
    """
    lanes = caps.shape[0]
    nflows, nres = self.num_flows, self.num_resources
    incidence = self._incidence
    inc_int = self._inc_int
    rates = np.zeros((lanes, nflows))
    if nflows == 0 or lanes == 0:
        return rates

    if flow_caps is None:
        cap_rem = np.full((lanes, nflows), np.inf)
    else:
        cap_rem = flow_caps.astype(float, copy=True)

    active = np.ones((lanes, nflows), dtype=bool)
    rem = caps.astype(float).copy()

    zero_res = rem <= _EPS
    if zero_res.any():
        active &= ~((zero_res.astype(np.intp) @ inc_int.T) > 0)
    active &= cap_rem > _EPS

    users = active.astype(np.intp) @ inc_int  # (lanes, nres), exact

    for _ in range(nflows + nres + 1):
        live = active.any(axis=1)
        if not live.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(users > 0, rem / np.maximum(users, 1), np.inf)
        delta_res = headroom.min(axis=1)
        delta_cap = np.where(active, cap_rem, np.inf).min(axis=1)
        delta = np.minimum(delta_res, delta_cap)
        if not np.isfinite(delta[live]).all():
            raise FlowError("unbounded max-min allocation (no finite constraint)")
        delta = np.where(live, np.maximum(delta, 0.0), 0.0)

        rates += np.where(active, delta[:, None], 0.0)
        rem -= delta[:, None] * users
        cap_rem -= np.where(active, delta[:, None], 0.0)

        saturated_res = (rem <= _EPS) & (users > 0)
        freeze = active & (
            ((saturated_res.astype(np.intp) @ inc_int.T) > 0) | (cap_rem <= _EPS)
        )
        stuck = live & ~freeze.any(axis=1)
        if stuck.any():
            # Numerical corner, per lane: force-freeze the flow at
            # the tightest constraint so progress is guaranteed.
            for b in np.flatnonzero(stuck):
                tight = int(np.argmin(np.where(active[b], cap_rem[b], np.inf)))
                freeze[b, tight] = True
        removed = active & freeze
        if removed.any():
            users -= removed.astype(np.intp) @ inc_int
        active &= ~freeze
    else:  # pragma: no cover - loop bound is a hard invariant
        raise FlowError("max-min allocation did not converge")
    return rates


def reference_fill(self, caps: np.ndarray, flow_caps: np.ndarray | None) -> np.ndarray:
    """The progressive-filling loop (validated inputs only)."""
    nflows, nres = self.num_flows, self.num_resources
    incidence = self._incidence
    rates = np.zeros(nflows)
    if nflows == 0:
        return rates

    if flow_caps is None:
        cap_rem = np.full(nflows, np.inf)
    else:
        cap_rem = flow_caps.astype(float, copy=True)

    active = np.ones(nflows, dtype=bool)
    rem = caps.astype(float).copy()

    # Flows through zero-capacity resources can never move.
    zero_res = rem <= _EPS
    if zero_res.any():
        active &= ~incidence[:, zero_res].any(axis=1)
    # Flows capped at zero are immediately frozen at rate 0.
    active &= cap_rem > _EPS

    # Active flows per resource, maintained incrementally: integer
    # subtraction of frozen flows' rows is exact, so the counts (and
    # therefore every float that follows) match a from-scratch
    # recompute bit for bit.
    if active.all():
        users = self._users_all.copy()
    else:
        users = incidence[active].sum(axis=0)

    # Each iteration freezes at least one flow, so this terminates in
    # at most ``nflows`` iterations.
    for _ in range(nflows + nres + 1):
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            headroom = np.where(users > 0, rem / np.maximum(users, 1), np.inf)
        delta_res = headroom.min() if np.isfinite(headroom).any() else np.inf
        delta_cap = cap_rem[active].min()
        delta = min(delta_res, delta_cap)
        if not np.isfinite(delta):
            raise FlowError("unbounded max-min allocation (no finite constraint)")
        delta = max(delta, 0.0)

        rates[active] += delta
        rem -= delta * users
        cap_rem[active] -= delta

        saturated_res = (rem <= _EPS) & (users > 0)
        freeze = active & (incidence[:, saturated_res].any(axis=1) | (cap_rem <= _EPS))
        if not freeze.any():
            # Numerical corner: force-freeze the flows at the tightest
            # constraint so progress is guaranteed.
            tight = np.argmin(np.where(active, cap_rem, np.inf))
            freeze = np.zeros(nflows, dtype=bool)
            freeze[tight] = True
        removed = active & freeze
        if removed.any():
            users -= incidence[removed].sum(axis=0)
        active &= ~freeze
    else:  # pragma: no cover - loop bound is a hard invariant
        raise FlowError("max-min allocation did not converge")
    return rates


class ReferenceSolver(MaxMinSolver):
    """A solver whose ``solve``/``solve_batch`` run the reference fills."""

    _fill = reference_fill
    _fill_batch = reference_fill_batch


def reference_flow_caps(
    self,
    rates_mib_s: np.ndarray,
    nprocs: Sequence[float],
    request_sizes_bytes: Sequence[float] | None = None,
) -> np.ndarray:
    """``BlockingRequestModel.flow_caps``: sizes converted on every call."""
    if isinstance(self, NoLatency):
        return np.full(np.asarray(rates_mib_s).shape, np.inf)
    rates = np.asarray(rates_mib_s, dtype=float)
    procs = np.asarray(nprocs, dtype=float)
    if request_sizes_bytes is None:
        size_mib = np.full(rates.shape, self.request_size_bytes / MiB)
    else:
        sizes = np.asarray(request_sizes_bytes, dtype=float)
        size_mib = np.where(np.isnan(sizes), self.request_size_bytes, sizes) / MiB
    with np.errstate(divide="ignore", invalid="ignore"):
        per_proc = np.where(procs > 0, rates / procs, 0.0)
        achieved = per_proc * size_mib / (size_mib + self.round_trip_latency_s * per_proc)
    return np.where(rates > 0, procs * achieved, np.inf)


def reference_solve_one(
    self,
    solver: MaxMinSolver,
    capacities: np.ndarray,
    nprocs: np.ndarray,
    req_sizes: np.ndarray,
) -> tuple:
    """One segment's latency-cap fixed point: ``(rates, caps, caps_used, iterations)``."""
    iterations = 1
    rates = solver.solve(capacities)
    caps = reference_flow_caps(self.latency, rates, nprocs, req_sizes)
    caps_used = None
    for _ in range(self.cap_iterations):
        caps_used = caps
        iterations += 1
        rates = solver.solve(capacities, caps)
        new_caps = np.maximum(caps, reference_flow_caps(self.latency, rates, nprocs, req_sizes))
        if np.allclose(new_caps, caps, rtol=1e-6, atol=1e-9):
            break
        caps = new_caps
    return rates, caps, caps_used, iterations


def reference_solve_lanes(
    self,
    solver: MaxMinSolver,
    lane_caps: np.ndarray,
    nprocs: np.ndarray,
    req_sizes: np.ndarray,
) -> list[tuple]:
    """Solve a stacked batch of segment capacity vectors."""
    lanes = lane_caps.shape[0]
    first = solver.solve_batch(lane_caps)
    out_rates = [first[b] for b in range(lanes)]
    caps = [reference_flow_caps(self.latency, first[b], nprocs, req_sizes) for b in range(lanes)]
    caps_used: list[np.ndarray | None] = [None] * lanes
    iters = [1] * lanes
    live = list(range(lanes))
    for _ in range(self.cap_iterations):
        if not live:
            break
        solved = solver.solve_batch(
            lane_caps[np.array(live)], np.stack([caps[b] for b in live])
        )
        nxt: list[int] = []
        for k, b in enumerate(live):
            caps_used[b] = caps[b]
            iters[b] += 1
            out_rates[b] = solved[k]
            new_caps = np.maximum(
                caps[b], reference_flow_caps(self.latency, solved[k], nprocs, req_sizes)
            )
            if np.allclose(new_caps, caps[b], rtol=1e-6, atol=1e-9):
                continue
            caps[b] = new_caps
            nxt.append(b)
        live = nxt
    return [(out_rates[b], caps[b], caps_used[b], iters[b]) for b in range(lanes)]


def reference_draw(self, epoch: int) -> np.ndarray:
    """One epoch's noise multipliers, drawn in resource order."""
    row = np.empty(len(self.rids))
    for i, rid in enumerate(self.rids):
        row[i] = self.noise.multiplier(rid, epoch, self.rng)
    self.drawn_max = max(self.drawn_max, epoch)
    return row


def reference_rebuild(self) -> None:
    """Per-resource context, solver and per-flow arrays of the active set."""
    n, now, active = len(self.rids), self.now, self.active
    memberships = [self.members[f.flow_id] for f in active]
    # ``bincount`` adds in input order: flow by flow, each flow's
    # resources in route order, as a per-membership loop would.
    counts, flat = _membership_arrays(memberships)
    weights = np.array([f.weight for f in active], dtype=float)
    depth = np.bincount(flat, weights=np.repeat(weights, counts), minlength=n)
    nflows = np.bincount(flat, minlength=n)
    tag_sets: dict[int, set] = {}
    for flow in active:
        for i, value in self.tag_values[flow.flow_id]:
            tag_sets.setdefault(i, set()).add(value)
    distinct = {i: len(values) for i, values in tag_sets.items()}
    # Fold noise-scaled providers into one base vector: for them
    # ``capacity == base * noise`` bit for bit, so each segment needs
    # a single elementwise multiply.  The rest keep their per-segment
    # Python call.
    base = np.zeros(n)
    dynamic: list[tuple[int, CapacityProvider, int]] = []
    for i, provider in enumerate(self.providers):
        ctx_distinct = distinct.get(i, 1)
        if getattr(provider, "noise_scaled", False):
            base[i] = provider.capacity(
                ResourceContext(now, depth[i], int(nflows[i]), 1.0, ctx_distinct)
            )
        else:
            dynamic.append((i, provider, ctx_distinct))
    self.base, self.dynamic = base, dynamic
    self.depth, self.nflows, self.distinct = depth, nflows, distinct
    self.memberships = memberships
    self.nprocs = np.array([f.nprocs for f in active])
    self.req_sizes = np.array(
        [f.request_size_bytes if f.request_size_bytes is not None else np.nan for f in active]
    )
    self.obs_members = [
        (rid, [j for j, idxs in enumerate(memberships) if self.rid_index[rid] in idxs])
        for rid in self.observe_ids
    ]
    self.rem = np.array([f.remaining_bytes for f in active], dtype=float)
    if self.retry is not None:
        self.stalled = np.array(
            [np.nan if f.stalled_since is None else f.stalled_since for f in active],
            dtype=float,
        )
    self.solver = MaxMinSolver(memberships, n)
    self.presolved = {}
    self.presolve_horizon = -1
    self.arrays_valid = True
    self.members_dirty = False


@dataclass
class _EagerResult:
    """The eager ``FluidResult``: its ``stats`` and the helpers over them."""

    stats: list
    segments: int
    resource_series: dict
    trace: list

    def total_delivered(self, stats=None) -> float:
        chosen = self.stats if stats is None else list(stats)
        return float(sum(s.payload_bytes for s in chosen))

    def stats_by_tag(self, key, value) -> list:
        return [s for s in self.stats if s.tags.get(key) == value]

    def span(self, stats=None) -> tuple[float, float]:
        chosen = self.stats if stats is None else list(stats)
        if not chosen:
            raise FlowError("no flows to span")
        return (min(s.started_at for s in chosen), max(s.finished_at for s in chosen))


def reference_collect(self, prepared, fluid_result) -> RunResult:
    """``FluidEngine._collect`` over one ``FlowStats`` per flow, built eagerly.

    The records come in the run's own order, (start time, flow id), as
    the earlier ``_Run.finish`` built them.
    """
    order = sorted(prepared.flows, key=lambda f: (f.start_time, f.flow_id))
    fluid_result = _EagerResult(
        stats=[f.stats() for f in order],
        segments=fluid_result.segments,
        resource_series=fluid_result.resource_series,
        trace=fluid_result.trace,
    )
    servers = [h.host for h in prepared.hosts]
    meta_draw = _metadata_overheads(self.calibration, self.options, prepared)
    app_results = []
    for app in prepared.apps:
        meta = meta_draw(app.app_id)
        stats = fluid_result.stats_by_tag("app", app.app_id)
        start, end = fluid_result.span(stats)
        targets = prepared.app_targets[app.app_id]
        per_server = {s: 0 for s in servers}
        for tid in targets:
            per_server[prepared.target_host[tid]] += 1
        app_results.append(
            ApplicationResult(
                app_id=app.app_id,
                start_time=start,
                end_time=end + meta,
                volume_bytes=fluid_result.total_delivered(stats),
                num_nodes=app.num_nodes,
                ppn=app.ppn,
                stripe_count=prepared.app_stripe[app.app_id],
                targets=targets,
                placement=tuple(sorted(per_server.values())),
            )
        )
    return RunResult(
        apps=tuple(app_results),
        segments=fluid_result.segments,
        resource_series=fluid_result.resource_series,
        fault_events=tuple(e.to_dict() for e in fluid_result.trace),
        retries=sum(s.retries for s in fluid_result.stats),
        abandoned_flows=sum(1 for s in fluid_result.stats if s.abandoned),
    )


# -- generated problems --------------------------------------------------------

# Capacities and caps with the special values the kernels branch on:
# zero (a dead resource, a flow capped at zero), infinity (no cap) and
# values within the fill's epsilon of zero.
capacities = st.one_of(
    st.just(0.0), st.just(5e-10), st.floats(1e-3, 5e3), st.sampled_from([1.0, 100.0, 1100.0])
)
flow_cap_values = st.one_of(
    st.just(0.0), st.just(math.inf), st.just(5e-10), st.floats(1e-3, 5e3)
)
# The fills also take what validation lets through: NaN (a NaN headroom
# is not finite, so with no finite headroom left the caps set delta).
fill_capacities = st.one_of(capacities, st.just(math.nan))


@st.composite
def memberships(draw, max_res: int = 8, max_flows: int = 12) -> tuple[list[tuple[int, ...]], int]:
    """Routes (distinct resource indices per flow) over ``nres`` resources."""
    nres = draw(st.integers(1, max_res))
    nflows = draw(st.integers(1, max_flows))
    routes = []
    for _ in range(nflows):
        order = draw(st.permutations(range(nres)))
        routes.append(tuple(order[: draw(st.integers(1, nres))]))
    return routes, nres


def _solve_or_error(solve, *args):
    try:
        return solve(*args)
    except FlowError as exc:
        return exc


def _assert_same_outcome(new, ref) -> None:
    if isinstance(ref, FlowError):
        assert isinstance(new, FlowError) and str(new) == str(ref)
    else:
        assert not isinstance(new, FlowError), new
        assert_bits_equal(new, ref)


@given(problem=memberships(), data=st.data())
@example(problem=([(0, 1)] * 3, 2), data=None).via("the force-freeze corner")
@settings(deadline=None)
def test_fill_matches_the_reference(problem, data):
    routes, nres = problem
    if data is None:
        # Three identical flows that reach the force-freeze corner.
        caps = np.array([106389784.2906593, 629479043.3881695])
        flow_caps = None
    else:
        caps = np.array(data.draw(st.lists(fill_capacities, min_size=nres, max_size=nres)))
        if data.draw(st.booleans(), label="capped"):
            flow_caps = np.array(
                data.draw(st.lists(flow_cap_values, min_size=len(routes), max_size=len(routes)))
            )
        else:
            flow_caps = None
        if data.draw(st.booleans(), label="one unlimited resource"):
            caps[data.draw(st.integers(0, nres - 1))] = math.inf
    new = _solve_or_error(MaxMinSolver(routes, nres).solve, caps, flow_caps)
    ref = _solve_or_error(ReferenceSolver(routes, nres).solve, caps, flow_caps)
    _assert_same_outcome(new, ref)


@pytest.mark.parametrize("capacity", [math.nan, math.inf])
def test_a_flow_with_no_finite_headroom_moves_at_its_cap(capacity):
    routes, caps, flow_caps = [(0, 1)], np.array([capacity, math.nan]), np.array([5.0])
    new = _solve_or_error(MaxMinSolver(routes, 2).solve, caps, flow_caps)
    ref = _solve_or_error(ReferenceSolver(routes, 2).solve, caps, flow_caps)
    _assert_same_outcome(new, ref)
    assert_array_equal(ref, [5.0])


@given(problem=memberships(), data=st.data())
@settings(deadline=None)
def test_fill_batch_matches_the_reference(problem, data):
    routes, nres = problem
    lanes = data.draw(st.integers(1, 5), label="lanes")
    caps = np.array(
        [data.draw(st.lists(fill_capacities, min_size=nres, max_size=nres)) for _ in range(lanes)]
    )
    flow_caps = None
    if data.draw(st.booleans(), label="capped"):
        flow_caps = np.array(
            [
                data.draw(st.lists(flow_cap_values, min_size=len(routes), max_size=len(routes)))
                for _ in range(lanes)
            ]
        )
    new = _solve_or_error(MaxMinSolver(routes, nres).solve_batch, caps, flow_caps)
    ref = _solve_or_error(ReferenceSolver(routes, nres).solve_batch, caps, flow_caps)
    _assert_same_outcome(new, ref)


@st.composite
def fixed_points(draw):
    """A population, its solver pair, latency model and per-flow inputs."""
    routes, nres = draw(memberships())
    nflows = len(routes)
    latency = draw(
        st.one_of(
            st.just(NoLatency()),
            st.builds(
                BlockingRequestModel,
                st.sampled_from([64 * 1024, MiB, 4 * MiB]),
                st.floats(0.0, 5e-3),
            ),
        )
    )
    sim = FluidSimulation(latency=latency, cap_iterations=draw(st.integers(0, 5)))
    nprocs = draw(st.lists(st.sampled_from([1, 2, 0.5, 3.25, 8]), min_size=nflows, max_size=nflows))
    req = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from([4096.0, 65536.0, float(MiB), 1.5 * MiB])),
            min_size=nflows,
            max_size=nflows,
        )
    )
    return routes, nres, sim, nprocs, req


def _per_flow_arrays(sim, nprocs, req):
    """The reference's per-flow arrays and the new ones (floats, sizes in MiB)."""
    ref_nprocs = np.array(nprocs)
    ref_req = np.array([np.nan if r is None else r for r in req])
    new_nprocs = np.array(nprocs, dtype=float)
    new_size = sim.latency.request_sizes_mib(np.array(ref_req, dtype=float))
    return ref_nprocs, ref_req, new_nprocs, new_size


def _assert_same_entry(new: tuple, ref: tuple) -> None:
    rates, caps, caps_used, iterations = new
    assert_bits_equal(rates, ref[0])
    assert_bits_equal(caps, ref[1])
    assert (caps_used is None) == (ref[2] is None)
    if caps_used is not None:
        assert_bits_equal(caps_used, ref[2])
    assert iterations == ref[3]


@given(problem=fixed_points(), data=st.data())
@settings(deadline=None)
def test_latency_fixed_point_matches_the_reference(problem, data):
    routes, nres, sim, nprocs, req = problem
    caps = np.array(data.draw(st.lists(capacities, min_size=nres, max_size=nres)))
    ref_nprocs, ref_req, new_nprocs, new_size = _per_flow_arrays(sim, nprocs, req)
    ref = reference_solve_one(sim, ReferenceSolver(routes, nres), caps, ref_nprocs, ref_req)
    new = sim._solve_one(MaxMinSolver(routes, nres), caps, new_nprocs, new_size)
    _assert_same_entry(new, ref)


@given(problem=fixed_points(), data=st.data())
@settings(deadline=None)
def test_batched_fixed_point_matches_the_reference(problem, data):
    routes, nres, sim, nprocs, req = problem
    lanes = data.draw(st.integers(1, 4), label="lanes")
    lane_caps = np.array(
        [data.draw(st.lists(capacities, min_size=nres, max_size=nres)) for _ in range(lanes)]
    )
    ref_nprocs, ref_req, new_nprocs, new_size = _per_flow_arrays(sim, nprocs, req)
    refs = reference_solve_lanes(
        sim, ReferenceSolver(routes, nres), lane_caps, ref_nprocs, ref_req
    )
    news = sim._solve_lanes(MaxMinSolver(routes, nres), lane_caps, new_nprocs, new_size)
    assert len(news) == len(refs)
    for new, ref in zip(news, refs):
        _assert_same_entry(new, ref)


# Special values ``np.isclose`` branches on, and near neighbours.
close_values = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, 1.0 + 1e-7, 1.0 + 1e-5]),
    st.sampled_from([1e-10, -1e-10, 2e-9, 5e300, -5e300]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(pairs=st.lists(st.tuples(close_values, close_values), min_size=0, max_size=6))
@example(pairs=[(1.0, math.inf)])
@example(pairs=[(math.inf, math.inf), (-0.0, 0.0)])
@example(pairs=[(math.nan, math.nan)])
@example(pairs=[(-math.inf, math.inf)])
@settings(deadline=None)
def test_allclose_equals_numpy(pairs):
    a = np.array([p[0] for p in pairs], dtype=float)
    b = np.array([p[1] for p in pairs], dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _allclose(a, b) == np.allclose(a, b, rtol=1e-6, atol=1e-9)
        assert _allclose(b, a) == np.allclose(b, a, rtol=1e-6, atol=1e-9)


# -- noise draws -----------------------------------------------------------------

RESOURCE_IDS = (
    "fabric:switch",
    "san:storage",
    "link:storage1",
    "ingest:storage1",
    "pool:storage1",
    "ost:101",
    "ost:102",
    "client:n1",
    "link:n1",
    "ingest:storage2",
    "pool:storage2",
    "ost:201",
)
PREFIXES = ("ost:", "pool:", "san:", "ingest:", "link:", "client:")


class Untouchable:
    """A noise model without ``touches``: drawn for every resource.

    It draws for resources that start with ``prefix`` only, so a caller
    that skipped a resource it does draw for would shift the stream.
    """

    epoch_length_s = 2.0

    def __init__(self, prefix: str):
        self.prefix = prefix

    def multiplier(self, resource_id: str, epoch: int, rng: np.random.Generator) -> float:
        if not resource_id.startswith(self.prefix):
            return 1.0
        return float(rng.uniform(0.5, 1.5))


noise_specs = st.builds(
    NoiseSpec,
    sigma_run=st.sampled_from([0.0, 0.08]),
    sigma_epoch=st.sampled_from([0.0, 0.05]),
    epoch_length_s=st.just(2.0),
    transient_prob=st.sampled_from([0.0, 0.3]),
    transient_severity=st.just(0.5),
    scope_prefixes=st.lists(st.sampled_from(PREFIXES), max_size=3, unique=True).map(tuple),
)
# A recipe builds a fresh model each time: the models keep run state.
member_recipes = st.one_of(
    st.tuples(st.just(StochasticNoise), noise_specs),
    st.tuples(st.just(SharedStateNoise), noise_specs),
    st.tuples(st.just(Untouchable), st.sampled_from(PREFIXES)),
)
noise_recipes = st.one_of(
    member_recipes.map(lambda m: ("single", m)),
    st.lists(member_recipes, min_size=1, max_size=3).map(lambda ms: ("composite", tuple(ms))),
)


def build_noise(recipe):
    kind, members = recipe
    if kind == "single":
        cls, arg = members
        return cls(arg) if cls is Untouchable else cls(spec=arg)
    return CompositeNoise(tuple(build_noise(("single", m)) for m in members))


def _noise_run(recipe, rids, seed):
    sim = FluidSimulation(noise=build_noise(recipe))
    for rid in rids:
        sim.add_resource(rid, 100.0)
    sim.add_flow(FluidFlow("f", (rids[0],), volume_bytes=MiB))
    return fluid._Run(sim, np.random.default_rng(seed), (), 1e7, False, (), [])


@given(
    recipe=noise_recipes,
    rids=st.permutations(RESOURCE_IDS).flatmap(lambda p: st.integers(1, len(p)).map(lambda k: p[:k])),
    seed=st.integers(0, 2**16),
    epochs=st.lists(st.integers(0, 6), min_size=1, max_size=5),
)
@example(
    recipe=("single", (SharedStateNoise, NoiseSpec(scope_prefixes=("pool:", "san:", "ost:")))),
    rids=RESOURCE_IDS,
    seed=0,
    epochs=[0, 1],
).via("the calibrated storage noise")
@settings(deadline=None)
def test_draws_match_an_every_resource_draw(recipe, rids, seed, epochs):
    new_run, ref_run = _noise_run(recipe, rids, seed), _noise_run(recipe, rids, seed)
    for epoch in epochs:
        assert_bits_equal(new_run.draw(epoch), reference_draw(ref_run, epoch))
    assert new_run.rng.bit_generator.state == ref_run.rng.bit_generator.state
    assert new_run.drawn_max == ref_run.drawn_max


# -- population rebuilds -----------------------------------------------------------


class TaggedCapacity:
    """Counts the distinct ``target`` tags of its active flows."""

    distinct_tag = "target"

    def __init__(self, noise_scaled: bool, scale: float):
        self.noise_scaled = noise_scaled
        self.scale = scale

    def capacity(self, ctx: ResourceContext) -> float:
        if ctx.nflows == 0:
            return 0.0
        return (self.scale * ctx.distinct + math.sqrt(ctx.depth)) * ctx.noise


class RampCapacity:
    """A depth ramp that is noise-scaled (the storage models' shape)."""

    noise_scaled = True

    def capacity(self, ctx: ResourceContext) -> float:
        return 900.0 * (1.0 - math.exp(-ctx.depth / 3.0)) * ctx.noise


OUTAGE = FaultSchedule([target_outage(201, 0.0)])


def provider_for(kind: str, i: int):
    """One resource's id and provider, by kind."""
    rid = f"r{i}"
    if kind == "constant":
        return rid, ConstantCapacity(float(100 * (i + 1)))
    if kind == "zero":
        return rid, ConstantCapacity(0.0)
    if kind == "ramp":
        return rid, RampCapacity()
    if kind == "tagged-scaled":
        return rid, TaggedCapacity(True, 50.0 + i)
    if kind == "tagged":
        return rid, TaggedCapacity(False, 50.0 + i)
    if kind == "faulty-tagged":
        return "ost:201", FaultyCapacity(TaggedCapacity(True, 70.0), OUTAGE, "ost:201")
    return "ost:101", FaultyCapacity(RampCapacity(), OUTAGE, "ost:101")


PROVIDER_KINDS = ("constant", "zero", "ramp", "tagged-scaled", "tagged", "faulty-tagged", "faulty")


@st.composite
def populations(draw):
    """A simulation over generated providers and flows, and a retry flag."""
    kinds = draw(st.lists(st.sampled_from(PROVIDER_KINDS), min_size=1, max_size=7))
    sim = FluidSimulation(
        latency=BlockingRequestModel(MiB, 1e-3),
        retry=RetryPolicy() if draw(st.booleans()) else None,
    )
    rids = []
    for i, kind in enumerate(kinds):
        rid, provider = provider_for(kind, i)
        if rid in rids:
            continue
        sim.add_resource(rid, provider)
        rids.append(rid)
    nflows = draw(st.integers(1, 10))
    for j in range(nflows):
        route = draw(st.permutations(rids))[: draw(st.integers(1, len(rids)))]
        sim.add_flow(
            FluidFlow(
                f"f{j}",
                tuple(route),
                volume_bytes=float(draw(st.integers(1, 64))) * MiB,
                # Mostly one weight, so populations often repeat a
                # resource's depth and count with another tag mix.
                weight=draw(st.sampled_from([1.0, 1.0, 1.0, 0.5])),
                nprocs=draw(st.sampled_from([1, 2.5, 8])),
                start_time=draw(st.sampled_from([0.0, 1.0])),
                request_size_bytes=draw(st.sampled_from([None, 65536.0, float(MiB)])),
                tags=draw(st.sampled_from([{}, {"target": 1}, {"target": 2}])),
            )
        )
    observe = tuple(draw(st.lists(st.sampled_from(rids), unique=True, max_size=2)))
    return sim, observe


def _reference_state(run) -> dict:
    reference_rebuild(run)
    return {
        "base": run.base,
        "dynamic": run.dynamic,
        "depth": run.depth,
        "nflows": run.nflows,
        "distinct": run.distinct,
        "memberships": run.memberships,
        "nprocs": run.nprocs,
        "req_sizes": run.req_sizes,
        "obs_members": run.obs_members,
        "rem": run.rem,
        "stalled": getattr(run, "stalled", None),
        "incidence": run.solver.incidence,
    }


def _assert_rebuild_matches(run, ref: dict) -> None:
    assert_bits_equal(run.base, ref["base"])
    assert run.dynamic == ref["dynamic"]
    assert_bits_equal(run.depth, ref["depth"])
    assert_bits_equal(run.nflows, ref["nflows"])
    assert run.distinct == ref["distinct"]
    assert run.memberships == ref["memberships"]
    assert run.obs_members == ref["obs_members"]
    assert_bits_equal(run.rem, ref["rem"])
    if ref["stalled"] is not None:
        assert_bits_equal(run.stalled, ref["stalled"])
    assert_bits_equal(run.solver.incidence, ref["incidence"])
    assert_bits_equal(run.solver._users_all, ref["incidence"].sum(axis=0))
    # The latency caps the fixed point computes from each side's arrays.
    rates = np.linspace(0.0, 500.0, len(run.active))
    with np.errstate(divide="ignore", invalid="ignore"):
        new_caps = run.sim.latency.caps_mib(rates, run.nprocs, run.size_mib)
    ref_caps = reference_flow_caps(run.sim.latency, rates, ref["nprocs"], ref["req_sizes"])
    assert_bits_equal(new_caps, ref_caps)


@given(population=populations(), data=st.data())
@settings(deadline=None)
def test_rebuilds_match_the_per_provider_loop(population, data):
    """Every rebuild of one run, memo included, equals the reference's."""
    sim, observe = population
    run = fluid._Run(sim, None, observe, 1e7, True, (), [])
    for k in range(data.draw(st.integers(1, 6), label="rebuilds")):
        # Any subset of the flows, in any order: retries re-admit flows
        # behind later arrivals.
        order = data.draw(st.permutations(range(len(run.flows))), label=f"order {k}")
        keep = data.draw(st.integers(1, len(run.flows)), label=f"keep {k}")
        run.active = [run.flows[j] for j in order[:keep]]
        run.now = data.draw(st.sampled_from([0.0, 0.5, 3.0]), label=f"now {k}")
        for f in run.active:
            f.remaining_bytes = data.draw(st.sampled_from([f.volume_bytes, 1.5, 0.0]))
            f.stalled_since = data.draw(st.sampled_from([None, 0.25]))
        ref = _reference_state(run)
        run.rebuild_population()
        _assert_rebuild_matches(run, ref)


def test_memo_tells_populations_apart_by_distinct_targets():
    """Two populations with a pool's depth and count equal, tags not."""
    sim = FluidSimulation()
    sim.add_resource("pool", TaggedCapacity(True, 100.0))
    sim.add_flow(FluidFlow("a", ("pool",), MiB, tags={"target": 1}))
    sim.add_flow(FluidFlow("b", ("pool",), MiB, tags={"target": 1}))
    sim.add_flow(FluidFlow("c", ("pool",), MiB, tags={"target": 2}))
    run = fluid._Run(sim, None, (), 1e7, False, (), [])
    a, b, c = run.flows
    for active in ([a, b], [a, c], [a, b]):
        run.active = active
        ref = _reference_state(run)
        run.rebuild_population()
        assert_bits_equal(run.base, ref["base"])


# -- per-application results ---------------------------------------------------------


@pytest.fixture(scope="module")
def two_app_run():
    """A prepared two-application run of the fluid engine."""
    spec = ExperimentSpec(
        "fig12",
        "scenario2",
        {"num_apps": 2, "stripe_count": 4, "num_nodes": 4, "nodes_per_app": 2, "ppn": 4},
    )
    ctx = SimulationService().context(compile_scenario(spec, seed=3, max_nodes=4))
    return ctx.engine, ctx.make_apps()


class DeadUntil:
    """Zero capacity before ``t = 1``, then 500 MiB/s."""

    def capacity(self, ctx: ResourceContext) -> float:
        return 0.0 if ctx.time < 1.0 else 500.0


@given(data=st.data())
@settings(deadline=None)
def test_collect_matches_the_eager_records(two_app_run, data):
    """Per-app sums, spans and tallies equal those over eager ``FlowStats``.

    The flows carry fractional volumes, so a float sum taken in another
    order (the prepare order, say) would differ in the last bits.
    """
    engine, apps = two_app_run
    prepared = engine.prepare(apps, rep=data.draw(st.integers(0, 3), label="rep"))
    faults = data.draw(st.booleans(), label="faults")
    sim = FluidSimulation(
        retry=RetryPolicy(timeout_s=0.3, max_retries=1, backoff_base_s=0.2) if faults else None
    )
    sim.add_resource("link", 1000.0)
    sim.add_resource("dead", DeadUntil())
    flows = []
    ids = data.draw(
        st.lists(st.integers(0, 999), min_size=len(apps), max_size=12, unique=True), label="ids"
    )
    for k, n in enumerate(ids):
        app = apps[k % len(apps)]
        route = ("link", "dead") if faults and data.draw(st.booleans()) else ("link",)
        flows.append(
            FluidFlow(
                f"{app.app_id}:{n}",
                route,
                volume_bytes=data.draw(st.floats(1e3, 1e9), label="volume"),
                start_time=data.draw(st.sampled_from([0.0, 0.0, 0.25])),
                tags={"app": app.app_id},
            )
        )
    sim.add_flows(flows)
    prepared.flows = flows
    fluid_result = sim.run(breakpoints=[1.0])

    ref = reference_collect(engine, prepared, fluid_result)
    new = engine._collect(prepared, fluid_result)
    for a, b in zip(new.apps, ref.apps):
        assert a.start_time.hex() == b.start_time.hex()
        assert a.end_time.hex() == b.end_time.hex()
        assert float(a.volume_bytes).hex() == float(b.volume_bytes).hex()
    assert result_fingerprint(new) == result_fingerprint(ref)
    assert new.resource_series is ref.resource_series
    # The lazily built records equal the eager ones.
    eager = [f.stats() for f in sorted(flows, key=lambda f: (f.start_time, f.flow_id))]
    assert fluid_result.stats == eager
    assert fluid_result.makespan == max(s.finished_at for s in eager)
