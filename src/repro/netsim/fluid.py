"""The fluid (piecewise-constant-rate) simulation engine.

Time is partitioned into segments delimited by flow arrivals, flow
completions and noise epochs.  Within a segment every capacity is
constant, so rates are the max-min fair allocation and volumes advance
linearly; the engine finds the earliest next boundary, integrates, and
repeats.  Complexity is ``O(segments * maxmin)``, which for the paper's
experiments (up to a few hundred flows, a handful to tens of segments)
is a few milliseconds per run: over the fig6 sweep a run averages
about 2.7 ms of CPU, prepare included, on a 2-vCPU x86 host (Python
3.11, numpy 2.4), so a 100-repetition protocol takes about a quarter
of a second per configuration.  A run pays only for what differs
between repetitions: placement, volumes, noise draws and solves.

Capacities may depend on the set of active flows through the resource
(e.g. a storage target whose service rate grows with the number of
outstanding requests) and on multiplicative noise resampled every
*epoch* (the production-system variability of Section III-C).

Each segment runs the same named phases, one method each of the
per-run state ``_Run``: **admit** arrivals and due retries; draw the
**epoch noise**; **rebuild the population** state when the active set
changed; **solve the segment** (max-min rates under the latency-cap
fixed point); find the segment **boundary**; **presolve ahead** the
coming noise epochs of a stable population in one stacked batch;
**observe** (telemetry, invariant checks, series, constraint picture);
**advance** time and **retire** completed, timed-out and abandoned
flows.  No solve is memoized: a segment takes a presolved fixed point
only when its capacity vector matches the prediction bit for bit, and
solves inline otherwise.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Protocol, Sequence

import numpy as np

from ..errors import FlowError, SimulationError
from ..simcore.monitor import TimeSeries
from ..telemetry.bus import get_bus
from ..telemetry.profiling import get_profiler
from .flows import FlowStats, FluidFlow
from .latency import BlockingRequestModel, NoLatency
from .maxmin import MaxMinSolver, _build_incidence, _membership_arrays

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.client_model import RetryPolicy
    from ..verify.invariants import RuntimeChecker

__all__ = [
    "ResourceContext",
    "CapacityProvider",
    "ConstantCapacity",
    "NoiseModel",
    "NoNoise",
    "FlowTraceEvent",
    "FluidSimulation",
    "FluidResult",
    "SegmentDetail",
]

_BYTES_EPS = 1e-3  # a flow with less than this many bytes left is done
# A resource counts as *binding* in a segment when its usage reaches
# this fraction of capacity: blocking-request latency caps legitimately
# hold flows a few percent below the saturating resource, so exact
# saturation would under-attribute (see analysis.bottleneck).
_BINDING_UTILIZATION = 0.94
_TIME_EPS = 1e-12
_RATE_EPS = 1e-9  # MiB/s below which a flow counts as stalled (no progress)
# Noise epochs presolved ahead per batch when the population is stable:
# their capacity vectors are predicted, solved in one stacked
# ``MaxMinSolver.solve_batch`` call, and handed to the segments that
# reach them.
_PRESOLVE_EPOCHS = 8


@dataclass(frozen=True)
class ResourceContext:
    """What a capacity provider may depend on, for one segment."""

    time: float
    depth: float  # sum of depth weights of active flows through the resource
    nflows: int  # number of active flows through the resource
    noise: float  # multiplicative noise for this epoch (1.0 when noiseless)
    distinct: int = 1  # distinct values of the provider's ``distinct_tag``


def _distinct_tag_of(provider: object) -> str | None:
    """Tag key a provider wants counted across its active flows, if any."""
    return getattr(provider, "distinct_tag", None)


class CapacityProvider(Protocol):
    """Anything that yields a capacity (MiB/s) for a segment context.

    A provider may additionally declare ``noise_scaled = True`` as a
    promise that its capacity is a constant times ``ctx.noise`` for any
    fixed active-flow population — i.e. it ignores ``ctx.time`` and
    ``capacity(ctx) == capacity(ctx with noise=1.0) * ctx.noise`` bit
    for bit (``x * 1.0 == x`` in IEEE arithmetic, so returning
    ``f(ctx) * ctx.noise`` satisfies this automatically).  The fluid
    engine folds declared providers into one per-population base vector
    and evaluates whole segments — and batches of future noise epochs —
    with a single elementwise multiply instead of per-resource Python
    calls.  Both engines memoize a declared provider's noise-free
    capacity per run on (resource, depth, nflows, distinct), so a
    population that repeats those inputs makes no call; a
    :class:`ConstantCapacity` is read once per run.  Providers that do
    not declare it are evaluated exactly as before, one call per
    segment (or DES event).
    """

    def capacity(self, ctx: ResourceContext) -> float:  # pragma: no cover
        ...


@dataclass(frozen=True)
class ConstantCapacity:
    """A fixed-capacity resource (a plain link); noise still applies."""

    mib_s: float

    noise_scaled = True

    def __post_init__(self) -> None:
        if self.mib_s < 0:
            raise FlowError(f"negative capacity {self.mib_s}")

    def capacity(self, ctx: ResourceContext) -> float:
        return self.mib_s * ctx.noise


class NoiseModel(Protocol):
    """Multiplicative capacity noise, piecewise-constant per epoch.

    A model may also define ``touches(resource_id) -> bool``, a promise
    that for every resource it returns False for, ``multiplier`` returns
    exactly 1.0 and draws nothing from the generator.  The engines then
    call ``multiplier`` only for touched resources, in resource order,
    and leave every other multiplier at 1.0; a model without
    ``touches`` is drawn for every resource.
    """

    @property
    def epoch_length_s(self) -> float:  # pragma: no cover
        """Correlation time of the noise (``inf`` = one draw per run)."""
        ...

    def multiplier(
        self, resource_id: str, epoch: int, rng: np.random.Generator
    ) -> float:  # pragma: no cover
        ...


class NoNoise:
    """The noiseless model: every multiplier is exactly 1."""

    epoch_length_s = math.inf

    def touches(self, resource_id: str) -> bool:
        return False

    def multiplier(self, resource_id: str, epoch: int, rng: np.random.Generator) -> float:
        return 1.0


def _touched_resources(noise: NoiseModel, rids: Sequence[str]) -> list[tuple[int, str]]:
    """``(index, id)`` of every resource ``noise`` may draw for, in resource order."""
    touches = getattr(noise, "touches", None)
    return [(i, rid) for i, rid in enumerate(rids) if touches is None or touches(rid)]


def _allclose(a: np.ndarray, b: np.ndarray, rtol: float = 1e-6, atol: float = 1e-9) -> bool:
    """``np.allclose(a, b, rtol, atol)`` for float arrays, without its wrapper layers.

    It computes ``np.isclose``'s own expression.  ``& isfinite(b)``
    keeps a finite value from counting as close to an infinite one
    (``|a - inf| <= rtol * inf`` holds); two infinite caps, such as a
    zero-rate flow's, agree through ``a == b``.  Call it under
    ``np.errstate(invalid="ignore")``: ``inf - inf`` is NaN.
    """
    close = (np.abs(a - b) <= atol + rtol * np.abs(b)) & np.isfinite(b) | (a == b)
    return bool(np.logical_and.reduce(close, axis=None))


@dataclass(frozen=True)
class SegmentDetail:
    """One piecewise-constant segment's constraint picture.

    ``binding`` lists the resources that were saturated during the
    segment (the constraints that set the rates); ``utilization`` maps
    every resource with active flows to usage/capacity;
    ``latency_capped`` counts flows held below their fair share by the
    blocking-request cap rather than by any resource.
    """

    start: float
    duration: float
    binding: tuple[str, ...]
    utilization: dict[str, float]
    latency_capped: int


@dataclass(frozen=True)
class FlowTraceEvent:
    """One client robustness decision: a chunk-request timeout outcome.

    ``action`` is ``"retry"`` (the flow backs off and will be retried)
    or ``"abandon"`` (retries exhausted; the flow ends incomplete).
    ``attempt`` is the 1-based count of timeouts the flow has suffered.
    """

    time: float
    flow_id: str
    action: str
    attempt: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "time": float(self.time),
            "flow_id": self.flow_id,
            "action": self.action,
            "attempt": int(self.attempt),
        }


@dataclass
class FluidResult:
    """Outcome of a fluid simulation run.

    ``flows`` are the run's flows in their final state, in (start time,
    flow id) order.  ``stats``, one :class:`FlowStats` per flow in that
    order, is built on first access: the fluid engine reads its
    per-application totals from ``flows`` and never builds it.
    """

    flows: list[FluidFlow] = field(repr=False)
    makespan: float
    segments: int
    resource_series: dict[str, TimeSeries] = field(default_factory=dict)
    segment_details: list[SegmentDetail] = field(default_factory=list)
    trace: list[FlowTraceEvent] = field(default_factory=list)

    @cached_property
    def stats(self) -> list[FlowStats]:
        """Completion records of every flow, in ``flows`` order."""
        return [f.stats() for f in self.flows]

    def total_delivered(self, stats: Sequence[FlowStats] | None = None) -> float:
        """Bytes that actually moved (equals total_volume when no faults)."""
        chosen = self.stats if stats is None else list(stats)
        return float(sum(s.payload_bytes for s in chosen))

    def stats_by_tag(self, key: str, value: object) -> list[FlowStats]:
        """Completion records of flows tagged ``key=value``."""
        return [s for s in self.stats if s.tags.get(key) == value]

    def span(self, stats: Sequence[FlowStats] | None = None) -> tuple[float, float]:
        """(earliest start, latest finish) over the given flows (or all)."""
        chosen = self.stats if stats is None else list(stats)
        if not chosen:
            raise FlowError("no flows to span")
        return (min(s.started_at for s in chosen), max(s.finished_at for s in chosen))

    def total_volume(self, stats: Sequence[FlowStats] | None = None) -> float:
        chosen = self.stats if stats is None else list(stats)
        return float(sum(s.volume_bytes for s in chosen))


class FluidSimulation:
    """Build-and-run container for one fluid simulation.

    Typical use::

        sim = FluidSimulation()
        sim.add_resource("link:a", 1100.0)
        sim.add_flow(FluidFlow("f1", ("link:a",), volume_bytes=32 * GiB))
        result = sim.run()
    """

    def __init__(
        self,
        noise: NoiseModel | None = None,
        latency: BlockingRequestModel | NoLatency | None = None,
        cap_iterations: int = 4,
        retry: "RetryPolicy | None" = None,
        checker: "RuntimeChecker | None" = None,
    ):
        self._providers: dict[str, CapacityProvider] = {}
        self._flows: list[FluidFlow] = []
        self._flow_ids: set[str] = set()
        self.noise: NoiseModel = noise if noise is not None else NoNoise()
        self.latency = latency if latency is not None else NoLatency()
        self.cap_iterations = cap_iterations
        # Runtime invariant checker (see repro.verify.invariants): when
        # set, every segment's solve is certified and byte conservation
        # is enforced at the end of the run.  ``None`` costs nothing.
        self.checker = checker
        # Client robustness: when set, a flow whose rate stays at zero
        # for ``retry.timeout_s`` is pulled off the wire, backs off, and
        # re-enters; after ``retry.max_retries`` timeouts it is abandoned
        # and the run degrades to a partial result.  When ``None`` (the
        # default) a permanently-stalled flow is a loud SimulationError,
        # exactly as before fault injection existed.
        self.retry = retry

    # -- construction --------------------------------------------------------

    def add_resource(self, resource_id: str, capacity: CapacityProvider | float) -> None:
        """Register a resource; a bare float means a constant capacity."""
        if resource_id in self._providers:
            raise FlowError(f"duplicate resource {resource_id!r}")
        if isinstance(capacity, (int, float)):
            capacity = ConstantCapacity(float(capacity))
        self._providers[resource_id] = capacity

    def add_flow(self, flow: FluidFlow) -> None:
        missing = [r for r in flow.resources if r not in self._providers]
        if missing:
            raise FlowError(f"flow {flow.flow_id!r}: unknown resources {missing}")
        if flow.flow_id in self._flow_ids:
            raise FlowError(f"duplicate flow id {flow.flow_id!r}")
        self._flow_ids.add(flow.flow_id)
        self._flows.append(flow)

    def add_flows(self, flows: Iterable[FluidFlow]) -> None:
        for flow in flows:
            self.add_flow(flow)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        rng: np.random.Generator | None = None,
        observe: Sequence[str] = (),
        max_time: float = 1e7,
        detail: bool = False,
        breakpoints: Sequence[float] = (),
    ) -> FluidResult:
        """Run to completion (or abandonment) of all flows.

        Parameters
        ----------
        rng:
            Generator for the noise model (unused when noiseless).
        observe:
            Resource ids whose aggregate throughput should be recorded
            as a :class:`~repro.simcore.monitor.TimeSeries` (this is the
            data behind the paper's Figure 9).
        max_time:
            Hard stop to turn accidental stalls into loud errors.
        detail:
            Record a :class:`SegmentDetail` per segment (binding
            resources, utilizations) for bottleneck attribution.
        breakpoints:
            Extra segment boundaries (instants at which time-dependent
            capacities change, e.g. fault starts/recoveries), so no
            capacity transition is averaged into a segment.
        """
        trace: list[FlowTraceEvent] = []
        try:
            if not self._flows:
                raise FlowError("no flows to simulate")
            for rid in observe:
                if rid not in self._providers:
                    raise FlowError(f"cannot observe unknown resource {rid!r}")
            return _Run(self, rng, observe, max_time, detail, breakpoints, trace).execute()
        except Exception as exc:
            # A failed run has no FluidResult to carry its trace, so the
            # retry/abandon history rides on the exception instead —
            # ProtocolRunner persists it into FailedRunRecord so resumed
            # campaign reports stay complete.
            exc.flow_trace = tuple(e.to_dict() for e in trace)
            exc.flow_retries = sum(1 for e in trace if e.action == "retry")
            raise

    def _solve_one(
        self,
        solver: MaxMinSolver,
        capacities: np.ndarray,
        nprocs: np.ndarray,
        size_mib: np.ndarray,
    ) -> tuple:
        """One segment's latency-cap fixed point: ``(rates, caps, caps_used, iterations)``.

        Latency caps are seeded from the uncapped (offered) shares and
        only allowed to rise afterwards (see ``solve_with_caps``).
        ``caps_used`` is the cap vector the final ``rates`` were solved
        against (``caps`` may already hold the next iterate), which is
        what the fairness certificate needs.  ``nprocs`` and
        ``size_mib`` (request sizes in MiB) are the population's float
        arrays.
        """
        iterations = 1
        flow_caps = self.latency.caps_mib
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = solver.solve(capacities)
            caps = flow_caps(rates, nprocs, size_mib)
            caps_used = None
            for _ in range(self.cap_iterations):
                caps_used = caps
                iterations += 1
                rates = solver.solve(capacities, caps)
                new_caps = np.maximum(caps, flow_caps(rates, nprocs, size_mib))
                if _allclose(new_caps, caps):
                    break
                caps = new_caps
        return rates, caps, caps_used, iterations

    def _solve_lanes(
        self,
        solver: MaxMinSolver,
        lane_caps: np.ndarray,
        nprocs: np.ndarray,
        size_mib: np.ndarray,
    ) -> list[tuple]:
        """Solve a stacked batch of segment capacity vectors.

        Runs the same latency-cap fixed point as :meth:`_solve_one`, but
        with every lane's max-min allocation computed in one
        :meth:`MaxMinSolver.solve_batch` call per iteration.  Each
        lane's trajectory — rates, caps, the cap vector solved against,
        iteration count — is bit-identical to the scalar path, so a
        segment that takes a presolved entry gets exactly the result it
        would have solved itself.
        """
        lanes = lane_caps.shape[0]
        flow_caps = self.latency.caps_mib
        with np.errstate(divide="ignore", invalid="ignore"):
            first = solver.solve_batch(lane_caps)
            out_rates = [first[b] for b in range(lanes)]
            caps = [flow_caps(first[b], nprocs, size_mib) for b in range(lanes)]
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
                    new_caps = np.maximum(caps[b], flow_caps(solved[k], nprocs, size_mib))
                    if _allclose(new_caps, caps[b]):
                        continue
                    caps[b] = new_caps
                    nxt.append(b)
                live = nxt
        return [(out_rates[b], caps[b], caps_used[b], iters[b]) for b in range(lanes)]


class _Run:
    """The mutable state of one :meth:`FluidSimulation.run`.

    :meth:`execute` is the segment loop; every other method is one of its
    phases.  Population state (incidence, base capacities, per-flow
    arrays) is rebuilt only when the active flow set changes, by
    gathering the active rows of per-flow arrays laid out once per run.
    Between rebuilds the per-flow ``rem`` and ``stalled`` arrays are
    authoritative; :meth:`flush` writes them back into the flow objects
    (exactly the values a per-flow loop would have left there).
    """

    def __init__(
        self,
        sim: FluidSimulation,
        rng: np.random.Generator | None,
        observe: Sequence[str],
        max_time: float,
        detail: bool,
        breakpoints: Sequence[float],
        trace: list[FlowTraceEvent],
    ):
        # Telemetry handles, hoisted once per run.  With no sinks and no
        # profiler these reduce to boolean attribute checks in the loop;
        # neither touches the RNG or any simulation state, which is what
        # keeps telemetry-off runs byte-identical.
        self.bus = get_bus()
        self.prof = get_profiler()
        self.profiled = self.prof.enabled
        self.sim = sim
        self.retry = sim.retry
        self.checker = sim.checker
        self.observe_ids = observe
        self.max_time = max_time
        self.detail = detail
        self.trace = trace
        self.rids = list(sim._providers)
        self.providers = [sim._providers[rid] for rid in self.rids]
        self.rid_index = {rid: i for i, rid in enumerate(self.rids)}
        self.flows = sorted(sim._flows, key=lambda f: (f.start_time, f.flow_id))
        n = len(self.rids)
        # A flow's resource indices, and the value it shows each provider
        # that counts a distinct tag, are fixed for the run.
        tags = [_distinct_tag_of(p) for p in self.providers]
        tag_of = {i: tag for i, tag in enumerate(tags) if tag is not None}
        index_of = self.rid_index.__getitem__
        self.members: dict[str, tuple[int, ...]] = {}
        self.tag_values: dict[str, list[tuple[int, Any]]] = {}
        for f in self.flows:
            idxs = self.members[f.flow_id] = tuple(map(index_of, f.resources))
            self.tag_values[f.flow_id] = [(i, f.tags.get(tag_of[i])) for i in idxs if i in tag_of]
        # One row per flow, in ``flows`` order: the memberships in CSR
        # form (row j's resources are ``route_flat[route_start[j]:]``,
        # ``route_len[j]`` of them) and as an incidence matrix validated
        # here once, the depth weights, process counts and request sizes
        # in MiB.  A rebuild gathers the active rows.
        self.row_of = {id(f): j for j, f in enumerate(self.flows)}
        routes = [self.members[f.flow_id] for f in self.flows]
        self.route_len, self.route_flat = _membership_arrays(routes)
        self.route_start = np.cumsum(self.route_len) - self.route_len
        self.incidence = _build_incidence(routes, n)
        self.flow_weight = np.array([f.weight for f in self.flows], dtype=float)
        self.flow_nprocs = np.array([f.nprocs for f in self.flows], dtype=float)
        self.flow_size_mib = sim.latency.request_sizes_mib(
            np.array(
                [np.nan if f.request_size_bytes is None else f.request_size_bytes for f in self.flows],
                dtype=float,
            )
        )
        # How a rebuild gets each provider's noise-free capacity: a
        # ``ConstantCapacity`` is its ``mib_s`` (``mib_s * 1.0``) for the
        # whole run; another noise-scaled provider is memoized per run on
        # (resource, depth, nflows, distinct), the only inputs it reads;
        # the rest are called every segment (see ``capacities``).
        self.const_base = np.zeros(n)
        self.scaled: list[tuple[int, CapacityProvider]] = []
        self.dynamic_idx: list[int] = []
        for i, provider in enumerate(self.providers):
            if type(provider) is ConstantCapacity:
                self.const_base[i] = provider.mib_s
            elif getattr(provider, "noise_scaled", False):
                self.scaled.append((i, provider))
            else:
                self.dynamic_idx.append(i)
        self.scaled_memo: dict[tuple[int, float, int, int], float] = {}
        if self.checker is not None:
            self.checker.bind_resources(self.rids)
            for flow in self.flows:
                self.checker.expect_bytes(self.members[flow.flow_id], flow.volume_bytes)
        self.next_flow = 0  # index into ``flows`` of the next arrival
        self.active: list[FluidFlow] = []
        # Flows sleeping out a retry backoff: (ready_time, seq, flow).
        self.retry_heap: list[tuple[float, int, FluidFlow]] = []
        self.retry_seq = 0
        self.series = {rid: TimeSeries() for rid in observe}
        self.bounds = tuple(sorted({float(b) for b in breakpoints}))
        self.now = self.flows[0].start_time
        self.segments = 0
        self.solver_iterations = 0
        self.details: list[SegmentDetail] = []

        self.noise = sim.noise
        self.rng = rng
        self.epoch_len = self.noise.epoch_length_s
        self.has_epochs = math.isfinite(self.epoch_len)
        self.noisy = rng is not None and not isinstance(self.noise, NoNoise)
        self.touched = _touched_resources(self.noise, self.rids) if self.noisy else []
        self.multipliers = np.ones(n)
        self.epoch = -1
        # Noise epochs drawn ahead for presolved segments, and the
        # highest epoch drawn so far (ahead or lazily).
        self.predrawn: dict[int, np.ndarray] = {}
        self.drawn_max = -1

        self.members_dirty = True
        self.arrays_valid = False
        # Presolved fixed points keyed on their predicted capacity bytes,
        # popped on use and dropped with the population.
        self.presolved: dict[bytes, tuple] = {}
        self.presolve_horizon = -1

    def execute(self) -> FluidResult:
        while self.next_flow < len(self.flows) or self.active or self.retry_heap:
            if not self.admit():
                continue
            epoch = self.epoch_noise()
            if self.members_dirty:
                self.rebuild_population()
            capacities = self.capacities()
            rates, caps, caps_used, iterations = self.solve_segment(capacities)
            rates_bytes = rates * 1024.0**2
            stall_mask = self.stall_clocks(rates)
            dt, first_done = self.boundary(epoch, rates_bytes, stall_mask)
            self.presolve_ahead(epoch, first_done)
            self.observe(dt, capacities, rates, caps, caps_used, iterations)
            self.advance(dt, rates_bytes, stall_mask)
        return self.finish()

    def admit(self) -> bool:
        """Admit due arrivals and retries; False after skipping an idle gap."""
        now, flows, heap = self.now, self.flows, self.retry_heap
        due = now + _TIME_EPS
        arriving = self.next_flow < len(flows) and flows[self.next_flow].start_time <= due
        if self.arrays_valid and (arriving or (heap and heap[0][0] <= due)):
            self.flush()
        while self.next_flow < len(flows) and flows[self.next_flow].start_time <= due:
            flow = flows[self.next_flow]
            self.next_flow += 1
            flow.started_at = now
            self.active.append(flow)
            self.members_dirty = True
            if self.bus.debug:
                self.bus.emit("flow.start", t=now, flow_id=flow.flow_id)
        while heap and heap[0][0] <= due:
            self.active.append(heapq.heappop(heap)[2])
            self.members_dirty = True
        if self.active:
            return True
        # Idle gap until the next arrival or retry wake-up: the observed
        # series must record zero throughput, or integration would
        # extend the previous segment's rate across the gap.
        for rid in self.observe_ids:
            self.series[rid].append(now, 0.0)
        next_times = [flows[self.next_flow].start_time] if self.next_flow < len(flows) else []
        if heap:
            next_times.append(heap[0][0])
        self.now = min(next_times)
        return False

    def epoch_noise(self) -> int:
        """The current noise epoch; entering one sets its multipliers."""
        epoch = int(self.now / self.epoch_len) if self.has_epochs else 0
        if epoch != self.epoch:
            self.epoch = epoch
            if self.noisy:
                row = self.predrawn.pop(epoch, None)
                self.multipliers = self.draw(epoch) if row is None else row
        return epoch

    def draw(self, epoch: int) -> np.ndarray:
        """One epoch's noise multipliers, drawn in resource order.

        Only the touched resources are drawn for; the rest stay 1.0.
        """
        row = np.ones(len(self.rids))
        multiplier, rng = self.noise.multiplier, self.rng
        for i, rid in self.touched:
            row[i] = multiplier(rid, epoch, rng)
        self.drawn_max = max(self.drawn_max, epoch)
        return row

    def rebuild_population(self) -> None:
        """Per-resource inputs, solver and per-flow arrays of the active set.

        All of it depends only on the active population, not on time or
        noise.
        """
        n, now, active = len(self.rids), self.now, self.active
        row_of = self.row_of
        rows = np.fromiter([row_of[id(f)] for f in active], dtype=np.intp, count=len(active))
        # The active rows' memberships, flow by flow in active order:
        # ``bincount`` adds in input order, each flow's resources in route
        # order, as a per-membership loop would.
        counts = self.route_len[rows]
        ends = np.cumsum(counts)
        flat = self.route_flat[
            np.arange(ends[-1]) + np.repeat(self.route_start[rows] - (ends - counts), counts)
        ]
        depth = np.bincount(flat, weights=np.repeat(self.flow_weight[rows], counts), minlength=n)
        nflows = np.bincount(flat, minlength=n)
        tag_sets: dict[int, set] = {}
        tag_values = self.tag_values
        for flow in active:
            for i, value in tag_values[flow.flow_id]:
                tag_sets.setdefault(i, set()).add(value)
        distinct = {i: len(values) for i, values in tag_sets.items()}
        # Fold noise-scaled providers into one base vector: for them
        # ``capacity == base * noise`` bit for bit, so each segment needs
        # a single elementwise multiply.  The rest keep their per-segment
        # Python call.
        base = self.const_base.copy()
        memo = self.scaled_memo
        depth_of, nflows_of = depth.tolist(), nflows.tolist()
        for i, provider in self.scaled:
            key = (i, depth_of[i], nflows_of[i], distinct.get(i, 1))
            cap = memo.get(key)
            if cap is None:
                cap = memo[key] = provider.capacity(
                    ResourceContext(now, depth[i], nflows_of[i], 1.0, key[3])
                )
            base[i] = cap
        self.base = base
        self.dynamic = [(i, self.providers[i], distinct.get(i, 1)) for i in self.dynamic_idx]
        self.depth, self.nflows, self.distinct = depth, nflows, distinct
        incidence = self.incidence[rows]
        self.memberships = [self.members[f.flow_id] for f in active]
        self.nprocs = self.flow_nprocs[rows]
        self.size_mib = self.flow_size_mib[rows]
        self.obs_members = [
            (rid, np.flatnonzero(incidence[:, self.rid_index[rid]]).tolist())
            for rid in self.observe_ids
        ]
        self.rem = np.array([f.remaining_bytes for f in active], dtype=float)
        if self.retry is not None:
            self.stalled = np.array(
                [np.nan if f.stalled_since is None else f.stalled_since for f in active],
                dtype=float,
            )
        self.solver = MaxMinSolver.from_incidence(incidence)
        self.presolved = {}
        self.presolve_horizon = -1
        self.arrays_valid = True
        self.members_dirty = False

    def capacities(self) -> np.ndarray:
        """The segment's capacity vector."""
        capacities = self.base * self.multipliers
        for i, provider, ctx_distinct in self.dynamic:
            capacities[i] = provider.capacity(
                ResourceContext(
                    self.now, self.depth[i], int(self.nflows[i]), self.multipliers[i], ctx_distinct
                )
            )
        if np.count_nonzero(capacities < 0):
            raise SimulationError("capacity provider returned a negative capacity")
        return capacities

    def solve_segment(self, capacities: np.ndarray) -> tuple:
        """The presolved fixed point of this exact capacity vector, else an inline solve."""
        solve_t0 = perf_counter() if self.profiled else 0.0
        entry = self.presolved.pop(capacities.tobytes(), None) if self.presolved else None
        if entry is None:
            entry = self.sim._solve_one(self.solver, capacities, self.nprocs, self.size_mib)
        self.solver_iterations += entry[3]
        if self.profiled:
            self.prof.record("fluid.solve", perf_counter() - solve_t0)
        return entry

    def stall_clocks(self, rates: np.ndarray) -> np.ndarray | None:
        """Stalled-flow mask under a retry policy (None without one).

        A zero-rate flow is a chunk request making no progress: start (or
        keep) its stall clock; any progress clears it.
        """
        if self.retry is None:
            return None
        stalled = self.stalled
        self.stalled = np.where(
            rates <= _RATE_EPS, np.where(np.isnan(stalled), self.now, stalled), np.nan
        )
        return ~np.isnan(self.stalled)

    def boundary(
        self, epoch: int, rates_bytes: np.ndarray, stall_mask: np.ndarray | None
    ) -> tuple[float, float]:
        """``(dt, first_done)``: the segment length and the first completion.

        The segment ends at the earliest completion, arrival, epoch end,
        capacity breakpoint, retry wake-up or stall timeout.
        """
        now = self.now
        dt = math.inf
        first_done = math.inf
        moving = rates_bytes > 0
        if np.count_nonzero(moving):
            first_done = np.minimum.reduce(self.rem[moving] / rates_bytes[moving])
            dt = min(dt, first_done)
        if self.next_flow < len(self.flows):
            dt = min(dt, self.flows[self.next_flow].start_time - now)
        if self.has_epochs:
            dt = min(dt, (epoch + 1) * self.epoch_len - now)
        if self.bounds:
            nxt = bisect_right(self.bounds, now + _TIME_EPS)
            if nxt < len(self.bounds):
                dt = min(dt, self.bounds[nxt] - now)
        if self.retry_heap:
            dt = min(dt, self.retry_heap[0][0] - now)
        if stall_mask is not None and np.count_nonzero(stall_mask):
            dt = min(
                dt, np.minimum.reduce((self.stalled[stall_mask] + self.retry.timeout_s) - now)
            )
        if not math.isfinite(dt) or dt < 0:
            stuck = [f.flow_id for f in self.active]
            raise SimulationError(f"fluid simulation stalled at t={now}: flows {stuck}")
        return max(dt, 0.0), first_done

    def presolve_ahead(self, epoch: int, first_done: float) -> None:
        """Solve the coming noise epochs of a stable population as one batch.

        Only a stable population with predictable capacities qualifies:
        every provider noise-scaled, no future arrivals, no retries.  The
        noise of the epochs up to the estimated first completion is drawn
        ahead, their capacity vectors predicted and solved in one stacked
        batch.  The per-(resource, epoch) draw order is exactly the lazy
        order, and with no arrivals and no retries no idle gap can skip
        an epoch, so drawing ahead is byte-safe.  The rng is the per-run
        "noise" stream and is never touched after the run, so draws
        beyond the final epoch are inert.  A wrong prediction is never
        used: its capacity bytes match no segment.
        """
        if not (
            self.has_epochs
            and self.noisy
            and not self.dynamic
            and self.retry is None
            and self.next_flow >= len(self.flows)
            and not self.retry_heap
            and math.isfinite(first_done)
        ):
            return
        start = max(epoch, self.presolve_horizon) + 1
        horizon = min(epoch + _PRESOLVE_EPOCHS, int((self.now + first_done) / self.epoch_len))
        if horizon < start:
            return
        presolve_t0 = perf_counter() if self.profiled else 0.0
        for e in range(self.drawn_max + 1, horizon + 1):
            self.predrawn[e] = self.draw(e)
        lanes: dict[bytes, np.ndarray] = {}
        for e in range(start, horizon + 1):
            caps_e = self.base * self.predrawn[e]
            if np.count_nonzero(caps_e < 0):
                # The segment loop raises the usual SimulationError there.
                break
            key = caps_e.tobytes()
            if key not in self.presolved:
                lanes.setdefault(key, caps_e)
        if lanes:
            entries = self.sim._solve_lanes(
                self.solver, np.stack(list(lanes.values())), self.nprocs, self.size_mib
            )
            self.presolved.update(zip(lanes, entries))
        if self.profiled:
            self.prof.record("fluid.presolve", perf_counter() - presolve_t0)
        self.presolve_horizon = horizon

    def observe(
        self,
        dt: float,
        capacities: np.ndarray,
        rates: np.ndarray,
        caps: np.ndarray,
        caps_used: np.ndarray | None,
        iterations: int,
    ) -> None:
        """Report the segment: telemetry, invariant checks, series, detail."""
        now = self.now
        if self.bus.debug:
            self.bus.emit(
                "segment.solve", t=now, dt=float(dt), active=len(self.active), iterations=iterations
            )
        if self.checker is not None:
            self.checker.on_segment(
                now,
                dt,
                capacities,
                self.memberships,
                rates,
                flow_caps=caps_used,
                flow_labels=[f.flow_id for f in self.active],
            )
        for rid, member_js in self.obs_members:
            self.series[rid].append(now, float(sum(rates[j] for j in member_js)))
        if self.detail:
            self.details.append(self.segment_detail(dt, capacities, rates, caps))

    def segment_detail(
        self, dt: float, capacities: np.ndarray, rates: np.ndarray, caps: np.ndarray
    ) -> SegmentDetail:
        usage = np.zeros(len(self.rids))
        for idxs, rate in zip(self.memberships, rates):
            for i in idxs:
                usage[i] += rate
        utilization = {}
        binding = []
        for i, rid in enumerate(self.rids):
            if self.nflows[i] == 0:
                continue
            cap = capacities[i]
            utilization[rid] = float(usage[i] / cap) if cap > 0 else 1.0
            if usage[i] >= _BINDING_UTILIZATION * cap:
                binding.append(rid)
        latency_capped = int(np.sum((caps < np.inf) & (rates >= caps - 1e-9)))
        return SegmentDetail(
            start=self.now,
            duration=dt,
            binding=tuple(binding),
            utilization=utilization,
            latency_capped=latency_capped,
        )

    def advance(
        self, dt: float, rates_bytes: np.ndarray, stall_mask: np.ndarray | None
    ) -> None:
        """Integrate the segment; retire flows that complete or time out in it."""
        self.now += dt
        now = self.now
        if now > self.max_time:
            raise SimulationError(f"fluid simulation exceeded max_time={self.max_time}")
        self.rem = self.rem - rates_bytes * dt
        done_mask = self.rem <= _BYTES_EPS
        changed = bool(np.count_nonzero(done_mask))
        if stall_mask is not None:
            timed_mask = (
                ~done_mask & stall_mask & (now >= (self.stalled + self.retry.timeout_s) - _TIME_EPS)
            )
            changed = changed or bool(np.count_nonzero(timed_mask))
        if changed:
            self.retire()
        self.segments += 1

    def flush(self) -> None:
        """Write the per-flow arrays back into the flow objects."""
        for j, flow in enumerate(self.active):
            flow.remaining_bytes = float(self.rem[j])
        if self.retry is not None:
            for j, flow in enumerate(self.active):
                s = self.stalled[j]
                flow.stalled_since = None if math.isnan(s) else float(s)
        self.arrays_valid = False

    def retire(self) -> None:
        """Per-flow slow path: completions, chunk-request timeouts."""
        self.flush()
        now, policy = self.now, self.retry
        still_active: list[FluidFlow] = []
        for flow in self.active:
            if flow.remaining_bytes <= _BYTES_EPS:
                flow.remaining_bytes = 0.0
                flow.finished_at = now
            elif (
                policy is not None
                and flow.stalled_since is not None
                and now >= flow.stalled_since + policy.timeout_s - _TIME_EPS
            ):
                self.time_out(flow)
            else:
                still_active.append(flow)
        if len(still_active) != len(self.active):
            self.members_dirty = True
        self.active = still_active

    def time_out(self, flow: FluidFlow) -> None:
        """Back off and retry, or abandon once the retry budget is spent."""
        now, policy = self.now, self.retry
        flow.attempts += 1
        flow.stalled_since = None
        if flow.attempts > policy.max_retries:
            flow.abandoned = True
            flow.finished_at = now
            self.trace.append(FlowTraceEvent(now, flow.flow_id, "abandon", flow.attempts))
            if self.bus.enabled:
                self.bus.emit("flow.abandon", t=now, flow_id=flow.flow_id, attempt=flow.attempts)
            if self.checker is not None:
                self.checker.retract_bytes(self.members[flow.flow_id], flow.remaining_bytes)
        else:
            self.trace.append(FlowTraceEvent(now, flow.flow_id, "retry", flow.attempts))
            if self.bus.enabled:
                self.bus.emit("flow.retry", t=now, flow_id=flow.flow_id, attempt=flow.attempts)
            self.retry_seq += 1
            ready = now + policy.backoff_s(flow.attempts)
            heapq.heappush(self.retry_heap, (ready, self.retry_seq, flow))

    def finish(self) -> FluidResult:
        for rid in self.observe_ids:
            self.series[rid].append(self.now, 0.0)
        if self.checker is not None:
            for flow in self.flows:
                self.checker.flow_complete(
                    flow.flow_id, flow.volume_bytes, flow.remaining_bytes, flow.abandoned
                )
            self.checker.finish()
        if self.bus.enabled:
            metrics = self.bus.metrics
            metrics.counter("engine.segments_solved", engine="fluid").inc(self.segments)
            metrics.counter("engine.solver_iterations", engine="fluid").inc(self.solver_iterations)
        return FluidResult(
            flows=self.flows,
            makespan=max(math.nan if f.finished_at is None else f.finished_at for f in self.flows),
            segments=self.segments,
            resource_series=self.series,
            segment_details=self.details,
            trace=self.trace,
        )
