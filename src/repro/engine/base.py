"""Shared engine machinery: preparing a run.

Both engines perform the same setup — build a fresh file system for the
repetition, create the applications' files through the metadata path
(chooser included), derive per-(node, target) volumes, and wire the
calibrated capacity providers (built once per engine and node map, and
shared by its repetitions).  :class:`EngineBase` owns that; subclasses
integrate time differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..beegfs.filesystem import BeeGFS, BeeGFSDeploymentSpec
from ..beegfs.meta import FileInode
from ..beegfs.striping import _bytes_per_position
from ..calibration.plafrim import Calibration
from ..errors import ExperimentError, SimulationError
from ..faults import FaultSchedule, publish_schedule, wrap_providers
from ..netsim.flows import FluidFlow
from ..netsim.fluid import CapacityProvider, ConstantCapacity, NoiseModel, NoNoise
from ..netsim.latency import BlockingRequestModel
from ..rng import SeedTree, stable_hash32
from ..storage.client_model import RetryPolicy
from ..storage.san import SanModel
from ..storage.server import ServerIngestModel, StorageHostSpec, StoragePoolModel
from ..storage.target import StorageTargetModel
from ..telemetry.bus import get_bus
from ..telemetry.profiling import get_profiler
from ..topology.builders import SWITCH_NAME
from ..topology.graph import Topology
from ..verify.invariants import RuntimeChecker, make_checker
from ..verify.level import ValidationLevel
from ..workload.application import Application
from ..workload.patterns import AccessPattern, IORConfig

__all__ = [
    "EngineOptions",
    "PreparedRun",
    "EngineBase",
    "ValidationLevel",
    "FABRIC_RESOURCE",
    "SAN_RESOURCE",
]

# Beyond this many per-rank regions, per-target volumes are computed by
# the uniform-striping approximation instead of exact region walking.
_EXACT_REGION_LIMIT = 4096

FABRIC_RESOURCE = f"fabric:{SWITCH_NAME}"
SAN_RESOURCE = "san:storage"


@lru_cache(maxsize=4096)
def _volume_by_position(
    stripe_count: int, chunk_size: int, regions: tuple[tuple[int, int], ...]
) -> tuple[tuple[int, float], ...]:
    """Per stripe *position*, the bytes a rank's regions put there.

    ``regions`` are (offset % stripe width, length) pairs: positions are
    periodic in the stripe width, so ranks whose regions normalise alike
    share one walk.  Positions appear in first-contribution order with
    float accumulation per region, exactly as a per-target walk adds.
    """
    out: dict[int, float] = {}
    for offset, length in regions:
        per_position = _bytes_per_position(stripe_count, chunk_size, length, offset)
        for p in range(stripe_count):
            n = per_position[p]
            if n:
                out[p] = out.get(p, 0.0) + n
    return tuple(out.items())


def _layout_sums(
    config: IORConfig, nprocs: int, ranks: range, stripe_count: int, chunk_size: int
) -> tuple[tuple[int, float, float, float], ...]:
    """Per stripe position, ``(bytes, depth weight, process share)`` of ``ranks``.

    The ranks write one file with the given geometry.  Each rank adds,
    in rank order, its bytes on every position it touches, and ``1/k``
    of a process and ``e/k`` outstanding requests there: a blocking
    transfer of t bytes holds one chunk request per crossed chunk
    concurrently, so each process contributes e/k requests to each of
    its k targets (e = chunks per transfer).  Beyond
    ``_EXACT_REGION_LIMIT`` regions per rank, each rank spreads its
    bytes uniformly over the positions instead of walking them.
    """
    e = max(1, config.transfer_size // chunk_size)
    weight, share = e / stripe_count, 1.0 / stripe_count
    regions_per_rank = config.segments * (
        config.transfers_per_block if config.pattern is AccessPattern.N1_STRIDED else 1
    )
    uniform = None
    if regions_per_rank > _EXACT_REGION_LIMIT:
        # Many transfers round-robin evenly over the positions.
        even = config.bytes_per_process / stripe_count
        uniform = tuple((p, even) for p in range(stripe_count))
    period = stripe_count * chunk_size
    volumes: dict[int, float] = {}
    weights: dict[int, float] = {}
    procs: dict[int, float] = {}
    for rank in ranks:
        by_position = uniform
        if by_position is None:
            regions = tuple((r.offset % period, r.length) for r in config.regions(rank, nprocs))
            by_position = _volume_by_position(stripe_count, chunk_size, regions)
        for p, nbytes in by_position:
            volumes[p] = volumes.get(p, 0.0) + nbytes
            weights[p] = weights.get(p, 0.0) + weight
            procs[p] = procs.get(p, 0.0) + share
    return tuple((p, volumes[p], weights[p], procs[p]) for p in volumes)


@dataclass(frozen=True)
class EngineOptions:
    """Knobs shared by the engines."""

    noise_enabled: bool = True
    observe_servers: bool = False
    include_metadata_overhead: bool = True
    cap_iterations: int = 4
    # Candidate counts of *other users'* file creations interposed
    # between consecutive application file creations (one draw per
    # gap, uniform over the tuple).  Advances stateful choosers the
    # way a busy production system does: with PlaFRIM's round-robin
    # and (0, 1, 2), two stripe-4 apps share all four targets in 1/3
    # of runs and none otherwise — the paper's Section IV-D mixture.
    interleaved_creations: tuple[int, ...] = ()
    # Fault injection: the schedule drives both the management state at
    # file creation (choosers see only reachable targets) and the
    # capacity timeline during the run.  ``retry`` overrides the client
    # robustness knobs; when None and faults are scheduled, the engines
    # fall back to the default RetryPolicy.  Both must be left at None
    # for byte-identical fault-free behaviour.
    fault_schedule: FaultSchedule | None = None
    retry: RetryPolicy | None = None
    # Runtime invariant checking (repro.verify): OFF is byte-identical
    # to the unchecked engines, BASIC certifies time/capacity/per-flow
    # conservation, PARANOID adds the max-min fairness certificate and
    # per-target byte conservation on every segment.
    validation: ValidationLevel = ValidationLevel.OFF

    @property
    def faults_enabled(self) -> bool:
        return self.fault_schedule is not None and not self.fault_schedule.is_empty

    def effective_retry(self) -> RetryPolicy | None:
        """The client retry policy the engines should run with."""
        if self.retry is not None:
            return self.retry
        return RetryPolicy() if self.faults_enabled else None


@dataclass
class PreparedRun:
    """Everything a repetition needs, ready to integrate."""

    apps: tuple[Application, ...]
    fs: BeeGFS
    providers: dict[str, CapacityProvider]
    flows: list[FluidFlow]
    inodes: dict[str, dict[int | None, FileInode]]
    app_targets: dict[str, tuple[int, ...]]
    app_stripe: dict[str, int]
    target_host: dict[int, str]
    hosts: list[StorageHostSpec]
    noise: NoiseModel
    latency: BlockingRequestModel
    seeds: SeedTree
    routes: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)


def _metadata_overheads(calibration, options, prepared: "PreparedRun"):
    """Per-application metadata/startup overhead draws for one run.

    File create/open/close involves MDS round trips and target
    allocation whose latency varies a lot on a production system; the
    lognormal draw (sigma ``metadata_sigma``) is what makes small data
    sizes far more variable than large ones (Figure 2).  Noise-free
    runs (``noise_enabled=False``) use the deterministic mean.
    """
    if not options.include_metadata_overhead:
        return lambda app_id: 0.0
    base = calibration.metadata_overhead_s
    sigma = calibration.metadata_sigma
    if not options.noise_enabled or sigma == 0:
        return lambda app_id: base
    rng = prepared.seeds.rng("metadata-overhead")
    draws = {
        app.app_id: base * float(np.exp(rng.normal(-0.5 * sigma * sigma, sigma)))
        for app in prepared.apps
    }
    return lambda app_id: draws[app_id]


class EngineBase:
    """Common construction/prepare logic of the engines."""

    def __init__(
        self,
        calibration: Calibration,
        topology: Topology,
        deployment: BeeGFSDeploymentSpec,
        seed: int = 0,
        options: EngineOptions = EngineOptions(),
    ):
        self.calibration = calibration
        self.topology = topology
        self.deployment = deployment
        self.seed = seed
        self.options = options
        self._seeds = SeedTree(seed).child(type(self).__name__)
        # Routes are a pure function of the (static) topology, so the
        # resource tuples are memoised for the engine's lifetime.
        self._route_cache: dict[tuple[str, str, int], tuple[str, ...]] = {}
        # Per-file layout sums (see ``_file_sums``), keyed on geometry and
        # rank range; like the routes, deterministic and immutable, so
        # threads sharing the engine may at worst compute one twice.
        self._layout_cache: dict[tuple, tuple[tuple[int, float, float, float], ...]] = {}
        # Capacity providers, storage hosts and the target -> host map,
        # per (operation, (node, ppn) map) (see ``_providers_for``).
        self._provider_cache: dict[tuple, tuple[dict, list, dict]] = {}

    # -- helpers ---------------------------------------------------------------

    def _make_checker(self, rep: int) -> RuntimeChecker | None:
        """The run's invariant checker, or ``None`` at ``ValidationLevel.OFF``."""
        return make_checker(
            self.options.validation,
            context=f"{type(self).__name__} seed={self.seed} rep={rep}",
        )

    def _create_files(self, fs: BeeGFS, app: Application) -> dict[int | None, FileInode]:
        """Create the application's files; keys are ranks (None = shared)."""
        if not fs.namespace.is_dir(app.directory):
            fs.mkdir(app.directory)
        if app.config.pattern.shared_file:
            return {None: fs.create_file(app.file_path())}
        return {rank: fs.create_file(app.file_path(rank)) for rank in range(app.nprocs)}

    def _file_sums(
        self, app: Application, ranks: range, inode: FileInode
    ) -> tuple[tuple[int, float, float, float], ...]:
        """:func:`_layout_sums` of ``ranks`` writing ``inode``, memoised.

        The sums depend on the file's geometry, not on its targets, so
        they are computed once per engine and mapped onto each
        repetition's placement by the caller.
        """
        k, chunk = inode.pattern.stripe_count, inode.pattern.chunk_size
        key = (app.config, app.nprocs, ranks.start, ranks.stop, k, chunk)
        sums = self._layout_cache.get(key)
        if sums is None:
            sums = _layout_sums(app.config, app.nprocs, ranks, k, chunk)
            self._layout_cache[key] = sums
        return sums

    def _route_resources(self, node: str, server: str, target_id: int) -> tuple[str, ...]:
        key = (node, server, target_id)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        links = self.topology.route(node, server)
        resources = [f"client:{node}", links[0].resource_id, FABRIC_RESOURCE]
        for link in links[1:]:
            resources.append(link.resource_id)
        resources.extend(
            [f"ingest:{server}", SAN_RESOURCE, f"pool:{server}", f"ost:{target_id}"]
        )
        self._route_cache[key] = tuple(resources)
        return self._route_cache[key]

    def _providers_for(
        self, operation: str, node_ppn: tuple[tuple[str, int], ...]
    ) -> tuple[dict[str, CapacityProvider], list[StorageHostSpec], dict[int, str]]:
        """The run's capacity providers, storage hosts and target -> host map.

        They depend only on the operation and on each client node's ppn
        (``node_ppn`` in node-ownership order), so they are built once per
        engine for each such key and every repetition gets shallow
        copies; the providers themselves are immutable.  The dict's
        insertion order is the resource order, which fixes the noise
        draw order and the capacity-vector layout.
        """
        key = (operation, node_ppn)
        cached = self._provider_cache.get(key)
        if cached is None:
            calib = self.calibration
            providers: dict[str, CapacityProvider] = {}
            switch = self.topology.host(SWITCH_NAME)
            providers[FABRIC_RESOURCE] = ConstantCapacity(float(switch.attrs["fabric_mib_s"]))
            hosts = calib.storage_hosts(self.deployment, operation=operation)
            providers[SAN_RESOURCE] = SanModel(calib.san_for(operation))
            target_host: dict[int, str] = {}
            for host_spec in hosts:
                for link in self.topology.route(host_spec.host, SWITCH_NAME):
                    providers.setdefault(link.resource_id, ConstantCapacity(link.capacity_mib_s))
                providers[f"ingest:{host_spec.host}"] = ServerIngestModel(
                    host_spec.host, host_spec.ingest_spec
                )
                providers[host_spec.pool_resource_id] = StoragePoolModel(
                    host_spec.host, host_spec.pool_spec
                )
                for tid in host_spec.target_ids:
                    providers[f"ost:{tid}"] = StorageTargetModel(str(tid), host_spec.spec_for(tid))
                    target_host[tid] = host_spec.host
            for node, ppn in node_ppn:
                providers[f"client:{node}"] = ConstantCapacity(calib.client.node_capacity(ppn))
                for link in self.topology.route(node, SWITCH_NAME):
                    providers.setdefault(link.resource_id, ConstantCapacity(link.capacity_mib_s))
            cached = self._provider_cache[key] = (providers, hosts, target_host)
        providers, hosts, target_host = cached
        return dict(providers), list(hosts), dict(target_host)

    def _check_node_ownership(self, apps: tuple[Application, ...]) -> dict[str, str]:
        node_owner: dict[str, str] = {}
        ids = [a.app_id for a in apps]
        if len(set(ids)) != len(ids):
            raise ExperimentError(f"duplicate app ids: {ids}")
        for app in apps:
            for node in app.nodes:
                if node not in self.topology:
                    raise ExperimentError(f"{app.app_id}: unknown node {node!r}")
                if node_owner.setdefault(node, app.app_id) != app.app_id:
                    raise ExperimentError(
                        f"node {node!r} allocated to both {node_owner[node]!r} "
                        f"and {app.app_id!r} (jobs must not share nodes)"
                    )
        return node_owner

    # -- the heavy lifting ----------------------------------------------------------

    def prepare(self, apps: list[Application] | tuple[Application, ...], rep: int = 0) -> PreparedRun:
        """Build the complete simulation input for one repetition."""
        with get_profiler().span("engine.prepare"):
            return self._prepare(apps, rep)

    def _prepare(self, apps: list[Application] | tuple[Application, ...], rep: int) -> PreparedRun:
        apps = tuple(apps)
        if not apps:
            raise ExperimentError("no applications to run")
        node_owner = self._check_node_ownership(apps)

        operations = {a.config.operation for a in apps}
        if len(operations) > 1:
            raise ExperimentError(
                "mixed read/write runs are not supported (storage-side rates differ)"
            )
        operation = operations.pop()

        rep_seeds = self._seeds.child("rep", rep)
        fs = BeeGFS(self.deployment, seed=stable_hash32(self.seed, "fs", rep))
        calib = self.calibration
        schedule = self.options.fault_schedule
        if self.options.faults_enabled:
            # Mark targets unreachable/degraded *before* any file is
            # created, so the choosers allocate around the failures the
            # way a live management service would.
            if schedule is None:  # pragma: no cover - faults_enabled implies a schedule
                raise SimulationError("faults enabled without a fault schedule")
            schedule.apply_to_management(fs.management, time=0.0)

        app_by_id = {a.app_id: a for a in apps}
        providers, hosts, target_host = self._providers_for(
            operation, tuple((node, app_by_id[owner].ppn) for node, owner in node_owner.items())
        )

        flows: list[FluidFlow] = []
        routes: dict[tuple[str, int], tuple[str, ...]] = {}
        inodes_by_app: dict[str, dict[int | None, FileInode]] = {}
        app_targets: dict[str, tuple[int, ...]] = {}
        app_stripe: dict[str, int] = {}
        # Named streams are independent, so this one is created only
        # when it is drawn from.
        if self.options.interleaved_creations:
            background_rng = rep_seeds.rng("background-creations")
        for app_index, app in enumerate(apps):
            if app_index > 0 and self.options.interleaved_creations:
                if not fs.namespace.is_dir("/other-users"):
                    fs.mkdir("/other-users")
                gap = int(background_rng.choice(self.options.interleaved_creations))
                for j in range(gap):
                    fs.create_file(f"/other-users/bg-{app_index}-{j}.dat")
            inodes = self._create_files(fs, app)
            inodes_by_app[app.app_id] = inodes
            app_stripe[app.app_id] = next(iter(inodes.values())).pattern.stripe_count
            volumes: dict[tuple[str, int], float] = {}
            weights: dict[tuple[str, int], float] = {}
            nprocs_w: dict[tuple[str, int], float] = {}
            targets: set[int] = set()
            for node in app.nodes:
                ranks = app.ranks_of_node(node)
                # The node's ranks grouped by the file they write: one
                # group for a shared file, one per rank for N-N.
                if None in inodes:
                    groups = [(ranks, inodes[None])]
                else:
                    groups = [(range(rank, rank + 1), inodes[rank]) for rank in ranks]
                for group, inode in groups:
                    # Positions map one-to-one onto the file's targets.
                    file_targets = inode.pattern.targets
                    for p, nbytes, weight, procs in self._file_sums(app, group, inode):
                        key = (node, file_targets[p])
                        volumes[key] = volumes.get(key, 0.0) + nbytes
                        weights[key] = weights.get(key, 0.0) + weight
                        nprocs_w[key] = nprocs_w.get(key, 0.0) + procs
                        targets.add(key[1])
            app_targets[app.app_id] = tuple(sorted(targets))
            # The client keeps at most ``max_inflight_requests`` chunk
            # requests outstanding per node: extra processes queue at
            # the client instead of adding storage-side parallelism
            # (Lesson 3), so per-(node, target) depth is clamped.
            slot_cap = calib.client.max_inflight_requests / app_stripe[app.app_id]
            for key in weights:
                weights[key] = min(weights[key], slot_cap)
            for (node, tid), volume in sorted(volumes.items()):
                server = target_host[tid]
                route = self._route_resources(node, server, tid)
                routes[(node, tid)] = route
                flows.append(
                    FluidFlow(
                        flow_id=f"{app.app_id}:{node}:{tid}",
                        resources=route,
                        volume_bytes=volume,
                        weight=weights[(node, tid)],
                        nprocs=nprocs_w[(node, tid)],
                        start_time=app.start_time,
                        request_size_bytes=float(app.config.transfer_size),
                        tags={"app": app.app_id, "node": node, "target": tid, "server": server},
                    )
                )

        latency = BlockingRequestModel(
            request_size_bytes=apps[0].config.transfer_size,
            round_trip_latency_s=calib.request_rtt_s,
        )
        noise: NoiseModel = calib.make_noise() if self.options.noise_enabled else NoNoise()
        if self.options.faults_enabled:
            if schedule is None:  # pragma: no cover - faults_enabled implies a schedule
                raise SimulationError("faults enabled without a fault schedule")
            providers = wrap_providers(providers, schedule)

        bus = get_bus()
        if bus.enabled:
            if self.options.faults_enabled and schedule is not None:
                publish_schedule(schedule, bus)
            # Per-OST planned write volumes: the allocation-balance signal
            # behind the paper's (min, max) placements, as a histogram.
            ost_bytes: dict[int, float] = {}
            for flow in flows:
                tid = int(flow.tags["target"])
                ost_bytes[tid] = ost_bytes.get(tid, 0.0) + flow.volume_bytes
            hist = bus.metrics.histogram("ost.bytes_written")
            for tid in sorted(ost_bytes):
                hist.observe(ost_bytes[tid])

        return PreparedRun(
            apps=apps,
            fs=fs,
            providers=providers,
            flows=flows,
            inodes=inodes_by_app,
            app_targets=app_targets,
            app_stripe=app_stripe,
            target_host=target_host,
            hosts=hosts,
            noise=noise,
            latency=latency,
            seeds=rep_seeds,
            routes=routes,
        )
