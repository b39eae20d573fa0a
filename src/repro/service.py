"""The simulation service: one facade, one result cache.

Every execution path — :class:`~repro.methodology.runner.ProtocolRunner`
at any worker count (through the executors built by
:func:`repro.experiments.common.run_specs`), the CLI, the server, the
bench workloads and the verify cases — asks :class:`SimulationService`
for ``run(spec, rep)``, where ``spec`` is a canonical
:class:`~repro.scenario.ScenarioSpec`.
The service owns:

* the **builder registry**: how a spec's ``builder`` name turns into a
  constructed engine + topology + application factory.  ``"standard"``
  (the paper's PlaFRIM deployment) is built in; experiment modules with
  bespoke platforms (e.g. the fig-10 scale-out sweep) register theirs
  via :func:`register_builder`;
* an **engine context cache** keyed on the spec fingerprint, shared
  process-wide, so a 100-repetition campaign pays engine construction
  once and every later rep (a replay check's second run included) runs
  on the context the first one built;
* the **content-addressed result cache**: a tiered composite
  (:mod:`repro.cache`) keyed by ``(spec fingerprint, model revision,
  engine, rep)`` — an in-process LRU hot tier, the on-disk tier
  (atomic writes, no fsync), and an optional read-through/write-behind
  remote tier shared through a ``repro serve`` instance.  A hit in any tier
  replays the stored :class:`~repro.engine.result.RunResult` *and* the
  engine's telemetry events byte-identically without executing
  anything (and promotes the entry into the faster tiers); a miss
  executes, normalizes the result through the exact JSON codec (so
  cold and warm runs are bit-equal), and populates every tier, disk
  first and atomically.

Runs with ``validation`` enabled bypass the cache in both directions:
the whole point of a validated run is to execute the checkers (and the
CI injection self-tests *must* re-execute to detect injected faults).

Cache hits, misses and bypasses are counted in the process metrics
registry (``service.cache`` with a ``status`` label) and in a module
tally for the CLI summary line; parallel workers ship their tally delta
back with each outcome.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .cache import CACHE_SCHEMA, MemoryTier, RemoteTier, ResultCache, TieredCache, make_entry
from .cache.disk import default_cache_dir
from .engine.result import RunResult, result_from_jsonable, result_to_jsonable
from .errors import ConfigError, ExperimentError
from .methodology.plan import ExperimentSpec
from .orchestrator.supervise import CircuitBreaker
from .scenario import ScenarioSpec
from .telemetry.bus import RUN_RING_CAPACITY, RingBufferSink, get_bus
from .telemetry.trace import current_trace, trace_scope
from .verify.level import ValidationLevel

__all__ = [
    "CACHE_SCHEMA",
    "BuiltScenario",
    "ResultCache",
    "SimulationService",
    "ServiceExecutor",
    "get_service",
    "register_builder",
    "default_cache_dir",
    "cache_config",
    "resolve_cache_policy",
    "cache_stats",
    "reset_cache_stats",
    "add_cache_stats",
]

# How many constructed engine contexts the service keeps alive; oldest
# evicted first.  Campaigns sweep far fewer distinct configurations
# than this between construction and last use.
_CONTEXT_CAP = 128


# -- cache statistics --------------------------------------------------------------

# "degraded" counts runs executed cache-off because the circuit breaker
# was open; "error" counts cache I/O failures (each also a breaker
# strike); "corrupt" counts disk entries quarantined after a decode
# failure (each such lookup also counts the usual "miss").
_STATS = {
    "hit": 0,
    "miss": 0,
    "bypassed": 0,
    "uncached": 0,
    "degraded": 0,
    "error": 0,
    "corrupt": 0,
}


def cache_stats() -> dict[str, int]:
    """The process-wide cache tally (workers' deltas already folded in)."""
    return dict(_STATS)


def reset_cache_stats() -> None:
    for key in _STATS:
        _STATS[key] = 0


def add_cache_stats(delta: Mapping[str, int]) -> None:
    for key, value in delta.items():
        _STATS[key] = _STATS.get(key, 0) + int(value)


def _count(status: str) -> None:
    _STATS[status] = _STATS.get(status, 0) + 1
    get_bus().metrics.counter("service.cache", status=status).inc()


# -- builder registry --------------------------------------------------------------


@dataclass
class BuiltScenario:
    """A constructed execution context for one scenario fingerprint."""

    engine: Any
    topology: Any
    make_apps: Callable[[], list]


BuilderFn = Callable[[ScenarioSpec], BuiltScenario]

_BUILDERS: dict[str, BuilderFn] = {}


def register_builder(name: str, builder: BuilderFn) -> None:
    """Register how specs with ``builder == name`` are constructed."""
    _BUILDERS[name] = builder


def _engine_class(name: str) -> type:
    from .engine.des_runner import DESEngine
    from .engine.fluid_runner import FluidEngine

    return {"fluid": FluidEngine, "des": DESEngine}[name]


def _build_standard(spec: ScenarioSpec) -> BuiltScenario:
    """The paper's PlaFRIM platform: scenario calibration + factor deployment."""
    from .calibration.plafrim import scenario_by_name
    from .scenario.compile import default_apps_builder
    from .telemetry.profiling import get_profiler

    with get_profiler().span("engine.build"):
        factors = spec.factor_map
        calibration = scenario_by_name(spec.scenario)
        topology = calibration.platform(spec.max_nodes)
        deployment_kwargs: dict[str, Any] = {
            "stripe_count": int(factors.get("stripe_count", 4)),
        }
        if factors.get("chooser"):
            deployment_kwargs["chooser"] = str(factors["chooser"])
        if factors.get("chunk_kib"):
            deployment_kwargs["chunk_size"] = int(factors["chunk_kib"]) * 1024
        engine = _engine_class(spec.engine)(
            calibration,
            topology,
            calibration.deployment(**deployment_kwargs),
            seed=spec.seed,
            options=spec.options,
        )
    return BuiltScenario(
        engine=engine,
        topology=topology,
        make_apps=lambda: default_apps_builder(topology, factors),
    )


register_builder("standard", _build_standard)


# -- the result cache --------------------------------------------------------------

# The cache implementation itself lives in repro.cache (tiers, the
# composite, GC, quarantine); the service owns the policy, the tally
# and the persistent tier instances.

# The ambient cache policy, for every service call and run_specs
# campaign that passes None: the CLI's --no-cache/--cache-dir/
# --cache-remote set it here, and only here, so experiments reach it
# without per-module plumbing.
_CACHE_DEFAULTS: dict[str, Any] = {
    "cache": True,
    "cache_dir": None,
    "cache_remote": None,
}


@contextmanager
def cache_config(
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    cache_remote: str | None = None,
) -> Iterator[None]:
    """Override the default cache policy for the enclosed calls."""
    previous = dict(_CACHE_DEFAULTS)
    if cache is not None:
        _CACHE_DEFAULTS["cache"] = bool(cache)
    if cache_dir is not None:
        _CACHE_DEFAULTS["cache_dir"] = str(cache_dir)
    if cache_remote is not None:
        _CACHE_DEFAULTS["cache_remote"] = str(cache_remote)
    try:
        yield
    finally:
        _CACHE_DEFAULTS.clear()
        _CACHE_DEFAULTS.update(previous)


def resolve_cache_policy(
    cache: bool | None,
    cache_dir: str | Path | None,
    cache_remote: str | None,
) -> tuple[bool, str | None, str | None]:
    """The cache policy with each ``None`` filled from :func:`cache_config`."""
    return (
        bool(_CACHE_DEFAULTS["cache"] if cache is None else cache),
        _CACHE_DEFAULTS["cache_dir"] if cache_dir is None else str(cache_dir),
        _CACHE_DEFAULTS["cache_remote"] if cache_remote is None else str(cache_remote),
    )


class _RunCapture(RingBufferSink):
    """The ring a cache miss records its run's events into.

    It keeps only the events of the thread that attached it: other
    threads emit on the same process-wide bus while a run executes (a
    server's second worker completing its job, a handler opening a
    session), and those are not the run's events to replay on a hit.
    """

    def __init__(self) -> None:
        super().__init__(RUN_RING_CAPACITY)
        self._thread = threading.get_ident()

    def emit(self, event: dict[str, Any]) -> None:
        if threading.get_ident() == self._thread:
            super().emit(event)


# -- the service -------------------------------------------------------------------


class SimulationService:
    """Process-wide facade every run executes through (see module doc)."""

    def __init__(self) -> None:
        self._contexts: dict[tuple[str, str, str], BuiltScenario] = {}
        # Cache circuit breaker for the disk tier: repeated disk
        # OSErrors trip it open and runs degrade to cache-off instead of
        # failing the campaign; after the cooldown one probe half-opens
        # it.  (An unreadable disk tier means results cannot be stored;
        # serving hot hits anyway would diverge tallies.)
        self.breaker = CircuitBreaker()
        # The remote tier's own breaker: remote faults degrade lookups
        # to the local tiers without touching the disk breaker.
        self.remote_breaker = CircuitBreaker()
        # Persistent tier state, keyed by cache root / remote address —
        # hot tiers must not alias across roots (chaos injections reuse
        # fingerprints across fresh cache directories).
        self._memory_tiers: dict[str, MemoryTier] = {}
        self._remote_tiers: dict[str, RemoteTier] = {}

    # -- tier plumbing -----------------------------------------------------

    def _on_corrupt(self, path: Path) -> None:
        del path  # the tally is global; the event already names nothing
        _count("corrupt")

    def _tiered(
        self,
        cache_dir: str | Path | None,
        cache_remote: str | None = None,
    ) -> TieredCache:
        """The tiered composite for one cache root (+ optional remote).

        The composite itself is cheap and per-call; the tiers behind it
        (hot LRU per root, one connection per remote address) and the
        breakers persist on the service.
        """
        root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        root_key = str(root)
        memory = self._memory_tiers.get(root_key)
        if memory is None:
            memory = self._memory_tiers.setdefault(root_key, MemoryTier())
        remote = None
        if cache_remote:
            address = str(cache_remote)
            remote = self._remote_tiers.get(address)
            if remote is None:
                remote = self._remote_tiers.setdefault(
                    address, RemoteTier.from_address(address)
                )
        return TieredCache(
            disk=ResultCache(root, on_corrupt=self._on_corrupt),
            memory=memory,
            remote=remote,
            remote_breaker=self.remote_breaker,
        )

    def drop_memory_tiers(self, cache_dir: str | Path | None = None) -> None:
        """Forget hot-tier contents (tests, and disk-tier fault drills).

        With ``cache_dir`` given, only that root's hot tier is cleared;
        otherwise all of them are.
        """
        if cache_dir is not None:
            root_key = str(Path(cache_dir))
            tier = self._memory_tiers.get(root_key)
            if tier is not None:
                tier.clear()
            return
        for tier in self._memory_tiers.values():
            tier.clear()
        self._memory_tiers.clear()

    def reset_tiers(self) -> None:
        """Drop all tier state: hot tiers, remote connections, breakers'
        remote half.  (The disk breaker is reset by callers that own it,
        e.g. the chaos harness.)"""
        self.drop_memory_tiers()
        for remote in self._remote_tiers.values():
            remote.close()
        self._remote_tiers.clear()
        self.remote_breaker = CircuitBreaker()

    def flush_remote(self, timeout: float = 10.0) -> bool:
        """Drain every remote tier's write-behind queue (CI barriers)."""
        ok = True
        for remote in self._remote_tiers.values():
            ok = remote.flush(timeout=timeout) and ok
        return ok

    def context(self, spec: ScenarioSpec) -> BuiltScenario:
        """The constructed engine context for a spec, built at most once."""
        key = (spec.fingerprint, spec.engine, spec.options.validation.name)
        ctx = self._contexts.get(key)
        if ctx is None:
            builder = _BUILDERS.get(spec.builder)
            if builder is None:
                known = ", ".join(sorted(_BUILDERS))
                raise ConfigError(
                    f"unknown scenario builder {spec.builder!r} (registered: {known})"
                )
            ctx = builder(spec)
            while len(self._contexts) >= _CONTEXT_CAP:
                self._contexts.pop(next(iter(self._contexts)))
            self._contexts[key] = ctx
        return ctx

    def _tiers_for(
        self,
        spec: ScenarioSpec,
        cache: bool | None,
        cache_dir: str | Path | None,
        cache_remote: str | None,
    ) -> TieredCache | None:
        """The tiers a run resolves through, or ``None`` to run it cache-off.

        ``cache``/``cache_dir``/``cache_remote`` default to the ambient
        :func:`cache_config` policy.  Validated runs never touch the
        cache: their purpose is to execute the invariant checkers.  A
        cache-off run is counted here: ``uncached`` (``cache=False``),
        ``bypassed`` (a validated spec) or ``degraded`` (the breaker is
        open).
        """
        cache, cache_dir, cache_remote = resolve_cache_policy(cache, cache_dir, cache_remote)
        use_cache = cache and spec.options.validation is ValidationLevel.OFF
        if use_cache and not self.breaker.allow():
            _count("degraded")
            self._emit_breaker(get_bus())
            return None
        if not use_cache:
            _count("bypassed" if cache else "uncached")
            return None
        return self._tiered(cache_dir, cache_remote)

    def run(
        self,
        spec: ScenarioSpec,
        rep: int,
        *,
        cache: bool | None = None,
        cache_dir: str | Path | None = None,
        cache_remote: str | None = None,
    ) -> RunResult:
        """Execute (or replay) one repetition of a scenario.

        The cache arguments are those of :meth:`resolve`.  A cached run
        decodes its entry's result, so a cold result and its later
        cache-hit replay are byte-identical; a cache-off run returns
        the engine's result as it is.
        """
        tiers = self._tiers_for(spec, cache, cache_dir, cache_remote)
        if tiers is None:
            ctx = self.context(spec)
            return ctx.engine.run(ctx.make_apps(), rep=rep)
        entry, _hit = self._resolve(tiers, spec, rep)
        return result_from_jsonable(entry["result"])

    def resolve(
        self,
        spec: ScenarioSpec,
        rep: int,
        *,
        cache: bool | None = None,
        cache_dir: str | Path | None = None,
        cache_remote: str | None = None,
    ) -> tuple[dict[str, Any], bool]:
        """One repetition's cache entry, and whether the cache hit.

        A hit returns the entry the cache holds.  A miss executes and
        returns the entry built from the engine's result and the events
        captured during the run, whether or not its disk write landed.
        A run executed cache-off (``cache=False``, a validated spec, an
        open breaker) has no entry: it comes back as the live result's
        ``result_to_jsonable`` with no events, and ``False``.

        ``cache``/``cache_dir``/``cache_remote`` default to the ambient
        :func:`cache_config` policy.  Cache I/O failures never fail the
        run: each disk ``OSError`` on load or store is counted
        (``error``) and strikes the circuit breaker; once the breaker
        opens, runs execute cache-off (``degraded``) until the
        cooldown's half-open probe succeeds.  Remote-tier faults degrade
        inside the composite (per-tier breaker) and never reach this
        accounting.
        """
        tiers = self._tiers_for(spec, cache, cache_dir, cache_remote)
        if tiers is None:
            ctx = self.context(spec)
            result = ctx.engine.run(ctx.make_apps(), rep=rep)
            return {"result": result_to_jsonable(result), "events": []}, False
        return self._resolve(tiers, spec, rep)

    def _resolve(
        self, tiers: TieredCache, spec: ScenarioSpec, rep: int
    ) -> tuple[dict[str, Any], bool]:
        """The cached path of :meth:`run` and :meth:`resolve`."""
        bus = get_bus()
        probe_started = time.perf_counter()
        try:
            entry = tiers.lookup(spec, rep)
        except OSError:
            self._cache_fault(bus)
            entry = None
        else:
            if entry is not None:
                self.breaker.record_success()
                self._emit_breaker(bus)
                _count("hit")
                bus.replay(entry.get("events", ()))
                self._emit_cache_span(bus, "hit", probe_started)
                return entry, True

        _count("miss")
        ctx = self.context(spec)
        apps = ctx.make_apps()
        # Capture the engine's telemetry (flow retries, fault triggers)
        # even when no user sink is attached — the attached ring enables
        # the bus, and instrumentation is proven byte-identical — so a
        # later hit can replay the run's events, not just its result.
        ring = _RunCapture()
        bus.attach(ring)
        try:
            result = ctx.engine.run(apps, rep=rep)
        finally:
            bus.detach(ring)
        entry = make_entry(spec, rep, result, ring.events)
        try:
            tiers.store(entry)
        except OSError:
            self._cache_fault(bus)
        else:
            self.breaker.record_success()
            self._emit_breaker(bus)
        # After the ring detaches: the span marker must not be captured
        # into the cache entry, or a replayed hit would claim a miss.
        self._emit_cache_span(bus, "miss", probe_started)
        return entry, False

    def prefetch(
        self,
        jobs: "list[tuple[ScenarioSpec, int]]",
        *,
        cache: bool | None = None,
        cache_dir: str | Path | None = None,
        cache_remote: str | None = None,
    ) -> dict[tuple[str, str, int], dict[str, Any]]:
        """Bulk cache lookup: load every hit among ``jobs`` in one pass.

        Walks the tiers fast → slow: the hot tier answers first, the
        remainder goes through the disk tier's one-``scandir``-per-
        fingerprint bulk pass, and what is still missing is fetched from
        the remote tier (when configured) in batched frames.  Returns
        raw cache entries keyed by ``(fingerprint, engine, rep)``.

        This emits nothing and counts nothing in the run tally: consume
        each entry with :meth:`resolve_prefetched` at the position the
        run would have executed, so events, counters (one ``hit`` per
        run — never per batch) and results are byte-identical to the
        per-run path.  Jobs absent from the returned map are cache
        misses and should go through :meth:`run` as usual.  I/O errors
        here leave the job a miss; breaker accounting stays on the
        authoritative per-run path, and nothing is probed while the
        breaker is not closed.
        """
        cache, cache_dir, cache_remote = resolve_cache_policy(cache, cache_dir, cache_remote)
        out: dict[tuple[str, str, int], dict[str, Any]] = {}
        if not cache or self.breaker.state != "closed":
            return out
        pairs = [
            (spec, int(rep))
            for spec, rep in jobs
            if spec.options.validation is ValidationLevel.OFF
        ]
        if not pairs:
            return out
        return self._tiered(cache_dir, cache_remote).lookup_many(pairs)

    def resolve_prefetched(self, entry: Mapping[str, Any]) -> RunResult:
        """Consume one prefetched cache entry as the hit it stands for.

        Replays the stored telemetry events, counts exactly one ``hit``
        and closes the trace span — the same sequence :meth:`run`
        performs on an inline hit — so a prefetched campaign is
        byte-identical to one probing the cache run by run.
        """
        bus = get_bus()
        started = time.perf_counter()
        self.breaker.record_success()
        self._emit_breaker(bus)
        _count("hit")
        bus.replay(entry.get("events", ()))
        self._emit_cache_span(bus, "hit", started)
        return result_from_jsonable(entry["result"])

    def _cache_fault(self, bus: Any) -> None:
        _count("error")
        self.breaker.record_failure()
        self._emit_breaker(bus)

    @staticmethod
    def _emit_cache_span(bus: Any, status: str, started: float) -> None:
        """Close the "cache" span of the ambient trace (tracing only).

        Emitted as a ``trace.span`` marker — a child of whatever span is
        active (the server's "run" span, or the local runner's "job"
        span) — carrying the probe/execute outcome and machine-time
        duration in the payload, the same convention as
        ``worker.end.elapsed_s``.
        """
        if not getattr(bus, "tracing", False):
            return
        ctx = current_trace()
        if ctx is None:
            return
        with trace_scope(ctx.child("cache")):
            bus.emit(
                "trace.span",
                name="cache",
                phase="end",
                status=status,
                elapsed_s=time.perf_counter() - started,
            )

    def _emit_breaker(self, bus: Any) -> None:
        for state, failures in self.breaker.drain_transitions():
            if bus.enabled:
                bus.emit("orchestrator.breaker", state=state, failures=failures)


_SERVICE = SimulationService()


def get_service() -> SimulationService:
    return _SERVICE


# -- the protocol-runner adapter ---------------------------------------------------


@dataclass
class ServiceExecutor:
    """An :class:`~repro.methodology.runner.Executor` over the service.

    Maps each planned :class:`ExperimentSpec` (by key) to its compiled
    :class:`ScenarioSpec` — the lowering happened once, up front, in
    ``run_specs`` — and carries only plain data, so it crosses the
    parallel runner's worker boundary under any start method.
    """

    scenarios: dict[str, ScenarioSpec] = field(default_factory=dict)
    cache: bool = True
    cache_dir: str | None = None
    cache_remote: str | None = None
    seed: int = 0
    # Prefetched cache entries keyed by (planned key, rep), populated by
    # the runner's bulk pass and *popped* per run so every hit is
    # replayed and counted exactly once, at the run's own position.
    # Never pickled: the runner resolves staged hits in the parent and
    # hands workers only the misses.
    prefetched: dict[tuple[str, int], dict[str, Any]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __call__(self, spec: ExperimentSpec, rep: int) -> RunResult:
        scenario = self.scenarios.get(spec.key)
        if scenario is None:
            raise ExperimentError(f"no compiled scenario for planned spec {spec.key!r}")
        entry = self.prefetched.pop((spec.key, int(rep)), None)
        if entry is not None:
            return get_service().resolve_prefetched(entry)
        return get_service().run(
            scenario,
            rep,
            cache=self.cache,
            cache_dir=self.cache_dir,
            cache_remote=self.cache_remote,
        )

    def prefetch(self, jobs: "list[tuple[ExperimentSpec, int]]") -> set[tuple[str, int]]:
        """Bulk-load the cache entries for the given planned jobs.

        Returns the ``(spec key, rep)`` of every job with a staged hit:
        the runner resolves those in-process and sends only the rest to
        its workers.  Safe to call with jobs whose keys are unknown
        (they are skipped and will fail per-run with the usual error).
        """
        pairs = [
            (self.scenarios[spec.key], int(rep))
            for spec, rep in jobs
            if spec.key in self.scenarios
        ]
        entries = get_service().prefetch(
            pairs,
            cache=self.cache,
            cache_dir=self.cache_dir,
            cache_remote=self.cache_remote,
        )
        staged: set[tuple[str, int]] = set()
        for spec, rep in jobs:
            scenario = self.scenarios.get(spec.key)
            if scenario is None:
                continue
            key = (spec.key, int(rep))
            entry = entries.get((scenario.fingerprint, scenario.engine, int(rep)))
            if entry is not None:
                self.prefetched.setdefault(key, entry)
            if key in self.prefetched:
                staged.add(key)
        return staged

    def __getstate__(self) -> dict[str, Any]:
        # Entries can be large and are parent-side state: workers probe
        # their own cache, so the staged map never crosses the pipe.
        state = self.__dict__.copy()
        state["prefetched"] = {}
        return state
