"""Shared experiment machinery: sweep tables and the campaign entry point.

Experiment modules declare *what* to simulate as a :func:`sweep` table —
a factor grid over one or more calibration scenarios — and hand the
resulting specs to :func:`run_specs`, which lowers every spec through
:func:`repro.scenario.compile.compile_scenario` and executes the
campaign through the process-wide
:class:`~repro.service.SimulationService` (content-addressed result
cache included).  The factor vocabulary itself is documented on
:func:`repro.scenario.compile.default_apps_builder`.

:class:`StandardExecutor` remains for callers that need direct engine
access (the ``repro bench`` fluid-engine timings); it executes engines
directly and never touches the cache.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..calibration.plafrim import Calibration, scenario_by_name
from ..engine.base import EngineOptions, ValidationLevel
from ..engine.fluid_runner import FluidEngine
from ..engine.result import RunResult
from ..errors import ExperimentError
from ..methodology.plan import ExperimentPlan, ExperimentSpec
from ..methodology.protocol import ProtocolConfig
from ..methodology.parallel import ParallelProtocolRunner
from ..methodology.records import RecordStore
from ..methodology.runner import ProtocolRunner
from ..scenario.compile import compile_scenario, default_apps_builder
from ..service import ServiceExecutor
from ..telemetry.profiling import get_profiler
from ..topology.graph import Topology

__all__ = [
    "ExperimentOutput",
    "StandardExecutor",
    "sweep",
    "run_specs",
    "protocol_options",
    "default_apps_builder",
]


@dataclass
class ExperimentOutput:
    """What running one experiment produces."""

    exp_id: str
    title: str
    records: RecordStore
    figure: str
    notes: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.exp_id}: {self.title}\n{self.figure}"


def sweep(
    exp_id: str,
    *,
    scenario: str | Sequence[str],
    **axes: Any,
) -> list[ExperimentSpec]:
    """A declarative factor sweep: the full crossing of the given axes.

    Each keyword argument is one factor.  Its value is interpreted as:

    * a **list or tuple** — the levels to sweep;
    * a **dict** — per-scenario levels (value again scalar or list),
      for sweeps whose range depends on the platform (e.g. node counts
      up to each scenario's size);
    * anything else — a **fixed** level, recorded in every spec's
      factor dict.

    Scenarios iterate outermost, then the axes left to right (leftmost
    outermost), so a table reads in the order its campaign runs.
    """
    scenarios = (scenario,) if isinstance(scenario, str) else tuple(scenario)
    if not scenarios:
        raise ExperimentError(f"{exp_id}: sweep needs at least one scenario")
    specs: list[ExperimentSpec] = []
    for scen in scenarios:
        levels: list[list[tuple[str, Any]]] = []
        for name, value in axes.items():
            if isinstance(value, Mapping):
                if scen not in value:
                    raise ExperimentError(
                        f"{exp_id}: axis {name!r} has no levels for scenario {scen!r}"
                    )
                value = value[scen]
            if isinstance(value, (list, tuple)):
                levels.append([(name, v) for v in value])
            else:
                levels.append([(name, value)])
        for combo in itertools.product(*levels):
            specs.append(ExperimentSpec(exp_id=exp_id, scenario=scen, factors=dict(combo)))
    return specs


@dataclass
class StandardExecutor:
    """A direct-engine executor (no service, no cache).

    Used by benchmarks that must always execute.  Engines (and their
    platform topologies) are cached per configuration key so a
    100-repetition protocol pays construction once.
    """

    seed: int = 0
    options: EngineOptions = field(default_factory=EngineOptions)
    engine_cls: type = FluidEngine
    max_nodes: int = 32
    _calibrations: dict[str, Calibration] = field(default_factory=dict, repr=False)
    _topologies: dict[str, Topology] = field(default_factory=dict, repr=False)
    _engines: dict[str, Any] = field(default_factory=dict, repr=False)

    def calibration(self, scenario: str) -> Calibration:
        if scenario not in self._calibrations:
            self._calibrations[scenario] = scenario_by_name(scenario)
        return self._calibrations[scenario]

    def topology(self, scenario: str) -> Topology:
        if scenario not in self._topologies:
            self._topologies[scenario] = self.calibration(scenario).platform(self.max_nodes)
        return self._topologies[scenario]

    def engine(self, spec: ExperimentSpec):
        key = spec.key
        if key not in self._engines:
            with get_profiler().span("engine.build"):
                calibration = self.calibration(spec.scenario)
                deployment_kwargs: dict[str, Any] = {
                    "stripe_count": int(spec.factors.get("stripe_count", 4)),
                }
                if spec.factors.get("chooser"):
                    deployment_kwargs["chooser"] = str(spec.factors["chooser"])
                if spec.factors.get("chunk_kib"):
                    deployment_kwargs["chunk_size"] = int(spec.factors["chunk_kib"]) * 1024
                self._engines[key] = self.engine_cls(
                    calibration,
                    self.topology(spec.scenario),
                    calibration.deployment(**deployment_kwargs),
                    seed=self.seed,
                    options=self.options,
                )
        return self._engines[key]

    def __call__(self, spec: ExperimentSpec, rep: int) -> RunResult:
        engine = self.engine(spec)
        apps = default_apps_builder(self.topology(spec.scenario), spec.factors)
        return engine.run(apps, rep=rep)


# Campaign-resilience knobs for every run_specs() call in the active
# context.  The CLI sets these via protocol_options() so experiment
# modules need no per-module plumbing for --on-error / --checkpoint.
_RUNNER_OVERRIDES: dict[str, Any] = {}


@contextmanager
def protocol_options(
    on_error: str | None = None,
    checkpoint: str | Path | None = None,
    resume: bool | None = None,
    checkpoint_every: int | None = None,
    validation: str | ValidationLevel | None = None,
    on_violation: str | None = None,
    workers: int | None = None,
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    cache_remote: str | None = None,
) -> Iterator[None]:
    """Override the runner policy of every ``run_specs`` call inside.

    Only the arguments given (non-``None``) are overridden; nesting
    restores the previous overrides on exit.
    """
    previous = dict(_RUNNER_OVERRIDES)
    for name, value in (
        ("on_error", on_error),
        ("checkpoint", checkpoint),
        ("resume", resume),
        ("checkpoint_every", checkpoint_every),
        ("validation", validation),
        ("on_violation", on_violation),
        ("workers", workers),
        ("cache", cache),
        ("cache_dir", cache_dir),
        ("cache_remote", cache_remote),
    ):
        if value is not None:
            _RUNNER_OVERRIDES[name] = value
    try:
        yield
    finally:
        _RUNNER_OVERRIDES.clear()
        _RUNNER_OVERRIDES.update(previous)


def run_specs(
    specs: Sequence[ExperimentSpec],
    repetitions: int = 100,
    seed: int = 0,
    options: EngineOptions = EngineOptions(),
    max_nodes: int = 32,
    builder: str = "standard",
    progress: Callable[[str], None] | None = None,
    on_error: str = "fail",
    checkpoint: str | Path | None = None,
    resume: bool = False,
    checkpoint_every: int = 10,
    validation: str | ValidationLevel | None = None,
    on_violation: str = "skip",
    workers: int | None = None,
    cache: bool = True,
    cache_dir: str | Path | None = None,
    cache_remote: str | None = None,
    stats_out: dict[str, Any] | None = None,
) -> RecordStore:
    """Run a sweep under the paper's protocol and return the records.

    Every spec is lowered through ``compile_scenario`` (with the given
    ``builder``) and executed through the simulation service, so
    previously-simulated (configuration, rep) pairs replay from the
    content-addressed cache; ``cache=False`` (or a ``--no-cache``
    campaign) forces execution, and runs with ``validation`` enabled
    always execute.

    ``on_error``/``checkpoint``/``resume``/``checkpoint_every`` configure
    the :class:`~repro.methodology.runner.ProtocolRunner`'s resilience;
    ``validation`` overrides the engine's invariant-checking level and
    ``on_violation`` decides whether a tripped invariant quarantines the
    run (``"skip"``, default) or aborts the campaign (``"fail"``).
    ``workers`` > 1 executes runs in that many worker processes (results
    are byte-identical to the serial runner's).  An enclosing
    :func:`protocol_options` context overrides them all.
    """
    on_error = _RUNNER_OVERRIDES.get("on_error", on_error)
    checkpoint = _RUNNER_OVERRIDES.get("checkpoint", checkpoint)
    resume = _RUNNER_OVERRIDES.get("resume", resume)
    checkpoint_every = _RUNNER_OVERRIDES.get("checkpoint_every", checkpoint_every)
    validation = _RUNNER_OVERRIDES.get("validation", validation)
    on_violation = _RUNNER_OVERRIDES.get("on_violation", on_violation)
    workers = _RUNNER_OVERRIDES.get("workers", workers)
    cache = _RUNNER_OVERRIDES.get("cache", cache)
    cache_dir = _RUNNER_OVERRIDES.get("cache_dir", cache_dir)
    cache_remote = _RUNNER_OVERRIDES.get("cache_remote", cache_remote)
    if validation is not None:
        options = replace(options, validation=ValidationLevel.parse(validation))
    protocol = ProtocolConfig(
        repetitions=repetitions,
        block_size=min(10, max(1, repetitions)),
        min_wait_s=60.0 if repetitions >= 20 else 0.0,
        max_wait_s=1800.0 if repetitions >= 20 else 0.0,
    )
    plan = ExperimentPlan.build(specs, protocol, seed=seed)
    scenarios = {
        spec.key: compile_scenario(
            spec, seed=seed, options=options, max_nodes=max_nodes, builder=builder
        )
        for spec in specs
    }
    executor = ServiceExecutor(
        scenarios=scenarios,
        cache=bool(cache),
        cache_dir=None if cache_dir is None else str(cache_dir),
        cache_remote=None if cache_remote is None else str(cache_remote),
        seed=seed,
    )
    if workers is not None and workers > 1:
        runner: ProtocolRunner = ParallelProtocolRunner(
            executor,
            n_workers=workers,
            on_error=on_error,
            checkpoint_path=checkpoint,
            checkpoint_every=checkpoint_every,
            on_violation=on_violation,
            seed=seed,
        )
    else:
        runner = ProtocolRunner(
            executor,
            on_error=on_error,
            checkpoint_path=checkpoint,
            checkpoint_every=checkpoint_every,
            on_violation=on_violation,
        )
    try:
        if resume and checkpoint is not None:
            return runner.resume(plan, progress=progress)
        return runner.run(plan, progress=progress)
    finally:
        # Orchestration accounting for callers that want it (bench, ops
        # tooling): supervision counters always, batched-dispatch
        # transfer stats when the parallel runner produced them.
        if stats_out is not None:
            stats_out["supervision"] = dict(runner.supervision_stats)
            transfer = getattr(runner, "transfer_stats", None)
            if transfer:
                stats_out["transfer"] = dict(transfer)
