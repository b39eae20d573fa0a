"""Shared experiment machinery: sweep tables and the campaign entry point.

Experiment modules declare *what* to simulate as a :func:`sweep` table —
a factor grid over one or more calibration scenarios — and register it
with its campaign knobs (:mod:`repro.experiments.registry`).
:func:`run_specs` plans the sweep and lowers every spec through
:func:`repro.scenario.compile.compile_campaign`, then executes the
campaign through the process-wide
:class:`~repro.service.SimulationService` (content-addressed result
cache included).  The factor vocabulary itself is documented on
:func:`repro.scenario.compile.default_apps_builder`.

Two campaign decisions live elsewhere and are only read here: how a
sweep is planned and compiled (``compile_campaign``, shared with
``remote_run_specs``) and the ambient cache policy
(:func:`repro.service.cache_config`).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from ..engine.base import EngineOptions, ValidationLevel
from ..errors import ExperimentError
from ..methodology.plan import ExperimentSpec
from ..methodology.parallel import ParallelProtocolRunner
from ..methodology.records import RecordStore
from ..methodology.runner import ProtocolRunner
from ..scenario.compile import compile_campaign, default_apps_builder
from ..service import ServiceExecutor, resolve_cache_policy

__all__ = [
    "ExperimentOutput",
    "sweep",
    "run_specs",
    "protocol_options",
    "checkpoint_path_for",
    "campaign_checkpoint",
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
    ):
        if value is not None:
            _RUNNER_OVERRIDES[name] = value
    try:
        yield
    finally:
        _RUNNER_OVERRIDES.clear()
        _RUNNER_OVERRIDES.update(previous)


def checkpoint_path_for(base: str | Path, exp_id: str) -> Path:
    """``exp_id``'s own checkpoint file when one ``base`` serves several campaigns.

    ``<stem>.<exp_id><suffix>`` next to ``base`` (suffix ``.json`` when
    ``base`` has none): ``repro run all`` gives each experiment its own,
    and the lessons audit each of its sub-campaigns, so no campaign
    overwrites, or resumes from, another's store.
    """
    base = Path(base)
    return base.with_name(f"{base.stem}.{exp_id}{base.suffix or '.json'}")


@contextmanager
def campaign_checkpoint(exp_id: str) -> Iterator[None]:
    """Checkpoint the ``run_specs`` calls inside to ``exp_id``'s own file.

    The file is :func:`checkpoint_path_for` the ambient checkpoint;
    without one, nothing is checkpointed, as before.
    """
    base = _RUNNER_OVERRIDES.get("checkpoint")
    with protocol_options(
        checkpoint=None if base is None else checkpoint_path_for(base, exp_id)
    ):
        yield


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
    cache: bool | None = None,
    cache_dir: str | Path | None = None,
    cache_remote: str | None = None,
    stats_out: dict[str, Any] | None = None,
) -> RecordStore:
    """Run a sweep under the paper's protocol and return the records.

    Every spec is lowered through ``compile_campaign`` (with the given
    ``options``, ``max_nodes`` and ``builder``) and executed through the
    simulation service, so previously-simulated (configuration, rep)
    pairs replay from the content-addressed cache; ``cache=False`` (or
    a ``--no-cache`` campaign) forces execution, and runs with
    ``validation`` enabled always execute.
    ``cache``/``cache_dir``/``cache_remote`` left at ``None`` take the
    ambient :func:`repro.service.cache_config` policy, resolved once
    here so every worker sees it under any start method.

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
    cache, cache_dir, cache_remote = resolve_cache_policy(cache, cache_dir, cache_remote)
    if validation is not None:
        options = replace(options, validation=ValidationLevel.parse(validation))
    plan, scenarios = compile_campaign(
        specs, repetitions, seed=seed, options=options, max_nodes=max_nodes, builder=builder
    )
    executor = ServiceExecutor(
        scenarios=scenarios,
        cache=cache,
        cache_dir=cache_dir,
        cache_remote=cache_remote,
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
