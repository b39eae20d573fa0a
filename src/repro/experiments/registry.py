"""Experiment registry: the per-figure index of DESIGN.md as code.

A sweep experiment's entry is the one definition of its campaign: the
specs, the engine options, the scenario builder, the default
repetition count, the render function and the notes.  ``repro run``
(:meth:`ExperimentInfo.run`), ``repro submit`` and the procedures that
run a registered sweep (the lessons audit, the faults experiment) all
read it, so every path compiles the same scenarios.  An experiment
that is not one sweep campaign registers its own ``procedure``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..engine.base import EngineOptions
from ..errors import ExperimentError
from ..methodology.plan import ExperimentSpec
from ..methodology.records import RecordStore
from .common import ExperimentOutput, run_specs

__all__ = ["ExperimentInfo", "EXPERIMENTS", "register", "get_experiment", "list_experiments"]


@dataclass(frozen=True)
class ExperimentInfo:
    """One reproducible artefact of the paper."""

    exp_id: str
    title: str
    paper_ref: str
    procedure: Callable[..., ExperimentOutput] | None = field(default=None, compare=False)
    default_repetitions: int = 100
    specs: Callable[[], list[ExperimentSpec]] | None = field(default=None, compare=False)
    options: EngineOptions = EngineOptions()
    builder: str = "standard"
    render: Callable[[RecordStore], str] | None = field(default=None, compare=False)
    notes: str = ""

    def sweep_size(self) -> int | None:
        """Compiled sweep size (specs x default repetitions), if declarative."""
        if self.specs is None:
            return None
        return len(self.specs()) * self.default_repetitions

    def run(
        self,
        repetitions: int | None = None,
        seed: int = 0,
        progress: Callable[[str], None] | None = None,
    ) -> ExperimentOutput:
        """Run the experiment and render its figure.

        ``repetitions`` defaults to the registered count.  A sweep
        experiment runs :meth:`campaign`; any other runs its procedure.
        """
        if repetitions is None:
            repetitions = self.default_repetitions
        if self.procedure is not None:
            return self.procedure(repetitions=repetitions, seed=seed, progress=progress)
        records = self.campaign(repetitions, seed, progress)
        return ExperimentOutput(
            exp_id=self.exp_id,
            title=self.title,
            records=records,
            figure=self.render(records),
            notes=self.notes,
        )

    def campaign(
        self,
        repetitions: int,
        seed: int = 0,
        progress: Callable[[str], None] | None = None,
        specs: Sequence[ExperimentSpec] | None = None,
    ) -> RecordStore:
        """Run the registered sweep (or a subset of its ``specs``)."""
        return run_specs(
            self.specs() if specs is None else specs,
            repetitions=repetitions,
            seed=seed,
            options=self.options,
            builder=self.builder,
            progress=progress,
        )


EXPERIMENTS: dict[str, ExperimentInfo] = {}


def register(info: ExperimentInfo) -> ExperimentInfo:
    if info.exp_id in EXPERIMENTS:
        raise ExperimentError(f"duplicate experiment id {info.exp_id!r}")
    EXPERIMENTS[info.exp_id] = info
    return info


def get_experiment(exp_id: str) -> ExperimentInfo:
    _ensure_loaded()
    try:
        return EXPERIMENTS[exp_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def list_experiments() -> list[ExperimentInfo]:
    _ensure_loaded()
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS)]


def _ensure_loaded() -> None:
    """Import every experiment module exactly once (self-registration)."""
    from . import (  # noqa: F401
        exp_datasize,
        exp_nodes,
        exp_ppn,
        exp_stripecount,
        exp_linkmodel,
        exp_timeline,
        exp_nodes_stripes,
        exp_concurrent,
        exp_sharing,
        exp_choosers,
        exp_read,
        exp_patterns,
        exp_scaleout,
        exp_metadata,
        exp_chunksize,
        exp_interference,
        exp_lessons,
        exp_faults,
    )
