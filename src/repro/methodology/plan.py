"""Experiment plans: expansion into runs, blocking, shuffling.

An :class:`ExperimentSpec` is one experiment *configuration* (a point
of a parameter sweep).  The plan expands every spec into its
repetitions, chunks each spec's runs into blocks (the paper's blocks
are homogeneous: ten consecutive repetitions of the same experiment),
shuffles the block order, and draws the inter-block waits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ExperimentError
from ..rng import SeedTree
from .protocol import ProtocolConfig

__all__ = ["ExperimentSpec", "PlannedRun", "ExperimentPlan"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment configuration of a sweep."""

    exp_id: str
    scenario: str
    factors: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.exp_id:
            raise ExperimentError("exp_id must be non-empty")
        object.__setattr__(self, "factors", dict(self.factors))

    @property
    def key(self) -> str:
        """A stable, human-readable key for engine caching and records."""
        parts = [f"{k}={self.factors[k]}" for k in sorted(self.factors)]
        return f"{self.exp_id}[{self.scenario}]({','.join(parts)})"


@dataclass(frozen=True)
class PlannedRun:
    """One scheduled execution: a spec plus its repetition index."""

    spec: ExperimentSpec
    rep: int

    def __post_init__(self) -> None:
        if self.rep < 0:
            raise ExperimentError("negative repetition index")


@dataclass
class ExperimentPlan:
    """The ordered execution schedule with inter-block waits."""

    blocks: list[list[PlannedRun]]
    waits_s: list[float]  # wait after each block (len == len(blocks))
    protocol: ProtocolConfig

    def __post_init__(self) -> None:
        if len(self.waits_s) != len(self.blocks):
            raise ExperimentError("need one wait per block")
        # A (spec, rep) pair names one run: its record, journal entry and
        # merge position.  Planning it twice has no meaning to run.
        seen: set[tuple[str, int]] = set()
        for run in self:
            key = (run.spec.key, run.rep)
            if key in seen:
                raise ExperimentError(f"run {run.spec.key} rep {run.rep} planned twice")
            seen.add(key)

    @classmethod
    def build(
        cls,
        specs: Sequence[ExperimentSpec],
        protocol: ProtocolConfig = ProtocolConfig(),
        seed: int = 0,
    ) -> "ExperimentPlan":
        """Expand, block, shuffle and draw waits (Section III-C steps 1-4)."""
        if not specs:
            raise ExperimentError("plan needs at least one experiment spec")
        keys = [s.key for s in specs]
        if len(set(keys)) != len(keys):
            raise ExperimentError("duplicate experiment specs in plan")
        rng = SeedTree(seed).rng("protocol")

        blocks: list[list[PlannedRun]] = []
        for spec in specs:
            runs = [PlannedRun(spec, rep) for rep in range(protocol.repetitions)]
            for i in range(0, len(runs), protocol.block_size):
                blocks.append(runs[i : i + protocol.block_size])
        if protocol.shuffle_blocks:
            order = rng.permutation(len(blocks))
            blocks = [blocks[i] for i in order]
        if protocol.max_wait_s > 0:
            waits = rng.uniform(protocol.min_wait_s, protocol.max_wait_s, size=len(blocks))
            waits_s = [float(w) for w in waits]
        else:
            waits_s = [0.0] * len(blocks)
        return cls(blocks=blocks, waits_s=waits_s, protocol=protocol)

    # -- queries -------------------------------------------------------------

    def __iter__(self) -> Iterator[PlannedRun]:
        for block in self.blocks:
            yield from block

    @property
    def num_runs(self) -> int:
        return sum(len(b) for b in self.blocks)

    def runs_of(self, spec: ExperimentSpec) -> list[PlannedRun]:
        return [r for r in self if r.spec.key == spec.key]

    def total_wait_s(self) -> float:
        return float(np.sum(self.waits_s))

    def block_of(self, run: PlannedRun) -> int:
        for i, block in enumerate(self.blocks):
            if run in block:
                return i
        raise ExperimentError("run not in plan")
