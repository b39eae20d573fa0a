"""Stochastic capacity variability.

The paper goes to great lengths (Section III-C) to *cover* the natural
variability of a production system — caching states, transient events,
other users — rather than suppress it, and several results depend on
it: the large spread of scenario 2 (std 139.8 -> 787.9 MiB/s from 1 to
8 targets), the wide whiskers of small data sizes (Figure 2), and the
need to look at all 100 points rather than means (Lesson 5).

:class:`StochasticNoise` composes three mean-one multiplicative parts:

* a **run-level** draw per resource (the state the system happens to be
  in for this run: cache pressure, placement of other users' data);
* an **epoch-level** draw per resource, resampled every
  ``epoch_length_s`` of simulated time (short-term fluctuation; long
  runs average over more epochs, which is exactly why Figure 2 shows
  variability shrinking as the data size grows);
* rare **transient events** that cut a resource's capacity sharply for
  one epoch (the "transient events in the machine" of Section III-C).

All draws are mean-adjusted lognormals, so the noise perturbs but does
not bias the calibrated capacities.  A model instance caches run-level
draws internally: build a fresh instance per simulated run.

Every model answers ``touches(resource_id)``: whether it may draw for
that resource at all.  The engines call ``multiplier`` only for touched
resources and leave every other multiplier at exactly 1.0, which is
what an untouched resource's ``multiplier`` returns without touching
the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..errors import StorageError

__all__ = ["NoiseSpec", "StochasticNoise", "SharedStateNoise", "CompositeNoise"]


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of the three-part noise model.

    ``scope_prefixes`` restricts the noise to matching resource ids
    (e.g. ``("pool:", "san:")`` for storage-side variability);
    everything else gets multiplier 1.0.
    """

    sigma_run: float = 0.08
    sigma_epoch: float = 0.05
    epoch_length_s: float = 4.0
    transient_prob: float = 0.01
    transient_severity: float = 0.5
    scope_prefixes: tuple[str, ...] = ("pool:", "san:")

    def __post_init__(self) -> None:
        if self.sigma_run < 0 or self.sigma_epoch < 0:
            raise StorageError("noise sigmas must be non-negative")
        if self.epoch_length_s <= 0:
            raise StorageError("epoch length must be positive")
        if not 0 <= self.transient_prob <= 1:
            raise StorageError("transient probability must be in [0, 1]")
        if not 0 < self.transient_severity <= 1:
            raise StorageError("transient severity must be in (0, 1]")

    @property
    def quiet(self) -> bool:
        """True when every multiplier is deterministically 1."""
        return self.sigma_run == 0 and self.sigma_epoch == 0 and self.transient_prob == 0


@lru_cache(maxsize=4096)
def _in_scope(prefixes: tuple[str, ...], resource_id: str) -> bool:
    """Whether ``resource_id`` starts with one of ``prefixes``."""
    return any(resource_id.startswith(p) for p in prefixes)


def _mean_one_lognormal(rng: np.random.Generator, sigma: float) -> float:
    """A lognormal draw with mean exactly 1 (mu = -sigma^2 / 2)."""
    if sigma == 0:
        return 1.0
    return float(np.exp(rng.normal(-0.5 * sigma * sigma, sigma)))


@dataclass
class StochasticNoise:
    """Noise model implementing the fluid engine's ``NoiseModel`` protocol.

    Instances are single-run: the run-level component is drawn lazily
    per resource and cached for the lifetime of the instance.
    """

    spec: NoiseSpec = field(default_factory=NoiseSpec)
    _run_level: dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def epoch_length_s(self) -> float:
        return self.spec.epoch_length_s if not self.spec.quiet else math.inf

    def in_scope(self, resource_id: str) -> bool:
        return _in_scope(self.spec.scope_prefixes, resource_id)

    def touches(self, resource_id: str) -> bool:
        """Whether :meth:`multiplier` may draw for ``resource_id``."""
        return not self.spec.quiet and self.in_scope(resource_id)

    def multiplier(self, resource_id: str, epoch: int, rng: np.random.Generator) -> float:
        if self.spec.quiet or not self.in_scope(resource_id):
            return 1.0
        if resource_id not in self._run_level:
            self._run_level[resource_id] = _mean_one_lognormal(rng, self.spec.sigma_run)
        value = self._run_level[resource_id] * _mean_one_lognormal(rng, self.spec.sigma_epoch)
        if self.spec.transient_prob > 0 and rng.random() < self.spec.transient_prob:
            value *= self.spec.transient_severity
        return value


@dataclass
class SharedStateNoise:
    """One multiplier for *all* in-scope resources (correlated noise).

    Models a system-wide storage state: cache pressure, background
    traffic and controller load affect the whole stack together, so
    the pools, targets and the SAN move in lockstep.  This matters for
    Figure 13: with correlated noise the shared-vs-distinct comparison
    is exactly ratio-preserving, as the paper observed (p = 0.90) —
    independent per-resource noise would penalise whichever case sits
    closer to a pool ceiling.

    Like :class:`StochasticNoise`, instances are single-run: the
    run-level draw and each epoch's draw are cached.
    """

    spec: NoiseSpec = field(default_factory=NoiseSpec)
    _run_level: float | None = field(default=None, repr=False)
    _epoch_cache: dict[int, float] = field(default_factory=dict, repr=False)

    @property
    def epoch_length_s(self) -> float:
        return self.spec.epoch_length_s if not self.spec.quiet else math.inf

    def in_scope(self, resource_id: str) -> bool:
        return _in_scope(self.spec.scope_prefixes, resource_id)

    def touches(self, resource_id: str) -> bool:
        """Whether :meth:`multiplier` may draw for ``resource_id``."""
        return not self.spec.quiet and self.in_scope(resource_id)

    def multiplier(self, resource_id: str, epoch: int, rng: np.random.Generator) -> float:
        if self.spec.quiet or not self.in_scope(resource_id):
            return 1.0
        if self._run_level is None:
            self._run_level = _mean_one_lognormal(rng, self.spec.sigma_run)
        if epoch not in self._epoch_cache:
            value = _mean_one_lognormal(rng, self.spec.sigma_epoch)
            if self.spec.transient_prob > 0 and rng.random() < self.spec.transient_prob:
                value *= self.spec.transient_severity
            self._epoch_cache[epoch] = value
        return self._run_level * self._epoch_cache[epoch]


@dataclass
class CompositeNoise:
    """The product of several noise models with compatible epochs.

    Used to combine, e.g., storage-device noise with a milder network
    noise in one simulation.  Every member must either be epoch-free
    (infinite epoch length) or share the same finite epoch length, so
    the composite resamples all members consistently.
    """

    models: "tuple[StochasticNoise | SharedStateNoise, ...]"

    def __post_init__(self) -> None:
        if not self.models:
            raise StorageError("composite noise needs at least one model")
        finite = {m.epoch_length_s for m in self.models if math.isfinite(m.epoch_length_s)}
        if len(finite) > 1:
            raise StorageError(f"incompatible epoch lengths {sorted(finite)}")

    @property
    def epoch_length_s(self) -> float:
        return min(m.epoch_length_s for m in self.models)

    def touches(self, resource_id: str) -> bool:
        """True when any member may draw for ``resource_id``.

        A member without ``touches`` counts as touching every resource.
        """
        for model in self.models:
            touches = getattr(model, "touches", None)
            if touches is None or touches(resource_id):
                return True
        return False

    def multiplier(self, resource_id: str, epoch: int, rng: np.random.Generator) -> float:
        value = 1.0
        for model in self.models:
            value *= model.multiplier(resource_id, epoch, rng)
        return value
