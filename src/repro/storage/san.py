"""The system-wide storage-stack ceiling and its concurrency ramp.

Several of the paper's observations point at one *global* limit of the
storage stack (independent of which targets are used) that only full
client-side concurrency can saturate:

* the eight-target aggregate tops out near 8 GiB/s (Figure 6b) even
  though the per-server pools could deliver more;
* the node count needed to reach a stripe count's plateau grows with
  the stripe count (Figure 11) in a way a *per-target* queue model
  cannot explain together with Figure 13;
* two applications sharing all four OSTs perform exactly like two
  applications on disjoint sets (Figure 13, Welch p = 0.90) — at equal
  total concurrency the system delivers the same bandwidth no matter
  how many distinct targets are active, as long as no per-server pool
  is saturated.

We model it as a capacity ramp over the **total number of outstanding
chunk requests** ``d`` across the whole system:

    cap(d) = base * [ a * (1 - exp(-d / d_fast))
                      + (1 - a) * (1 - exp(-d / d_slow)) ]

The fast component (small ``d_fast``) represents per-connection
pipelining that a handful of processes already exploits; the slow
component (large ``d_slow``) is the deep parallelism only dozens of
nodes provide.  With the PlaFRIM calibration (base 9800, a = 0.25,
d_fast = 10, d_slow = 280) the stripe-count plateaus land at ~2, ~3,
~14 and ~32 nodes for counts 1, 2, 4 and 8 — the paper's Figure 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import StorageError
from ..netsim.fluid import ResourceContext

__all__ = ["SanRampSpec", "SanModel", "SAN_RESOURCE_ID"]

SAN_RESOURCE_ID = "san:storage"


@dataclass(frozen=True)
class SanRampSpec:
    """Parameters of the global storage-stack ramp."""

    base_mib_s: float = 9800.0
    fast_fraction: float = 0.25
    depth_fast: float = 10.0
    depth_slow: float = 280.0

    def __post_init__(self) -> None:
        if self.base_mib_s <= 0:
            raise StorageError("SAN base capacity must be positive")
        if not 0 <= self.fast_fraction <= 1:
            raise StorageError("fast fraction must be in [0, 1]")
        if self.depth_fast <= 0 or self.depth_slow <= 0:
            raise StorageError("ramp depth constants must be positive")

    def ramp(self, depth: float) -> float:
        """Saturation fraction at total outstanding-request depth ``d``."""
        if depth <= 0:
            return 0.0
        a = self.fast_fraction
        return a * (1.0 - math.exp(-depth / self.depth_fast)) + (1.0 - a) * (
            1.0 - math.exp(-depth / self.depth_slow)
        )

    def capacity_at(self, depth: float) -> float:
        return self.base_mib_s * self.ramp(depth)


@dataclass(frozen=True)
class SanModel:
    """Capacity provider for the global storage resource."""

    spec: SanRampSpec

    # Population-and-noise only (no ctx.time): foldable by the engine.
    noise_scaled = True

    def capacity(self, ctx: ResourceContext) -> float:
        return self.spec.capacity_at(ctx.depth) * ctx.noise

    @property
    def resource_id(self) -> str:
        return SAN_RESOURCE_ID
