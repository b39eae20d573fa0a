"""Per-flow rate caps from the blocking-request latency model.

IOR issues synchronous POSIX writes: each process keeps exactly one
transfer in flight, so between two transfers it pays a full
request/response round trip during which it moves no data.  With a
transfer of ``s`` bytes and a per-request overhead of ``L`` seconds, a
process whose in-flight transfers are served at rate ``r`` achieves

    throughput = s / (s / r + L)  =  r * s / (s + L * r)

which approaches ``r`` for large transfers (the paper's motivation for
using 1 MiB transfers and 32 GiB files) and collapses for small ones
(the latency-dominated left side of Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..units import MiB

__all__ = ["BlockingRequestModel", "NoLatency"]


@dataclass(frozen=True)
class BlockingRequestModel:
    """Cap flows at what blocking requests of a given size can sustain.

    Parameters
    ----------
    request_size_bytes:
        The application transfer size (IOR ``-t``), in bytes.
    round_trip_latency_s:
        Fixed per-request overhead: network round trip plus client and
        server per-request processing.
    """

    request_size_bytes: float
    round_trip_latency_s: float

    def __post_init__(self) -> None:
        if self.request_size_bytes <= 0:
            raise ConfigError("request size must be positive")
        if self.round_trip_latency_s < 0:
            raise ConfigError("negative per-request latency")

    def per_process_rate(self, allocated_mib_s: float) -> float:
        """Achieved rate of one process given its allocated share."""
        if allocated_mib_s <= 0:
            return 0.0
        size_mib = self.request_size_bytes / MiB
        return allocated_mib_s * size_mib / (size_mib + self.round_trip_latency_s * allocated_mib_s)

    def flow_caps(
        self,
        rates_mib_s: np.ndarray,
        nprocs: Sequence[float],
        request_sizes_bytes: Sequence[float] | None = None,
    ) -> np.ndarray:
        """Vectorised cap for each flow given tentative allocated rates.

        Each flow aggregates ``nprocs`` independent blocking processes;
        the cap is the sum of their individually achievable rates under
        an even split of the flow's allocation.  ``request_sizes_bytes``
        overrides the model's request size per flow (NaN/None entries
        fall back to the default).
        """
        rates = np.asarray(rates_mib_s, dtype=float)
        procs = np.asarray(nprocs, dtype=float)
        if rates.shape != procs.shape:
            raise ConfigError("rates and nprocs must align")
        if request_sizes_bytes is None:
            size_mib = np.full(rates.shape, self.request_size_bytes / MiB)
        else:
            sizes = np.asarray(request_sizes_bytes, dtype=float)
            if sizes.shape != rates.shape:
                raise ConfigError("request sizes and rates must align")
            size_mib = self.request_sizes_mib(sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.caps_mib(rates, procs, size_mib)

    def request_sizes_mib(self, request_sizes_bytes: np.ndarray) -> np.ndarray:
        """Per-flow request sizes in MiB; NaN entries take the model's size."""
        sizes = request_sizes_bytes
        return np.where(np.isnan(sizes), self.request_size_bytes, sizes) / MiB

    def caps_mib(self, rates: np.ndarray, procs: np.ndarray, size_mib: np.ndarray) -> np.ndarray:
        """:meth:`flow_caps` over float arrays, request sizes already in MiB.

        The fixed point calls this once per iteration with the sizes
        computed once per population.  Call it under
        ``np.errstate(divide="ignore", invalid="ignore")``.
        """
        per_proc = np.where(procs > 0, rates / procs, 0.0)
        achieved = per_proc * size_mib / (size_mib + self.round_trip_latency_s * per_proc)
        return np.where(rates > 0, procs * achieved, np.inf)

    def efficiency(self, allocated_mib_s: float) -> float:
        """Fraction of the allocated rate actually achieved (0..1]."""
        if allocated_mib_s <= 0:
            return 1.0
        return self.per_process_rate(allocated_mib_s) / allocated_mib_s


class NoLatency:
    """A latency model that never caps anything (pure fluid limit)."""

    def per_process_rate(self, allocated_mib_s: float) -> float:
        return max(allocated_mib_s, 0.0)

    def flow_caps(
        self,
        rates_mib_s: np.ndarray,
        nprocs: Sequence[float],
        request_sizes_bytes: Sequence[float] | None = None,
    ) -> np.ndarray:
        return np.full(np.asarray(rates_mib_s).shape, np.inf)

    def request_sizes_mib(self, request_sizes_bytes: np.ndarray) -> np.ndarray:
        return request_sizes_bytes / MiB

    def caps_mib(self, rates: np.ndarray, procs: np.ndarray, size_mib: np.ndarray) -> np.ndarray:
        return np.full(rates.shape, np.inf)

    def efficiency(self, allocated_mib_s: float) -> float:
        return 1.0
