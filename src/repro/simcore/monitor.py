"""Time series for simulations.

The engines record per-server bandwidth timelines (the data behind the
paper's Figure 9) as :class:`TimeSeries`, the integration-friendly
in-memory representation.  Structured events go through
:func:`repro.telemetry.get_bus`.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """A piecewise-constant time series (left-continuous step function).

    ``value_at(t)`` returns the value set at the latest time ``<= t``.
    Integration treats the series as constant between samples, which is
    exactly the semantics of the fluid engine's per-segment rates.
    """

    def __init__(self, times: Iterable[float] = (), values: Iterable[float] = ()):
        self.times: list[float] = list(times)
        self.values: list[float] = list(values)
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.times)

    def append(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1] - 1e-12:
            raise ValueError("appending out of order")
        self.times.append(time)
        self.values.append(value)

    def value_at(self, t: float) -> float:
        """Value of the step function at time ``t`` (0.0 before first sample)."""
        idx = bisect.bisect_right(self.times, t) - 1
        return self.values[idx] if idx >= 0 else 0.0

    def integrate(self, t0: float, t1: float) -> float:
        """Integral of the step function over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError("t1 < t0")
        if not self.times or t1 <= self.times[0]:
            return 0.0
        total = 0.0
        boundaries = [t0] + [t for t in self.times if t0 < t < t1] + [t1]
        for a, b in zip(boundaries, boundaries[1:]):
            total += self.value_at(a) * (b - a)
        return total

    def mean(self, t0: float, t1: float) -> float:
        """Time-average over ``[t0, t1]``."""
        if t1 == t0:
            return self.value_at(t0)
        return self.integrate(t0, t1) / (t1 - t0)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)
