"""Execution engines: turning workloads into timed runs.

Two engines share the same inputs (a platform topology, a BeeGFS
instance, a calibration, a set of applications):

* :class:`~repro.engine.fluid_runner.FluidEngine` — the fast fluid
  model used by all experiments: per-(node, target) flows, max-min
  fair rates, piecewise integration.  A few milliseconds per run
  (about 2-10 ms for a fig6 run on a 2-CPU x86 host).
* :class:`~repro.engine.des_runner.DESEngine` — a request-level
  processor-sharing discrete-event simulation: every transfer of every
  process is an individual flow released only when the process's
  previous transfer completed (blocking POSIX semantics).  Its events
  are solved over route classes (all extents from one node to one
  target).  Still orders of magnitude slower; used to cross-validate
  the fluid engine on small configurations.
"""

from .result import ApplicationResult, RunResult
from .fluid_runner import EngineOptions, FluidEngine
from .des_runner import DESEngine

__all__ = [
    "ApplicationResult",
    "RunResult",
    "EngineOptions",
    "FluidEngine",
    "DESEngine",
]
