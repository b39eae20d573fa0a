"""Simulation guardrails: invariants, conformance, deterministic replay.

Three layers of machine-checked trust (the paper's lesson 5 — means
hide bi-modal behaviour — applies to *model bugs* too: conclusions are
only as trustworthy as every individual simulated point):

* :mod:`repro.verify.invariants` — runtime checkers pluggable into both
  engines via ``EngineOptions(validation=...)``;
* :mod:`repro.verify.conformance` — differential fluid-vs-DES harness
  with a golden-results store for regression pinning;
* :mod:`repro.verify.replay` — same-seed runs must be byte-identical,
  fault schedules and retry/backoff included;
* :mod:`repro.verify.suite` — the ``beegfs-repro verify`` entry point
  tying the three together.

This ``__init__`` deliberately imports only the leaf modules (levels
and invariant checkers): the engines import them at module load, while
:mod:`.conformance`/:mod:`.replay`/:mod:`.suite` import the simulation
service and the engine results — eager re-export here would be a cycle.  The heavier modules are lazily
resolved through ``__getattr__``.
"""

from __future__ import annotations

from .invariants import INJECTION_KINDS, RuntimeChecker, forced_injection, make_checker
from .level import ValidationLevel

__all__ = [
    "ValidationLevel",
    "RuntimeChecker",
    "make_checker",
    "forced_injection",
    "INJECTION_KINDS",
    "conformance",
    "replay",
    "suite",
]

_LAZY_SUBMODULES = ("conformance", "replay", "suite")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
