"""Cross-engine differential conformance.

The repo ships two engines that model the same system at different
granularities: the fluid engine (aggregate piecewise-constant-rate
flows) and the DES engine (request-level processor sharing).  Their
approximations differ, so they will never agree bit-for-bit — but on
configurations small enough for the DES, their bandwidth predictions
must agree within a *declared* tolerance, and each engine individually
must reproduce its own pinned golden numbers exactly.

Each case is lowered to one :class:`~repro.scenario.ScenarioSpec` per
engine, the two differing only in the engine: the case's workload on
the 8-node platform, noise and metadata overhead off, its fault
schedule, and the sweep's validation level.  Both run cache-off through
the :class:`~repro.service.SimulationService`, the path every campaign
run takes.

Two layers of defence, with different purposes:

* **cross-engine tolerance** (``RunSpec.tolerance``, rel.) catches
  model drift — one engine's physics changing while the other's stays
  put.  Tolerances are part of each spec, not a global constant, so a
  case that is known to stress the fluid approximation can declare a
  looser band and the declaration is visible in the conformance report.
* **golden pinning** (``tests/golden/conformance.json``) catches *any*
  numeric change, including a lockstep change of both engines.  The
  runs are deterministic (noise off, metadata overhead off), so goldens
  compare at ``GOLDEN_RTOL`` — tight enough that only a genuine model
  change trips it, loose enough to survive benign float reassociation.

Regenerate goldens deliberately via ``repro verify --suite conformance
--update-golden`` and review the diff like any other behaviour change.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from ..engine.base import EngineOptions
from ..errors import ConfigError, GoldenMismatchError
from ..faults.schedule import FaultSchedule, degraded_target
from ..methodology.plan import ExperimentSpec
from ..scenario.compile import compile_scenario
from ..service import get_service
from .level import ValidationLevel

__all__ = [
    "RunSpec",
    "CaseResult",
    "ConformanceReport",
    "CONFORMANCE_SPECS",
    "GOLDEN_RTOL",
    "default_golden_path",
    "run_conformance",
]

#: Relative tolerance for comparing a deterministic run against its
#: pinned golden value.  Runs are noise-free, so this only needs to
#: absorb float reassociation across platforms/Python versions.
GOLDEN_RTOL = 1e-6

_FAULT_KINDS = ("", "degraded-target")


@dataclass(frozen=True)
class RunSpec:
    """One conformance case: a workload both engines must agree on."""

    name: str
    scenario: str = "scenario1"
    num_nodes: int = 2
    ppn: int = 4
    stripe_count: int = 4
    total_mib: int = 512
    transfer_mib: int = 1
    chooser: str | None = None
    fault: str = ""  # "" or "degraded-target"
    tolerance: float = 0.15

    def __post_init__(self) -> None:
        if self.fault not in _FAULT_KINDS:
            raise ConfigError(
                f"conformance spec {self.name!r}: unknown fault kind {self.fault!r} "
                f"(expected one of {_FAULT_KINDS})"
            )
        if not (0.0 < self.tolerance < 1.0):
            raise ConfigError(
                f"conformance spec {self.name!r}: tolerance must be in (0, 1), "
                f"got {self.tolerance}"
            )

    def fault_schedule(self) -> FaultSchedule | None:
        if self.fault == "degraded-target":
            # A limping (not offline) target: both engines model the
            # capacity dip identically, so cross-engine agreement is a
            # fair ask.  Hard outages exercise retry/abandon machinery
            # whose timing semantics legitimately differ between the
            # engines; those paths are covered by the replay suite.
            # The 0.1 multiplier pushes the OST below the network share
            # so the fault actually binds (milder dips hide behind the
            # fabric bottleneck and the case would test nothing).
            return FaultSchedule([degraded_target(201, start_s=0.02, duration_s=5.0, multiplier=0.1)])
        return None


#: The shipped conformance corpus.  Small volumes keep the DES cheap;
#: the cases cover both calibration scenarios, the stripe counts the
#: paper sweeps, pinned unbalanced/balanced placements, and a degraded
#: target.
CONFORMANCE_SPECS: tuple[RunSpec, ...] = (
    RunSpec(name="s1-stripe4", scenario="scenario1", stripe_count=4),
    RunSpec(
        name="s1-stripe2-balanced",
        scenario="scenario1",
        num_nodes=4,
        stripe_count=2,
        chooser="fixed:101,201",
    ),
    RunSpec(
        name="s1-stripe2-unbalanced",
        scenario="scenario1",
        num_nodes=4,
        stripe_count=2,
        chooser="fixed:201,202",
    ),
    RunSpec(name="s1-stripe8", scenario="scenario1", num_nodes=4, ppn=8, stripe_count=8, total_mib=1024),
    RunSpec(name="s2-stripe1", scenario="scenario2", stripe_count=1, total_mib=256),
    RunSpec(name="s2-stripe4", scenario="scenario2", stripe_count=4),
    RunSpec(
        name="s1-degraded-target",
        scenario="scenario1",
        num_nodes=4,
        stripe_count=4,
        chooser="fixed:101,201,102,202",
        fault="degraded-target",
        total_mib=256,
        tolerance=0.2,
    ),
)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one conformance case."""

    name: str
    fluid_mib_s: float
    des_mib_s: float
    tolerance: float
    rel_diff: float
    agrees: bool
    golden_errors: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.agrees and not self.golden_errors


@dataclass(frozen=True)
class ConformanceReport:
    """All case outcomes plus the golden-store bookkeeping."""

    cases: tuple[CaseResult, ...]
    golden_path: Path | None = None
    golden_updated: bool = False
    missing_golden: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if not c.ok)

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            status = "ok" if c.ok else "FAIL"
            out.append(
                f"  [{status}] {c.name}: fluid {c.fluid_mib_s:.2f} vs DES {c.des_mib_s:.2f} MiB/s "
                f"(rel diff {c.rel_diff:.3f}, tol {c.tolerance:.2f})"
            )
            for err in c.golden_errors:
                out.append(f"         golden: {err}")
        if self.missing_golden:
            out.append(
                f"  note: no golden entry for {', '.join(self.missing_golden)} "
                "(run with --update-golden to pin)"
            )
        return out


def default_golden_path() -> Path:
    """``tests/golden/conformance.json`` relative to the repo root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "conformance.json"


def _bandwidths(spec: RunSpec, level: ValidationLevel) -> tuple[float, float]:
    """The case's fluid and DES bandwidths, each run once cache-off."""
    factors = {
        "num_nodes": spec.num_nodes,
        "ppn": spec.ppn,
        "stripe_count": spec.stripe_count,
        "total_gib": spec.total_mib / 1024,
        "transfer_mib": spec.transfer_mib,
    }
    if spec.chooser:
        factors["chooser"] = spec.chooser
    options = EngineOptions(
        noise_enabled=False,
        include_metadata_overhead=False,
        validation=level,
        fault_schedule=spec.fault_schedule(),
    )
    planned = ExperimentSpec("conformance", spec.scenario, factors)
    fluid, des = (
        compile_scenario(planned, options=options, max_nodes=8, engine=engine)
        for engine in ("fluid", "des")
    )
    service = get_service()
    return (
        service.run(fluid, 0, cache=False).single.bandwidth_mib_s,
        service.run(des, 0, cache=False).single.bandwidth_mib_s,
    )


def _load_golden(path: Path) -> dict:
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GoldenMismatchError(f"unreadable golden store {path}: {exc}") from exc
    return data.get("cases", {})


def _golden_errors(name: str, golden: dict, fluid: float, des: float) -> tuple[str, ...]:
    entry = golden.get(name)
    if entry is None:
        return ()
    errors = []
    for label, observed in (("fluid_mib_s", fluid), ("des_mib_s", des)):
        pinned = float(entry[label])
        if not math.isclose(observed, pinned, rel_tol=GOLDEN_RTOL, abs_tol=1e-9):
            errors.append(
                f"{label} drifted from pinned {pinned:.6f} to {observed:.6f} MiB/s "
                f"(rtol {GOLDEN_RTOL:g})"
            )
    return tuple(errors)


def run_conformance(
    specs: tuple[RunSpec, ...] = CONFORMANCE_SPECS,
    level: ValidationLevel = ValidationLevel.PARANOID,
    golden_path: Path | None = None,
    update_golden: bool = False,
    progress=None,
) -> ConformanceReport:
    """Run every spec through both engines and compare.

    With ``update_golden`` the observed values are written back to the
    golden store (after the cross-engine check, so a disagreeing pair is
    never pinned).  Invariant checking runs at ``level`` inside both
    engines, so a conformance sweep is also an invariant sweep.
    """
    golden_path = golden_path if golden_path is not None else default_golden_path()
    golden = {} if update_golden else _load_golden(golden_path)
    cases = []
    observed: dict[str, dict[str, float]] = {}
    missing = []
    for spec in specs:
        bw_fluid, bw_des = _bandwidths(spec, level)
        rel_diff = abs(bw_fluid - bw_des) / max(abs(bw_des), 1e-12)
        agrees = rel_diff <= spec.tolerance
        golden_errors = _golden_errors(spec.name, golden, bw_fluid, bw_des)
        if not update_golden and spec.name not in golden:
            missing.append(spec.name)
        observed[spec.name] = {"fluid_mib_s": bw_fluid, "des_mib_s": bw_des}
        case = CaseResult(
            name=spec.name,
            fluid_mib_s=bw_fluid,
            des_mib_s=bw_des,
            tolerance=spec.tolerance,
            rel_diff=rel_diff,
            agrees=agrees,
            golden_errors=golden_errors,
        )
        cases.append(case)
        if progress is not None:
            progress(("ok " if case.ok else "FAIL") + f" {spec.name}")
    updated = False
    if update_golden and all(c.agrees for c in cases):
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "golden_rtol": GOLDEN_RTOL,
                    "cases": observed,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        updated = True
    return ConformanceReport(
        cases=tuple(cases),
        golden_path=golden_path,
        golden_updated=updated,
        missing_golden=tuple(missing),
    )
