"""The ``repro verify`` verification suite.

Ties the three guardrail layers into one runnable gate:

* **invariants** — paranoid (or basic) campaigns over shipped
  experiment specs; any run tripping an invariant is quarantined by the
  protocol runner exactly like a crash under ``on_error="skip"``, and
  every quarantined violation fails the suite;
* **conformance** — the fluid-vs-DES differential harness of
  :mod:`repro.verify.conformance`, including golden pinning;
* **replay** — same-seed determinism proofs of
  :mod:`repro.verify.replay`, covering noise, fault schedules and
  retry/backoff.  Each case is a :class:`~repro.scenario.ScenarioSpec`
  run cache-off through the simulation service, so its second run
  reuses the service's engine context, as every campaign rep after the
  first does; engine construction itself is pinned by the
  engine-fingerprint golden and by the serial == parallel checks.

``inject`` seeds a deliberate violation ("over-capacity" and
"byte-loss" corrupt the invariant checkers' view of otherwise-correct
runs; "rng-perturb" replays under a different seed) and then *expects*
the suite to fail: detection means the machinery works (exit 1 from the
CLI); non-detection is itself a failure of the verifier (exit 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..engine.base import EngineOptions
from ..errors import ConfigError, ReplayDivergenceError
from ..faults.schedule import FaultSchedule, target_outage
from ..methodology.plan import ExperimentSpec
from ..scenario.compile import compile_scenario
from ..service import get_service
from ..storage.client_model import RetryPolicy
from .conformance import CONFORMANCE_SPECS, ConformanceReport, run_conformance
from .invariants import forced_injection
from .level import ValidationLevel
from .replay import check_replay

__all__ = [
    "SuiteReport",
    "SUITES",
    "SUITE_INJECTIONS",
    "run_invariants_suite",
    "run_replay_suite",
    "run_suite",
]

SUITES = ("invariants", "conformance", "replay", "all")
SUITE_INJECTIONS = ("over-capacity", "byte-loss", "rng-perturb")

#: Experiments the invariants sweep covers, with sizes trimmed so a
#: paranoid pass stays in CI budget (the full 32 GiB / 100-rep campaigns
#: check the same code paths, just more of them).
INVARIANT_EXPERIMENTS = ("fig6", "faults")


@dataclass
class SuiteReport:
    """Outcome of one ``repro verify`` invocation."""

    suite: str
    level: ValidationLevel
    passed: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    injection: str | None = None
    injection_detected: bool = False

    @property
    def ok(self) -> bool:
        if self.injection is not None:
            return self.injection_detected
        return not self.failed

    def exit_code(self) -> int:
        """0 all green; 1 violations found; 2 injection went undetected."""
        if self.injection is not None:
            return 1 if self.injection_detected else 2
        return 0 if not self.failed else 1

    def lines(self) -> list[str]:
        out = [f"verify suite={self.suite} level={self.level.name.lower()}"]
        out.extend(f"  pass: {p}" for p in self.passed)
        out.extend(f"  FAIL: {f}" for f in self.failed)
        if self.injection is not None:
            verdict = (
                "detected (verifier works)"
                if self.injection_detected
                else "NOT DETECTED (verifier is broken)"
            )
            out.append(f"  injection {self.injection!r}: {verdict}")
        return out


# -- invariants sweep --------------------------------------------------------------


def _experiment_specs(experiment: str):
    """(specs, engine options) for one invariant-sweep experiment."""
    if experiment == "fig6":
        from ..experiments import exp_stripecount

        specs = exp_stripecount.specs(("scenario1",))
        trimmed = []
        for spec in specs:
            factors = dict(spec.factors)
            factors["total_gib"] = 2  # keep the paranoid sweep cheap
            trimmed.append(type(spec)(spec.exp_id, spec.scenario, factors))
        return trimmed, EngineOptions(noise_enabled=False)
    if experiment == "faults":
        from ..experiments import exp_faults

        specs = exp_faults.specs()
        trimmed = []
        for spec in specs:
            factors = dict(spec.factors)
            factors["total_gib"] = 2
            trimmed.append(type(spec)(spec.exp_id, spec.scenario, factors))
        return trimmed, EngineOptions(
            noise_enabled=False, fault_schedule=exp_faults.timeline_schedule()
        )
    raise ConfigError(
        f"unknown verify experiment {experiment!r} (expected one of {INVARIANT_EXPERIMENTS})"
    )


def run_invariants_suite(
    report: SuiteReport,
    level: ValidationLevel,
    experiments: tuple[str, ...] = INVARIANT_EXPERIMENTS,
    reps: int = 2,
    seed: int = 0,
    inject: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> None:
    """Paranoid campaigns over shipped specs; violations are quarantined."""
    from ..experiments.common import run_specs

    checker_inject = inject if inject in ("over-capacity", "byte-loss") else None
    for experiment in experiments:
        specs, options = _experiment_specs(experiment)
        with forced_injection(checker_inject):
            store = run_specs(
                specs,
                repetitions=reps,
                seed=seed,
                options=options,
                validation=level,
                on_violation="skip",
                progress=progress,
            )
        violations = [f for f in store.failures if f.error_type == "InvariantViolation"]
        name = f"invariants:{experiment} ({len(store)} runs at {level.name.lower()})"
        if violations:
            first = violations[0]
            report.failed.append(
                f"{name}: {len(violations)} quarantined violation(s); first: {first.message}"
            )
            if checker_inject is not None:
                report.injection_detected = True
        else:
            report.passed.append(name)


# -- replay sweep ------------------------------------------------------------------


def _replay_cases(seed: int):
    """Named run factories replay must hold for.

    Each case covers a distinct determinism hazard: noise draws (fluid),
    request interleaving (DES) and the retry/backoff/abandon paths under
    a mid-run target outage.  All three write 256 MiB from 4 nodes x 4
    ppn at stripe 4 on the 8-node scenario-1 platform.
    """
    workload = {"num_nodes": 4, "ppn": 4, "total_gib": 0.25, "stripe_count": 4}
    outage = FaultSchedule([target_outage(201, start_s=0.05, duration_s=0.3)])
    cases = (
        ("fluid+noise", workload, EngineOptions(), "fluid", 1),
        (
            "fluid+outage+retry",
            {**workload, "chooser": "fixed:101,201,102,202"},
            EngineOptions(
                noise_enabled=False,
                fault_schedule=outage,
                retry=RetryPolicy(timeout_s=0.1, max_retries=8),
            ),
            "fluid",
            0,
        ),
        ("des", workload, EngineOptions(noise_enabled=False), "des", 0),
    )

    def factory(factors, options, engine, rep):
        scenario = compile_scenario(
            ExperimentSpec("replay", "scenario1", factors),
            seed=seed,
            options=options,
            max_nodes=8,
            engine=engine,
        )
        return lambda: get_service().run(scenario, rep, cache=False)

    return tuple((name, factory(*case)) for name, *case in cases)


def run_replay_suite(
    report: SuiteReport,
    seed: int = 0,
    runs: int = 2,
    inject: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> None:
    """Same-seed runs must be byte-identical; perturbed seeds must not be."""
    for name, factory in _replay_cases(seed):
        try:
            fingerprint = check_replay(factory, runs=runs, context=name)
        except ReplayDivergenceError as exc:
            report.failed.append(f"replay:{name}: {exc}")
            continue
        report.passed.append(f"replay:{name} (fingerprint {fingerprint[:12]})")
        if progress is not None:
            progress(f"replay:{name} ok")
    if inject == "rng-perturb":
        # The detection self-test: a *different* seed must change the
        # fingerprint.  If it does not, the fingerprint is insensitive
        # to the RNG stream and the replay check proves nothing.
        detected = False
        for (name, base_factory), (_, perturbed_factory) in zip(
            _replay_cases(seed), _replay_cases(seed + 1)
        ):
            baseline = check_replay(base_factory, runs=2, context=name)
            perturbed = check_replay(perturbed_factory, runs=2, context=f"{name}@seed+1")
            if perturbed != baseline:
                detected = True
                break
        report.injection_detected = detected


# -- entry point -------------------------------------------------------------------


def run_suite(
    suite: str = "all",
    level: ValidationLevel | str = ValidationLevel.PARANOID,
    experiments: tuple[str, ...] = INVARIANT_EXPERIMENTS,
    reps: int = 2,
    seed: int = 0,
    golden_path: Path | None = None,
    update_golden: bool = False,
    inject: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> SuiteReport:
    """Run the requested verification suite(s) and return the report."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r} (expected one of {SUITES})")
    if inject is not None and inject not in SUITE_INJECTIONS:
        raise ConfigError(
            f"unknown injection {inject!r} (expected one of {SUITE_INJECTIONS})"
        )
    level = ValidationLevel.parse(level)
    if not level.enabled:
        raise ConfigError("repro verify needs --level basic or paranoid, not off")
    report = SuiteReport(suite=suite, level=level, injection=inject)

    if suite in ("invariants", "all"):
        run_invariants_suite(
            report,
            level,
            experiments=experiments,
            reps=reps,
            seed=seed,
            inject=inject,
            progress=progress,
        )
    if suite in ("conformance", "all"):
        conf: ConformanceReport = run_conformance(
            specs=CONFORMANCE_SPECS,
            level=level,
            golden_path=golden_path,
            update_golden=update_golden,
            progress=progress,
        )
        name = f"conformance ({len(conf.cases)} cases)"
        if conf.ok:
            suffix = " [golden updated]" if conf.golden_updated else ""
            report.passed.append(name + suffix)
        else:
            for case in conf.failures:
                detail = "; ".join(case.golden_errors) or (
                    f"fluid {case.fluid_mib_s:.2f} vs DES {case.des_mib_s:.2f} MiB/s, "
                    f"rel diff {case.rel_diff:.3f} > tol {case.tolerance:.2f}"
                )
                report.failed.append(f"conformance:{case.name}: {detail}")
        if conf.missing_golden and not conf.golden_updated:
            report.passed.append(
                f"conformance: note — no golden entry for {', '.join(conf.missing_golden)}"
            )
    if suite in ("replay", "all"):
        run_replay_suite(report, seed=seed, inject=inject, progress=progress)

    return report
