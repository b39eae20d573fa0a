"""Exact engine output, pinned to ``MODEL_REVISION``.

The conformance golden compares the engines at a tolerance and the
replay suite only checks that a run matches itself, so neither notices a
change that moves one bit of engine output.  The result caches key their
entries on ``MODEL_REVISION``, so such a change would keep serving
results computed by the old engine.  This golden pins the full
:func:`~repro.verify.replay.result_fingerprint` of a small corpus at
seed 0, reps 0 and 1, plus digests of two outputs that fingerprint
leaves out: a noisy run's per-server throughput series and the
bottleneck report of ``repro explain``.  When a fingerprint changes on purpose, bump
``MODEL_REVISION`` (``repro/scenario/spec.py``) and regenerate::

    PYTHONPATH=src python -m tests.verify.test_engine_fingerprints
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.engine.base import EngineOptions
from repro.engine.result import RunResult
from repro.experiments import exp_faults
from repro.faults import FaultSchedule, target_outage
from repro.methodology.plan import ExperimentSpec
from repro.scenario import MODEL_REVISION
from repro.scenario.canonical import fingerprint_of
from repro.scenario.compile import compile_scenario
from repro.service import SimulationService
from repro.storage.client_model import RetryPolicy
from repro.verify.replay import result_fingerprint

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "engine_fingerprints.json"
SEED = 0
REPS = (0, 1)


class Case(NamedTuple):
    name: str
    spec: ExperimentSpec
    options: EngineOptions = EngineOptions()
    engine: str = "fluid"
    max_nodes: int = 32


def _fig6(scenario: str, nodes: int, stripe: int) -> ExperimentSpec:
    factors = {"stripe_count": stripe, "num_nodes": nodes, "ppn": 8, "total_gib": 32}
    return ExperimentSpec("fig6", scenario, factors)


CORPUS = (
    # Noisy and network-bound: the epoch presolve engages.
    Case("fig6-s1-n8-stripe4", _fig6("scenario1", 8, 4)),
    Case("fig6-s2-n32-stripe8", _fig6("scenario2", 32, 8)),
    # A noisy run through a mid-run target outage: retries, and the
    # outage's start and end as segment breakpoints.
    Case(
        "faults-failover-outage",
        ExperimentSpec(
            "faults",
            "scenario1",
            {"chooser": "failover", "stripe_count": 4, "num_nodes": 8, "ppn": 8, "total_gib": 32},
        ),
        EngineOptions(fault_schedule=exp_faults.timeline_schedule()),
    ),
    # The noiseless outage timeline: segments revisit capacity vectors.
    Case(
        "faults-timeline-noiseless",
        ExperimentSpec(
            "faults",
            "scenario1",
            {"chooser": "fixed:101,201,102,202", "stripe_count": 4, "num_nodes": 8, "ppn": 8},
        ),
        EngineOptions(
            noise_enabled=False, observe_servers=True, fault_schedule=exp_faults.timeline_schedule()
        ),
        max_nodes=8,
    ),
    Case(
        "chunksize-128k-n8",
        ExperimentSpec(
            "chunksize",
            "scenario2",
            {"chunk_kib": 128, "num_nodes": 8, "ppn": 8, "stripe_count": 8, "total_gib": 32},
        ),
    ),
    Case(
        "des-s1-n2-stripe4",
        ExperimentSpec(
            "des", "scenario1", {"num_nodes": 2, "ppn": 4, "stripe_count": 4, "total_gib": 0.0625}
        ),
        engine="des",
    ),
    # File per process: one file, one chooser decision and one layout
    # walk per rank.
    Case(
        "patterns-nn-s2-n8-stripe2",
        ExperimentSpec(
            "patterns",
            "scenario2",
            {
                "pattern": "file-per-process",
                "stripe_count": 2,
                "num_nodes": 8,
                "ppn": 8,
                "total_gib": 32,
            },
        ),
    ),
    # Strided shared file: one region per transfer, interleaved across ranks.
    Case(
        "patterns-n1-strided-s1-n8-stripe4",
        ExperimentSpec(
            "patterns",
            "scenario1",
            {"pattern": "n1-strided", "stripe_count": 4, "num_nodes": 8, "ppn": 8, "total_gib": 32},
        ),
    ),
    # Two applications created one after the other share the chooser.
    Case(
        "fig12-2apps-stripe4",
        ExperimentSpec(
            "fig12",
            "scenario2",
            {
                "num_apps": 2,
                "stripe_count": 4,
                "num_nodes": 8,
                "nodes_per_app": 8,
                "ppn": 8,
                "total_gib": 32,
            },
        ),
    ),
    # DES through a permanent outage of a pinned target: chunk requests
    # stall, time out, retry after a backoff and are finally abandoned.
    Case(
        "des-faults-outage-retry",
        ExperimentSpec(
            "faults",
            "scenario1",
            {
                "chooser": "fixed:101,201,102,202",
                "stripe_count": 4,
                "num_nodes": 2,
                "ppn": 4,
                "total_gib": 0.0625,
            },
        ),
        EngineOptions(
            fault_schedule=FaultSchedule([target_outage(201, 0.005)]),
            retry=RetryPolicy(timeout_s=0.005, max_retries=2, backoff_base_s=0.002),
        ),
        engine="des",
    ),
    # DES over 4 nodes x 8 targets: 32 routes, and two storage pools
    # whose capacity counts their distinct busy targets.
    Case(
        "des-s2-n4-stripe8",
        ExperimentSpec(
            "des", "scenario2", {"num_nodes": 4, "ppn": 4, "stripe_count": 8, "total_gib": 0.0625}
        ),
        engine="des",
    ),
    # DES with two applications on disjoint nodes sharing the chooser.
    Case(
        "des-fig12-2apps-stripe4",
        ExperimentSpec(
            "fig12",
            "scenario2",
            {
                "num_apps": 2,
                "stripe_count": 4,
                "num_nodes": 2,
                "nodes_per_app": 2,
                "ppn": 4,
                "total_gib": 0.0625,
            },
        ),
        engine="des",
    ),
    # DES at the paper's scale: 8 nodes x 8 ppn writing 1 GiB, about
    # 2000 events per repetition, most of them revisiting a class-count
    # vector an earlier event of the run already solved.
    Case(
        "des-s2-n8-ppn8-stripe4-1gib",
        ExperimentSpec(
            "des", "scenario2", {"num_nodes": 8, "ppn": 8, "stripe_count": 4, "total_gib": 1}
        ),
        engine="des",
    ),
    # A read phase builds its own provider set (the read-side SAN and
    # storage rates) from the same engine machinery.
    Case(
        "read-s2-n8-stripe4",
        ExperimentSpec(
            "read",
            "scenario2",
            {"operation": "read", "stripe_count": 4, "num_nodes": 8, "ppn": 8, "total_gib": 32},
        ),
    ),
    # Noise off: no draw at all, one epoch for the whole run.
    Case(
        "fig6-s2-n8-stripe4-noiseless",
        _fig6("scenario2", 8, 4),
        EngineOptions(noise_enabled=False),
    ),
)


def _series_digest(result: RunResult) -> str:
    """Digest of every observed resource's throughput series, to the last ulp."""
    return fingerprint_of(
        {
            rid: [[repr(t), repr(v)] for t, v in zip(series.times, series.values)]
            for rid, series in result.resource_series.items()
        }
    )


def _explain_digest(service: SimulationService, scenario, rep: int) -> str:
    """Digest of ``FluidEngine.explain``'s run and bottleneck report."""
    ctx = service.context(scenario)
    result, report = ctx.engine.explain(ctx.make_apps(), rep=rep)
    return fingerprint_of({"result": result_fingerprint(result), "report": repr(report)})


# Outputs the result fingerprint leaves out: the per-server throughput
# series (Figure 9's data, here under noise) and the bottleneck report
# of ``repro explain``.  ``(name, spec, options, max_nodes, digest)``.
OUTPUTS = (
    (
        "fig9-noisy-resource-series",
        ExperimentSpec(
            "fig9",
            "scenario1",
            {"chooser": "fixed:202,203", "stripe_count": 2, "num_nodes": 8, "ppn": 8},
        ),
        EngineOptions(observe_servers=True),
        8,
        lambda service, scenario, rep: _series_digest(service.run(scenario, rep, cache=False)),
    ),
    (
        "explain-fig6-s2-n8-stripe3",
        _fig6("scenario2", 8, 3),
        EngineOptions(),
        32,
        _explain_digest,
    ),
)


def fingerprints() -> dict[str, dict[str, str]]:
    """``{case: {rep: result fingerprint}}`` of the corpus, executed now."""
    service = SimulationService()
    out: dict[str, dict[str, str]] = {}
    for case in CORPUS:
        scenario = compile_scenario(
            case.spec, seed=SEED, options=case.options, max_nodes=case.max_nodes, engine=case.engine
        )
        out[case.name] = {
            str(rep): result_fingerprint(service.run(scenario, rep, cache=False)) for rep in REPS
        }
    return out


def output_digests() -> dict[str, dict[str, str]]:
    """``{output: {rep: digest}}`` of :data:`OUTPUTS`, executed now."""
    service = SimulationService()
    out: dict[str, dict[str, str]] = {}
    for name, spec, options, max_nodes, digest in OUTPUTS:
        scenario = compile_scenario(spec, seed=SEED, options=options, max_nodes=max_nodes)
        out[name] = {str(rep): digest(service, scenario, rep) for rep in REPS}
    return out


def regenerate(path: Path = GOLDEN) -> None:
    """Rewrite the golden from the engines as they are now."""
    data = {
        "model_revision": MODEL_REVISION,
        "seed": SEED,
        "cases": fingerprints(),
        "outputs": output_digests(),
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


_REGENERATE = (
    "bump MODEL_REVISION in repro/scenario/spec.py and regenerate the golden with "
    "`PYTHONPATH=src python -m tests.verify.test_engine_fingerprints`"
)


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), f"{GOLDEN} must be committed; {_REGENERATE}"
    return json.loads(GOLDEN.read_text())


def test_golden_is_for_this_model_revision(golden):
    assert golden["model_revision"] == MODEL_REVISION, (
        f"the engine-fingerprint golden was made at MODEL_REVISION "
        f"{golden['model_revision']}, the code is at {MODEL_REVISION}: regenerate it"
    )
    assert golden["seed"] == SEED
    assert set(golden["cases"]) == {case.name for case in CORPUS}
    assert set(golden["outputs"]) == {name for name, *_ in OUTPUTS}


def _changed(pinned: dict, now: dict) -> list[str]:
    return [
        f"{name} rep {rep}"
        for name, reps in now.items()
        for rep, fp in reps.items()
        if pinned.get(name, {}).get(rep) != fp
    ]


def test_engine_output_unchanged(golden):
    changed = _changed(golden["cases"], fingerprints())
    assert not changed, (
        f"engine output changed for {', '.join(changed)} at MODEL_REVISION "
        f"{MODEL_REVISION}; cached results would go stale: {_REGENERATE}"
    )


def test_series_and_bottleneck_report_unchanged(golden):
    changed = _changed(golden["outputs"], output_digests())
    assert not changed, (
        f"engine output changed for {', '.join(changed)} at MODEL_REVISION "
        f"{MODEL_REVISION}: {_REGENERATE}"
    )


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}")
