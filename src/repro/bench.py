"""Tracked performance benchmarks of the simulation hot paths.

``beegfs-repro bench`` times the layers the campaign cost is made of —
the max-min solver, one fluid-engine run, cache-hit replay from disk,
and a full protocol campaign (serial and parallel) —
and writes a ``BENCH_<rev>.json``
report next to the committed baseline, so performance regressions are
caught the same way correctness regressions are.

Reports are machine-portable *by normalization*: every report carries
``norm_s``, the wall time of a fixed pure-numpy kernel on the machine
that produced it.  :func:`compare` rescales the current numbers by the
ratio of the two norms before applying the regression threshold, so a
slower CI runner does not read as a slower simulator.  Dimensionless
metrics (speedup, batch size) are pure ratios and are never rescaled.
Parallel-campaign metrics additionally depend on the core count *and*
on the campaign length (worker spawn amortization, chunk sizing); they
are compared only when both reports saw the same ``cpu_count`` and the
same ``quick`` mode (a single-core container can prove the parallel
runner *correct*, never *fast*).

Timing protocol: each metric is the best of several batches (median-free
min), because the minimum over batches is the statistic least sensitive
to the scheduling noise of shared machines.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ReproError

__all__ = ["collect", "write_report", "render", "compare", "BENCH_SCHEMA"]

BENCH_SCHEMA = 1

# Benchmark workload: the paper-scale configuration (32 nodes x 8 ppn,
# stripe 8) whose campaigns dominate reproduction wall clock.
_BENCH_FACTORS = {"num_nodes": 32, "ppn": 8, "stripe_count": 8}


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).parent,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_norm(batches: int = 5) -> float:
    """Wall time of a fixed pure-numpy kernel (machine-speed yardstick).

    The kernel mimics the solver's working set (boolean incidence mask,
    float reductions over a 256x60 matrix) without touching any repro
    code, so it moves with the machine, never with the simulator.
    """
    rng = np.random.default_rng(12345)
    incidence = rng.random((256, 60)) < 0.12
    caps = rng.uniform(500.0, 12000.0, 60)
    best = float("inf")
    for _ in range(batches):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(200):
            users = incidence.sum(axis=0)
            mask = users > 0
            headroom = np.where(mask, caps / np.maximum(users, 1), np.inf)
            acc += float(headroom.min()) + float(incidence[:, mask].sum())
        best = min(best, time.perf_counter() - start)
    if acc == 0.0:  # keeps the accumulator (and the kernel) alive
        raise ReproError("norm kernel degenerated")
    return best


def _best_of(fn: Callable[[], float], batches: int) -> float:
    return min(fn() for _ in range(batches))


def _metric(
    value: float,
    unit: str,
    direction: str,
    parallel: bool = False,
    dimensionless: bool = False,
) -> dict[str, Any]:
    out = {
        "value": float(value),
        "unit": unit,
        "direction": direction,  # "lower" | "higher" is better
        "parallel": parallel,
    }
    if dimensionless:
        # A pure ratio (speedup, runs per batch): machine speed already
        # divides out, so compare() must not norm-rescale it.
        out["dimensionless"] = True
    return out


# -- layer benches -------------------------------------------------------------


def _solver_problem() -> tuple[list[list[int]], np.ndarray]:
    rng = np.random.default_rng(0)
    nflows, nres = 256, 60
    memberships = [
        sorted(int(r) for r in rng.choice(nres, size=7, replace=False))
        for _ in range(nflows)
    ]
    return memberships, rng.uniform(500.0, 12000.0, nres)


def bench_solver(quick: bool = False) -> dict[str, dict[str, Any]]:
    """Max-min solver: one-shot and persistent-incidence paths.

    Sub-second even at full fidelity, so ``quick`` does not reduce it —
    quick and full reports stay comparable on the solver metrics.
    """
    from .netsim.maxmin import MaxMinSolver, max_min_rates

    memberships, capacities = _solver_problem()
    calls = 100
    batches = 4

    def one_shot() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            max_min_rates(memberships, capacities)
        return (time.perf_counter() - start) / calls

    solver = MaxMinSolver(memberships, capacities.shape[0])
    varied = [capacities * (1.0 + 0.001 * i) for i in range(calls)]

    def persistent() -> float:
        start = time.perf_counter()
        for caps in varied:
            solver.solve(caps)
        return (time.perf_counter() - start) / calls

    return {
        "solver.one_shot_us": _metric(_best_of(one_shot, batches) * 1e6, "us/call", "lower"),
        "solver.persistent_us": _metric(_best_of(persistent, batches) * 1e6, "us/call", "lower"),
    }


def bench_fluid(quick: bool = False) -> dict[str, dict[str, Any]]:
    """One paper-scale fluid-engine run: ms/run and segment throughput.

    The run goes through the simulation service with the cache off, so
    it always executes.  Like :func:`bench_solver`, cheap enough to run
    at full fidelity in quick mode.
    """
    from .methodology.plan import ExperimentSpec
    from .scenario.compile import compile_scenario
    from .service import get_service
    from .telemetry.bus import session

    spec = compile_scenario(
        ExperimentSpec(exp_id="bench", scenario="scenario1", factors=_BENCH_FACTORS), seed=7
    )
    svc = get_service()
    svc.run(spec, 0, cache=False)  # warm engine + caches out of the timed region
    runs = 12
    batches = 3

    with session(ring=4) as bus:
        svc.run(spec, 1, cache=False)
        segments_per_run = bus.metrics.counter("engine.segments_solved", engine="fluid").value

    def timed() -> float:
        start = time.perf_counter()
        for rep in range(runs):
            svc.run(spec, rep + 2, cache=False)
        return (time.perf_counter() - start) / runs

    per_run = _best_of(timed, batches)
    return {
        "fluid.run_ms": _metric(per_run * 1e3, "ms/run", "lower"),
        "fluid.runs_per_s": _metric(1.0 / per_run, "runs/s", "higher"),
        "fluid.segments_per_s": _metric(
            segments_per_run / per_run, "segments/s", "higher"
        ),
    }


def _campaign_specs() -> list[Any]:
    from .methodology.plan import ExperimentSpec

    return [
        ExperimentSpec(
            exp_id="bench",
            scenario="scenario1",
            factors={**_BENCH_FACTORS, "stripe_count": s},
        )
        for s in (4, 8)
    ]


def bench_campaign(
    quick: bool = False,
    workers: int = 4,
    transfer_out: dict[str, Any] | None = None,
) -> dict[str, dict[str, Any]]:
    """A reduced protocol campaign, serial and at ``workers`` processes.

    The only stage ``quick`` shortens (5 reps instead of 25): campaign
    metrics are rates, so they stay comparable across rep counts.  The
    result cache is disabled: the bench times execution, not replay.

    The parallel leg also reports dispatch economics — mean batch size
    and parent-side dispatch overhead per run — and, via
    ``transfer_out``, the raw spool-transfer counters (batches, jobs,
    frames, bytes) for the CI artifact.
    """
    from .experiments.common import run_specs

    specs = _campaign_specs()
    reps = 5 if quick else 25
    total = reps * len(specs)

    start = time.perf_counter()
    store = run_specs(specs, repetitions=reps, seed=7, cache=False)
    serial_s = time.perf_counter() - start
    if len(store) != total:
        raise ReproError(f"campaign bench expected {total} records, got {len(store)}")

    out = {
        "campaign.serial_runs_per_s": _metric(total / serial_s, "runs/s", "higher"),
    }
    if workers > 1:
        stats: dict[str, Any] = {}
        start = time.perf_counter()
        pstore = run_specs(
            specs, repetitions=reps, seed=7, workers=workers, cache=False,
            stats_out=stats,
        )
        parallel_s = time.perf_counter() - start
        if len(pstore) != total:
            raise ReproError(
                f"parallel campaign bench expected {total} records, got {len(pstore)}"
            )
        out[f"campaign.parallel_{workers}w_runs_per_s"] = _metric(
            total / parallel_s, "runs/s", "higher", parallel=True
        )
        out[f"campaign.speedup_{workers}w"] = _metric(
            serial_s / parallel_s, "x", "higher", parallel=True, dimensionless=True
        )
        transfer = stats.get("transfer") or {}
        jobs = float(transfer.get("jobs", 0) or 0)
        batches = float(transfer.get("batches", 0) or 0)
        if jobs and batches:
            out["campaign.dispatch_overhead_us"] = _metric(
                transfer["dispatch_overhead_s"] / jobs * 1e6,
                "us/run",
                "lower",
                parallel=True,
            )
            out["campaign.batch_size"] = _metric(
                jobs / batches, "runs/batch", "higher", parallel=True, dimensionless=True
            )
        if transfer_out is not None and transfer:
            transfer_out.update(transfer)
    return out


def bench_cache(quick: bool = False) -> dict[str, dict[str, Any]]:
    """Cache-hit latency from the disk tier.

    One run populates a throwaway cache; every later run of the same
    (spec, rep) replays from disk.  The timing covers the full
    ``service.run`` hit path (replayed events included).  Cheap enough
    to run at full fidelity in quick mode.
    """
    import tempfile as _tempfile

    from .scenario.compile import compile_scenario
    from .methodology.plan import ExperimentSpec
    from .service import get_service

    spec = ExperimentSpec(exp_id="bench", scenario="scenario1", factors=_BENCH_FACTORS)
    scenario = compile_scenario(spec, seed=7)
    svc = get_service()
    hits = 10
    batches = 3
    with _tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        svc.run(scenario, 0, cache=True, cache_dir=tmp)  # populate, cold

        def timed_disk() -> float:
            start = time.perf_counter()
            for _ in range(hits):
                svc.run(scenario, 0, cache=True, cache_dir=tmp)
            return (time.perf_counter() - start) / hits

        disk = _best_of(timed_disk, batches)
    return {"cache.disk_hit_us": _metric(disk * 1e6, "us/hit", "lower")}


# -- report --------------------------------------------------------------------


def collect(quick: bool = False, workers: int = 4) -> dict[str, Any]:
    """Run every bench layer and assemble the report."""
    metrics: dict[str, dict[str, Any]] = {}
    transfer: dict[str, Any] = {}
    metrics.update(bench_solver(quick))
    metrics.update(bench_fluid(quick))
    metrics.update(bench_cache(quick))
    metrics.update(bench_campaign(quick, workers=workers, transfer_out=transfer))
    report = {
        "schema": BENCH_SCHEMA,
        "rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
        "quick": bool(quick),
        "norm_s": measure_norm(),
        "metrics": metrics,
    }
    if transfer:
        # Raw spool-transfer counters from the parallel campaign leg:
        # not gated (they are shape, not speed), but archived by CI so
        # dispatch economics stay inspectable across revisions.
        report["transfer"] = transfer
    return report


def write_report(report: dict[str, Any], out_dir: str | Path = "benchmarks") -> Path:
    out = Path(out_dir) / f"BENCH_{report['rev']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


def render(report: dict[str, Any]) -> str:
    lines = [
        f"bench @ {report['rev']} — python {report['python']}, numpy {report['numpy']}, "
        f"{report['cpu_count']} cpu(s), norm {report['norm_s'] * 1e3:.1f}ms",
        f"  {'metric':<36s} {'value':>12s}  unit",
    ]
    for name, m in sorted(report["metrics"].items()):
        lines.append(f"  {name:<36s} {m['value']:>12.2f}  {m['unit']}")
    return "\n".join(lines)


def load_report(path: str | Path) -> dict[str, Any]:
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read bench report {path}: {exc}") from exc
    if report.get("schema") != BENCH_SCHEMA:
        raise ReproError(
            f"bench report {path} has schema {report.get('schema')!r}, "
            f"expected {BENCH_SCHEMA}"
        )
    return report


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.30,
) -> tuple[list[str], list[str]]:
    """Compare two reports; returns (regressions, detail lines).

    Current values are rescaled by the norm ratio before the threshold
    is applied, so machine speed divides out — except dimensionless
    ratios (speedup, batch size), which are compared as-is.  Parallel
    metrics are skipped unless both reports ran with the same
    ``cpu_count`` *and* the same ``quick`` mode (campaign length changes
    spawn amortization and chunk shape); metrics absent from either
    report are skipped with a note.
    """
    if threshold < 0:
        raise ReproError("regression threshold must be non-negative")
    scale = baseline["norm_s"] / current["norm_s"]
    cur_cpus = current.get("cpu_count")
    base_cpus = baseline.get("cpu_count")
    same_cpus = cur_cpus == base_cpus
    regressions: list[str] = []
    skipped = 0
    lines: list[str] = [
        f"baseline {baseline['rev']} (norm {baseline['norm_s'] * 1e3:.1f}ms) vs "
        f"current {current['rev']} (norm {current['norm_s'] * 1e3:.1f}ms), "
        f"threshold {threshold:.0%}"
    ]
    for name, base in sorted(baseline["metrics"].items()):
        cur = current["metrics"].get(name)
        if cur is None:
            skipped += 1
            lines.append(f"  {name:<36s} skipped (absent from current report)")
            continue
        if base.get("parallel") and not same_cpus:
            # Say *which* counts disagree: a silent skip here once hid a
            # parallel regression behind a runner-shape change.
            skipped += 1
            lines.append(
                f"  {name:<36s} skipped (cpu_count {cur_cpus} vs {base_cpus})"
            )
            continue
        if base.get("parallel") and current.get("quick") != baseline.get("quick"):
            # A 10-run quick campaign is spawn-dominated and chunks to
            # size 1; its dispatch shape is incomparable to a full run.
            skipped += 1
            lines.append(
                f"  {name:<36s} skipped (quick {current.get('quick')} "
                f"vs {baseline.get('quick')})"
            )
            continue
        # A "lower is better" time shrinks on a faster machine; divide
        # the machine advantage back out.  Rates are the reciprocal case.
        # Dimensionless ratios already divide machine speed out.
        direction = base["direction"]
        if base.get("dimensionless"):
            adjusted = cur["value"]
        else:
            adjusted = cur["value"] * scale if direction == "lower" else cur["value"] / scale
        if direction == "lower":
            ratio = adjusted / base["value"]
            regressed = adjusted > base["value"] * (1.0 + threshold)
        else:
            ratio = base["value"] / adjusted if adjusted else float("inf")
            regressed = adjusted < base["value"] * (1.0 - threshold)
        verdict = "REGRESSED" if regressed else "ok"
        lines.append(
            f"  {name:<36s} {base['value']:>10.2f} -> {adjusted:>10.2f} {base['unit']:<10s} "
            f"({ratio - 1.0:+.1%}) {verdict}"
        )
        if regressed:
            regressions.append(
                f"{name}: {adjusted:.2f} {base['unit']} vs baseline "
                f"{base['value']:.2f} (norm-adjusted, >{threshold:.0%} worse)"
            )
    lines.append(
        f"  {len(regressions)} regression(s), {skipped} metric(s) skipped"
    )
    return regressions, lines
