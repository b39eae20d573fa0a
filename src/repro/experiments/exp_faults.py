"""Extension — I/O performance under storage target failures.

The paper measures allocation on a healthy system; production BeeGFS
deployments lose targets.  This experiment injects faults into the
calibrated scenario-1 model and asks the paper's question again under
degraded conditions:

* **Timeline** — a mid-run outage of target 201 (storage2's first
  target).  The client's chunk requests to it time out, back off and
  retry; per-server ingest throughput shows storage2 dropping while
  the outage lasts and the run stretching accordingly.
* **Degraded allocation** — target 201 permanently offline.  With 7
  surviving targets a stripe-4 allocation can no longer rely on the
  round-robin order being balanced; the ``failover`` chooser
  re-balances across the surviving servers.  We compare the (min, max)
  placement distributions and the achieved bandwidth.

Expected outcome: the mid-run outage stretches the makespan (chunk
requests to 201 retry until it recovers; max-min sharing lets the
surviving targets absorb part of the loss, so the stretch is shorter
than the outage) with no data lost; under the permanent failure
``failover`` keeps every placement at (2, 2) while round-robin's
rotations over the 7 survivors include unbalanced draws — up to
(0, 4), all targets on one server.
"""

from __future__ import annotations

from ..engine.base import EngineOptions
from ..faults import FaultSchedule, target_outage
from ..figures.ascii import render_table, timeline_panel
from ..methodology.plan import ExperimentSpec
from ..methodology.records import RecordStore, RunRecord
from ..scenario.compile import compile_scenario
from ..service import get_service
from ..stats.summary import describe
from .common import ExperimentOutput, sweep
from .registry import ExperimentInfo, get_experiment, register

EXP_ID = "faults"
TITLE = "Fault injection: mid-run target outage and degraded allocation"
PAPER_REF = "extension of Section V (robustness; not in the paper)"

FAILED_TARGET = 201
OUTAGE_START_S = 5.0
OUTAGE_DURATION_S = 5.0
CHOOSERS = ("roundrobin", "failover")


def timeline_schedule() -> FaultSchedule:
    """Target 201 down for 5 s in the middle of the write."""
    return FaultSchedule([target_outage(FAILED_TARGET, OUTAGE_START_S, OUTAGE_DURATION_S)])


def degraded_schedule() -> FaultSchedule:
    """Target 201 permanently offline (from before the run starts)."""
    return FaultSchedule([target_outage(FAILED_TARGET, 0.0)])


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario="scenario1",
        chooser=CHOOSERS,
        stripe_count=4,
        num_nodes=8,
        ppn=8,
        total_gib=32,
    )


def _run_timeline(seed: int) -> tuple[str, RecordStore]:
    records = RecordStore()
    panels = []
    outcomes = {}
    service = get_service()
    for label, schedule in (("healthy", None), ("outage", timeline_schedule())):
        options = EngineOptions(
            noise_enabled=False, observe_servers=True, fault_schedule=schedule
        )
        # Pin a balanced placement that includes the failing target, so
        # the outage demonstrably hits the striped file.
        spec = compile_scenario(
            ExperimentSpec(
                EXP_ID,
                "scenario1",
                {
                    "chooser": "fixed:101,201,102,202",
                    "stripe_count": 4,
                    "num_nodes": 8,
                    "ppn": 8,
                },
            ),
            seed=seed,
            options=options,
            max_nodes=8,
        )
        result = service.run(spec, 0)
        outcomes[label] = result
        records.append(
            RunRecord.from_run_result(
                result, EXP_ID, "scenario1", 0, {"stage": "timeline", "condition": label}
            )
        )
        if label == "outage":
            series = {
                rid.replace("ingest:", ""): list(zip(ts.times, ts.values))
                for rid, ts in result.resource_series.items()
            }
            panels.append(
                timeline_panel(
                    series,
                    f"Target {FAILED_TARGET} offline during "
                    f"[{OUTAGE_START_S:.0f}, {OUTAGE_START_S + OUTAGE_DURATION_S:.0f}) s: "
                    f"per-server throughput (run took {result.single.duration:.1f}s)",
                )
            )
    healthy, outage = outcomes["healthy"], outcomes["outage"]
    stretch = outage.makespan - healthy.makespan
    figure = "\n\n".join(panels) + (
        f"\n\nhealthy run: {healthy.makespan:.1f}s; with outage: {outage.makespan:.1f}s "
        f"(+{stretch:.1f}s for a {OUTAGE_DURATION_S:.0f}s outage), "
        f"{outage.retries} chunk-request timeouts, "
        f"{'no data lost' if outage.complete else f'{outage.abandoned_flows} flows abandoned'}."
    )
    return figure, records


def _render_degraded(records: RecordStore) -> str:
    rows = []
    for chooser in CHOOSERS:
        group = records.filter(chooser=chooser)
        if len(group) == 0:
            continue
        s = describe(group.bandwidths())
        placements = group.group_by_placement()
        dist = ", ".join(
            f"({min(p)},{max(p)}): {len(g) / len(group) * 100:.0f}%"
            for p, g in sorted(placements.items())
        )
        rows.append([chooser, f"{s.mean:.0f}+-{s.std:.0f}", dist])
    return render_table(
        ["chooser", "MiB/s", "(min,max) placements"],
        rows,
        f"Degraded allocation with target {FAILED_TARGET} permanently offline "
        "(7 surviving targets, stripe 4)",
    )


def run(repetitions: int, seed: int = 0, progress=None) -> ExperimentOutput:
    timeline_figure, records = _run_timeline(seed)
    degraded = get_experiment(EXP_ID).campaign(repetitions, seed, progress)
    records.extend(degraded)
    figure = timeline_figure + "\n\n" + _render_degraded(degraded)
    return ExperimentOutput(
        exp_id=EXP_ID,
        title=TITLE,
        records=records,
        figure=figure,
        notes="The outage should stretch the run (retries, no data loss); "
        "failover should keep placements at (2,2) and dominate round-robin "
        "on the degraded system in both mean and variance.",
    )


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        run,
        default_repetitions=30,
        specs=specs,
        options=EngineOptions(fault_schedule=degraded_schedule()),
    )
)
