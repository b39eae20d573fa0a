"""Extension — read performance (the paper's first future-work item).

"Although extending our conclusions to read performance will be the
subject of future work, based on the results by Chowdhury et al., we
expect the observed behaviors to be the same" (Section III-B).  This
experiment runs the stripe-count sweep with IOR read phases (``-r``)
and checks that expectation: the same placement/balance structure in
scenario 1 and the same near-linear growth in scenario 2, at slightly
higher absolute rates (no RAID-6 parity penalty — a documented
extrapolation, see ``Calibration.read_storage_factor``).
"""

from __future__ import annotations

from ..figures.ascii import render_table
from ..methodology.plan import ExperimentSpec
from ..stats.summary import describe
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "read"
TITLE = "Read-phase stripe count sweep (future-work extension)"
PAPER_REF = "Section III-B / VI (future work: read performance)"

STRIPE_COUNTS = (1, 2, 4, 6, 8)
NODES = {"scenario1": 8, "scenario2": 32}


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=("scenario1", "scenario2"),
        operation=("write", "read"),
        stripe_count=STRIPE_COUNTS,
        num_nodes=NODES,
        ppn=8,
        total_gib=32,
    )


def render(records) -> str:
    parts = []
    for scenario in ("scenario1", "scenario2"):
        sub = records.filter(scenario=scenario)
        if len(sub) == 0:
            continue
        rows = []
        for k in STRIPE_COUNTS:
            w = describe(sub.filter(stripe_count=k, operation="write").bandwidths())
            r = describe(sub.filter(stripe_count=k, operation="read").bandwidths())
            rows.append(
                [k, f"{w.mean:.0f}+-{w.std:.0f}", f"{r.mean:.0f}+-{r.std:.0f}",
                 f"{(r.mean / w.mean - 1) * 100:+.0f}%"]
            )
        parts.append(
            render_table(
                ["stripe", "write MiB/s", "read MiB/s", "read vs write"],
                rows,
                f"Read vs write stripe sweep ({scenario})",
            )
        )
    return "\n\n".join(parts)


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        specs=specs,
        render=render,
        notes="Expected: identical shapes to the write study; reads slightly "
        "faster where storage-bound, identical where network-bound.",
    )
)
