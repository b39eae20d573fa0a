"""Figure 11 — node scaling for several stripe counts (scenario 2).

The reason the stripe count study uses 32 nodes: more storage targets
offer a higher peak, but reaching it demands more compute nodes (the
per-target concurrency has to build up).  Mean bandwidth per (stripe
count, node count), scenario 2.
"""

from __future__ import annotations

from ..figures.ascii import render_table, series_panel
from ..methodology.plan import ExperimentSpec
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig11"
TITLE = "Node scaling by stripe count (scenario 2)"
PAPER_REF = "Figure 11"

STRIPE_COUNTS = (1, 2, 4, 8)
NODE_COUNTS = (1, 2, 4, 8, 16, 32)
PPN = 8


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario="scenario2",
        stripe_count=STRIPE_COUNTS,
        num_nodes=NODE_COUNTS,
        ppn=PPN,
        total_gib=32,
    )


def plateau_table(records) -> list[list[object]]:
    rows = []
    for k, group in sorted(records.group_by_factor("stripe_count").items()):
        means = {
            int(n): float(g.bandwidths().mean())
            for n, g in group.group_by_factor("num_nodes").items()
        }
        peak = max(means.values())
        plateau = min(n for n, m in means.items() if m >= 0.95 * peak)
        rows.append([k, f"{peak:.0f}", plateau])
    return rows


def render(records) -> str:
    series = {}
    for k, group in sorted(records.group_by_factor("stripe_count").items()):
        pts = []
        for n, g in sorted(group.group_by_factor("num_nodes").items()):
            pts.append((float(n), [float(g.bandwidths().mean())]))
        series[f"stripe {k}"] = pts
    panel = series_panel(
        series,
        "Fig 11: mean bandwidth vs compute nodes, by stripe count (scenario 2)",
        xlabel="compute nodes",
    )
    table = render_table(
        ["stripe count", "peak mean MiB/s", "nodes to reach 95% of peak"],
        plateau_table(records),
        "Fig 11: plateau positions grow with the stripe count (Lesson 6)",
    )
    return panel + "\n\n" + table


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        specs=specs,
        render=render,
        notes="Higher stripe counts reach higher peaks but need more nodes to get there.",
    )
)
