"""Figure 5 — node scaling with 8 vs 16 processes per node.

Doubling the processes per node does *not* substitute for more nodes:
the node-scaling curves stay nearly identical, with a slight
degradation at 16 ppn in scenario 2 (intra-node contention, Lesson 3).
"""

from __future__ import annotations

from ..figures.ascii import render_table, series_panel
from ..methodology.plan import ExperimentSpec
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig5"
TITLE = "Node scaling at 8 vs 16 processes per node"
PAPER_REF = "Figure 5 (a: scenario 1, b: scenario 2)"

NODES = {"scenario1": (1, 2, 4, 8), "scenario2": (1, 2, 4, 8, 16, 32)}
PPNS = (8, 16)


def specs(scenarios: tuple[str, ...] = ("scenario1", "scenario2")) -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=scenarios,
        ppn=PPNS,
        num_nodes=NODES,
        total_gib=32,
        stripe_count=4,
    )


def render(records) -> str:
    parts = []
    for scenario in ("scenario1", "scenario2"):
        sub = records.filter(scenario=scenario)
        if len(sub) == 0:
            continue
        series = {}
        rows = []
        for ppn in PPNS:
            pts = []
            for n, group in sorted(sub.filter(ppn=ppn).group_by_factor("num_nodes").items()):
                values = group.bandwidths()
                pts.append((float(n), list(values)))
            series[f"{ppn} ppn"] = pts
        for n in sorted(sub.factor_values("num_nodes")):
            mean8 = float(sub.filter(ppn=8, num_nodes=n).bandwidths().mean())
            mean16 = float(sub.filter(ppn=16, num_nodes=n).bandwidths().mean())
            rows.append([n, f"{mean8:.0f}", f"{mean16:.0f}", f"{(mean16 / mean8 - 1) * 100:+.1f}%"])
        parts.append(
            series_panel(series, f"Fig 5 ({scenario}): node scaling by ppn", xlabel="compute nodes")
        )
        parts.append(
            render_table(["nodes", "8 ppn", "16 ppn", "delta"], rows, f"Fig 5 summary ({scenario})")
        )
    return "\n\n".join(parts)


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        specs=specs,
        render=render,
        notes="Curves should coincide within a few percent; 16 ppn slightly lower (Lesson 3).",
    )
)
