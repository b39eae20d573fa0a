"""Figure 2 — impact of the total data size on write bandwidth.

The paper's first experiment: 32 processes on 4 nodes, stripe count 4,
total size swept until bandwidth stabilises (it does between 16 and
32 GiB, fixing 32 GiB for every other experiment).  Small sizes show
both lower bandwidth (latency- and startup-dominated) and much higher
variability (short runs cannot average over system-state epochs).
"""

from __future__ import annotations

from ..figures.ascii import render_table, series_panel
from ..methodology.plan import ExperimentSpec
from ..stats.summary import describe
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig2"
TITLE = "Impact of the data size on I/O bandwidth"
PAPER_REF = "Figure 2 (a: scenario 1, b: scenario 2)"

SIZES_GIB = (1, 2, 4, 8, 16, 32, 64)
NUM_NODES = 4
PPN = 8


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=("scenario1", "scenario2"),
        total_gib=SIZES_GIB,
        num_nodes=NUM_NODES,
        ppn=PPN,
        stripe_count=4,
    )


def render(records) -> str:
    parts = []
    for scenario in ("scenario1", "scenario2"):
        sub = records.filter(scenario=scenario)
        if len(sub) == 0:
            continue
        pts = []
        rows = []
        for size, group in sorted(sub.group_by_factor("total_gib").items()):
            values = group.bandwidths()
            pts.append((float(size), list(values)))
            s = describe(values)
            rows.append(
                [size, f"{s.mean:.0f}", f"{s.std:.0f}", f"{s.minimum:.0f}", f"{s.maximum:.0f}", f"{s.spread:.0f}"]
            )
        label = "network-bound" if scenario == "scenario1" else "storage-bound"
        parts.append(
            series_panel(
                {"bandwidth": pts},
                f"Fig 2 ({scenario}: {label}): bandwidth vs total data size",
                xlabel="total size (GiB)",
            )
        )
        parts.append(
            render_table(
                ["GiB", "mean", "std", "min", "max", "spread"],
                rows,
                f"Fig 2 summary ({scenario}) - spread is the max-min 'shadow'",
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
        notes="Bandwidth should stabilise between 16 and 32 GiB; spread shrinks with size.",
    )
)
