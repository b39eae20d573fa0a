"""Figure 4 — evolution of bandwidth with the number of compute nodes.

8 processes per node, stripe count 4, 32 GiB total.  Scenario 1
(network-bound) climbs from ~880 MiB/s at one node to a plateau around
four nodes; scenario 2 (storage-bound) climbs from ~1630 MiB/s and
needs about sixteen nodes — Lessons 1 and 2.
"""

from __future__ import annotations

from ..figures.ascii import render_table, series_panel
from ..methodology.plan import ExperimentSpec
from ..stats.summary import describe
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig4"
TITLE = "I/O bandwidth vs number of compute nodes"
PAPER_REF = "Figure 4 (a: scenario 1, b: scenario 2)"

NODES = {"scenario1": (1, 2, 3, 4, 5, 6, 7, 8), "scenario2": (1, 2, 4, 8, 16, 32)}
PPN = 8


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=("scenario1", "scenario2"),
        num_nodes=NODES,
        ppn=PPN,
        total_gib=32,
        stripe_count=4,
    )


def plateau_nodes(records, scenario: str, threshold: float = 0.95) -> int:
    """Smallest node count reaching ``threshold`` of the peak mean."""
    means = {
        int(n): float(g.bandwidths().mean())
        for n, g in records.filter(scenario=scenario).group_by_factor("num_nodes").items()
    }
    peak = max(means.values())
    return min(n for n, m in means.items() if m >= threshold * peak)


def render(records) -> str:
    parts = []
    for scenario in ("scenario1", "scenario2"):
        sub = records.filter(scenario=scenario)
        if len(sub) == 0:
            continue
        pts, rows = [], []
        for n, group in sorted(sub.group_by_factor("num_nodes").items()):
            values = group.bandwidths()
            pts.append((float(n), list(values)))
            s = describe(values)
            rows.append([n, f"{s.mean:.0f}", f"{s.std:.0f}"])
        parts.append(
            series_panel(
                {"bandwidth": pts},
                f"Fig 4 ({scenario}): bandwidth vs compute nodes (8 ppn, stripe 4)",
                xlabel="compute nodes",
            )
        )
        single = float(sub.filter(num_nodes=min(NODES[scenario])).bandwidths().mean())
        peak = max(float(g.bandwidths().mean()) for g in sub.group_by_factor("num_nodes").values())
        rows.append(["gain", f"{(peak / single - 1) * 100:.0f}%", ""])
        parts.append(render_table(["nodes", "mean", "std"], rows, f"Fig 4 summary ({scenario})"))
        parts.append(f"plateau (95% of peak) reached at {plateau_nodes(records, scenario)} nodes")
    return "\n\n".join(parts)


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        specs=specs,
        render=render,
        notes="Paper anchors: ~880->~1460 MiB/s (s1, plateau at 4 nodes); "
        "~1630->~6100 MiB/s (s2, plateau at 16 nodes).",
    )
)
