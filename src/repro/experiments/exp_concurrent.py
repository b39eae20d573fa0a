"""Figure 12 — concurrent applications sharing the storage targets.

Scenario 2 (storage-bound, where sharing would hurt if it could): 2, 3
or 4 identical applications on disjoint 8-node sets, each writing
32 GiB with stripe count 2, 4 or 8.  For every configuration the
paper compares:

* the applications' *individual* bandwidths (stacked bars) against a
  single-application baseline with the same parameters (8 nodes, same
  stripe count), and
* their Equation-1 *aggregate* against a single application scaled to
  the sum of the resources (8 x m nodes, min(8, k x m) targets).

The finding (Lesson 7): the aggregate matches — or slightly exceeds —
the scaled single application even when all targets are shared, so the
individual slow-down is bandwidth *sharing*, not target contention.
"""

from __future__ import annotations

import numpy as np

from ..figures.ascii import bar_panel, render_table
from ..methodology.plan import ExperimentSpec
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig12"
TITLE = "Concurrent applications: individual and aggregate bandwidth"
PAPER_REF = "Figure 12 (a: 2 apps, b: 3 apps, c: 4 apps)"

APP_COUNTS = (2, 3, 4)
STRIPE_COUNTS = (2, 4, 8)
NODES_PER_APP = 8
PPN = 8


def specs() -> list[ExperimentSpec]:
    out = []
    for k in STRIPE_COUNTS:
        # Same-parameters baseline: one application, 8 nodes, stripe k.
        out += sweep(
            EXP_ID,
            scenario="scenario2",
            num_apps=1,
            stripe_count=k,
            num_nodes=NODES_PER_APP,
            ppn=PPN,
            total_gib=32,
        )
        for m in APP_COUNTS:
            # Scaled baseline: one application with m x nodes and
            # min(8, k x m) targets.
            out += sweep(
                EXP_ID,
                scenario="scenario2",
                num_apps=1,
                stripe_count=min(8, k * m),
                num_nodes=NODES_PER_APP * m,
                ppn=PPN,
                total_gib=32,
                scaled_baseline_for=f"{m}x{k}",
            )
            # The concurrent run itself (each app writes 32 GiB).
            out += sweep(
                EXP_ID,
                scenario="scenario2",
                num_apps=m,
                stripe_count=k,
                num_nodes=NODES_PER_APP,
                nodes_per_app=NODES_PER_APP,
                ppn=PPN,
                total_gib=32,
            )
    return out


def render(records) -> str:
    parts = []
    for m in APP_COUNTS:
        bars = {}
        rows = []
        for k in STRIPE_COUNTS:
            single = records.filter(num_apps=1, stripe_count=k, num_nodes=NODES_PER_APP).filter(
                predicate=lambda r: "scaled_baseline_for" not in r.factors
            )
            scaled = records.filter(predicate=lambda r, m=m, k=k: r.factors.get("scaled_baseline_for") == f"{m}x{k}")
            concurrent = records.filter(num_apps=m, stripe_count=k)
            if len(concurrent) == 0:
                continue
            per_app_means = []
            for i in range(m):
                vals = [r.apps[i]["bw_mib_s"] for r in concurrent]
                per_app_means.append((f"app{i}", float(np.mean(vals))))
            bars[f"k={k} concurrent"] = per_app_means
            single_mean = float(single.bandwidths().mean()) if len(single) else float("nan")
            scaled_mean = float(scaled.bandwidths().mean()) if len(scaled) else float("nan")
            bars[f"k={k} single"] = [("single", single_mean)]
            bars[f"k={k} scaled"] = [("single", scaled_mean)]
            agg = float(concurrent.aggregates().mean())
            indiv = float(np.mean([s for _, s in per_app_means]))
            rows.append(
                [
                    k,
                    f"{indiv:.0f}",
                    f"{single_mean:.0f}",
                    f"{(indiv / single_mean - 1) * 100:+.0f}%",
                    f"{agg:.0f}",
                    f"{scaled_mean:.0f}",
                    f"{(agg / scaled_mean - 1) * 100:+.0f}%",
                ]
            )
        parts.append(
            bar_panel(bars, f"Fig 12 ({m} concurrent apps): stacked individual bandwidths")
        )
        parts.append(
            render_table(
                [
                    "stripe",
                    "mean indiv",
                    "single base",
                    "indiv vs base",
                    "aggregate (Eq.1)",
                    "scaled base",
                    "agg vs scaled",
                ],
                rows,
                f"Fig 12 summary ({m} apps)",
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
        notes=(
            "Aggregate should track the scaled single-app baseline (sharing does not "
            "degrade global performance); individual bandwidth drops as 1/m-ish "
            "(bandwidth sharing, up to ~20% extra at stripe 2 without any target sharing)."
        ),
    )
)
