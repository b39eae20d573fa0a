"""Extension — the target-allocation policy study the paper motivates.

Section IV-C's Lesson 4 ends with a policy recommendation ("a
selection heuristic that picks the same number of targets in the
storage servers would be the best choice") and the conclusion names
"future work on storage target allocation and stripe count tuning".
This experiment runs that comparison: round-robin (PlaFRIM), random
(BeeGFS default), balanced (the recommended policy) and
capacity-weighted, across stripe counts, in both scenarios.

Expected outcome: *balanced* matches the best case of every stripe
count and removes the placement lottery entirely; *random* has the
best expected value among non-balanced policies for count 4 but keeps
the worst case as likely as the best (as the paper argues); and at
stripe count 8 every policy coincides — the basis for the "use all
targets" default recommendation.
"""

from __future__ import annotations

from ..figures.ascii import render_table
from ..methodology.plan import ExperimentSpec
from ..stats.summary import describe
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "choosers"
TITLE = "Allocation-policy study: round-robin vs random vs balanced vs capacity"
PAPER_REF = "extension of Section IV-C (Lesson 4, future work)"

CHOOSERS = ("roundrobin", "random", "balanced", "capacity")
STRIPE_COUNTS = (2, 4, 6, 8)
NODES = {"scenario1": 8, "scenario2": 32}


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=("scenario1", "scenario2"),
        chooser=CHOOSERS,
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
            row: list[object] = [k]
            for chooser in CHOOSERS:
                group = sub.filter(chooser=chooser, stripe_count=k)
                if len(group) == 0:
                    row.append("-")
                    continue
                s = describe(group.bandwidths())
                balanced_frac = sum(
                    1 for r in group if min(r.placement) == max(r.placement)
                ) / len(group)
                row.append(f"{s.mean:.0f}+-{s.std:.0f} ({balanced_frac * 100:.0f}% bal)")
            rows.append(row)
        parts.append(
            render_table(
                ["stripe", *CHOOSERS],
                rows,
                f"Allocation policies ({scenario}): mean+-std MiB/s (and % balanced placements)",
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
        notes="Balanced should dominate at every stripe count in scenario 1; "
        "all policies coincide at stripe count 8.",
    )
)
