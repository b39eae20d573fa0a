"""Extension — N-1 shared file vs N-N file-per-process (future work).

The paper's conclusion names "other application access patterns, such
as the file-per-process (N-N) strategy" as future work.  The key
structural difference: with N-N every process gets its *own* file and
its own chooser decision, so a stateful round-robin chooser spreads
consecutive files across consecutive target windows — with hundreds of
files **every** target ends up loaded evenly regardless of the
per-file stripe count.  Prediction (and finding): N-N write bandwidth
is nearly independent of the stripe count, and matches N-1's best case
— small stripe counts lose nothing because placement imbalance
averages out across files.
"""

from __future__ import annotations

from ..figures.ascii import render_table
from ..methodology.plan import ExperimentSpec
from ..stats.summary import describe
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "patterns"
TITLE = "N-1 shared file vs N-N file-per-process"
PAPER_REF = "Section VI (future work: access patterns)"

STRIPE_COUNTS = (1, 2, 4, 8)
NODES = {"scenario1": 8, "scenario2": 32}
PATTERNS = ("n1-contiguous", "file-per-process")


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario=("scenario1", "scenario2"),
        pattern=PATTERNS,
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
            n1 = describe(sub.filter(stripe_count=k, pattern="n1-contiguous").bandwidths())
            nn = describe(sub.filter(stripe_count=k, pattern="file-per-process").bandwidths())
            # Distinct targets the N-N run actually touched.
            nn_targets = sorted(
                {
                    len(r.apps[0]["targets"])
                    for r in sub.filter(stripe_count=k, pattern="file-per-process")
                }
            )
            rows.append(
                [
                    k,
                    f"{n1.mean:.0f}+-{n1.std:.0f}",
                    f"{nn.mean:.0f}+-{nn.std:.0f}",
                    f"{(nn.mean / n1.mean - 1) * 100:+.0f}%",
                    "/".join(str(t) for t in nn_targets),
                ]
            )
        parts.append(
            render_table(
                ["stripe", "N-1 MiB/s", "N-N MiB/s", "N-N vs N-1", "targets used by N-N"],
                rows,
                f"Access-pattern study ({scenario})",
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
        notes="N-N spreads consecutive files over all targets, so its bandwidth "
        "should be insensitive to the per-file stripe count and match N-1's "
        "best case at every count.",
    )
)
