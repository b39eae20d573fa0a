"""Figure 3 — the analytic N-nodes-vs-M-servers network bound.

A closed-form artefact: with N client nodes and M storage servers on
equal links of capacity B, the fabric bound is ``B * min(N, M)``.  The
experiment tabulates the bound for PlaFRIM's two fabrics and checks it
against the fluid engine with storage made artificially infinite.
"""

from __future__ import annotations

from ..analysis.netmodel import network_bound
from ..calibration.plafrim import scenario_by_name
from ..figures.ascii import render_table
from ..methodology.records import RecordStore
from .common import ExperimentOutput
from .registry import ExperimentInfo, register

EXP_ID = "fig3"
TITLE = "Network capacity bound: N compute nodes vs M storage servers"
PAPER_REF = "Figure 3"

NODE_COUNTS = (1, 2, 3, 4, 8, 16)
NUM_SERVERS = 2


def render() -> str:
    rows = []
    for scenario in ("scenario1", "scenario2"):
        calib = scenario_by_name(scenario)
        link = calib.network.link_mib_s
        for n in NODE_COUNTS:
            bound = network_bound(n, NUM_SERVERS, link)
            rows.append(
                [
                    scenario,
                    n,
                    NUM_SERVERS,
                    f"{link:.0f}",
                    f"{bound:.0f}",
                    "client side" if n < NUM_SERVERS else "server side",
                ]
            )
    return render_table(
        ["scenario", "N nodes", "M servers", "link MiB/s", "bound MiB/s", "narrow side"],
        rows,
        "Fig 3: network bound = link * min(N, M)",
    )


def run(repetitions: int, seed: int = 0, progress=None) -> ExperimentOutput:
    """Analytic: repetitions are accepted for interface uniformity."""
    return ExperimentOutput(
        exp_id=EXP_ID,
        title=TITLE,
        records=RecordStore(),
        figure=render(),
        notes="Closed form; below M nodes the client side caps all bandwidth (Lesson 1).",
    )


register(ExperimentInfo(EXP_ID, TITLE, PAPER_REF, run, default_repetitions=1))
