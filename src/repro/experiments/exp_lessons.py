"""The lessons-learned audit: every in-text claim, checked end to end.

Runs (reduced-repetition) versions of the experiments the lessons rest
on — Figures 4, 5, 6, 11 and 13 — and evaluates the programmatic
verdicts of :mod:`repro.analysis.lessons`, printing paper-vs-measured
for each claim.
"""

from __future__ import annotations

from ..analysis.lessons import evaluate_lessons
from ..calibration.plafrim import scenario1
from ..figures.ascii import render_table
from ..methodology.records import RecordStore
from .common import ExperimentOutput, campaign_checkpoint
from .registry import ExperimentInfo, get_experiment, register
from . import exp_ppn, exp_sharing

EXP_ID = "lessons"
TITLE = "Lessons 1-7: programmatic verdicts on every in-text claim"
PAPER_REF = "Sections IV-A to IV-D (lesson boxes)"


def gather_stores(repetitions: int, seed: int, progress=None) -> dict[str, RecordStore]:
    """Run the experiments the lessons need, at the given repetitions.

    Each is its registered campaign (fig5 restricted to scenario 2),
    checkpointed to its own file when a checkpoint is configured.
    """

    def campaign(exp_id: str, specs=None) -> RecordStore:
        with campaign_checkpoint(exp_id):
            return get_experiment(exp_id).campaign(repetitions, seed, progress, specs=specs)

    fig4 = campaign("fig4")
    fig5 = campaign("fig5", exp_ppn.specs(scenarios=("scenario2",)))
    fig6 = campaign("fig6")
    fig11 = campaign("fig11")
    fig13 = campaign("fig13")
    shared, distinct = exp_sharing.split_groups(fig13)
    return {
        "fig4_s1": fig4.filter(scenario="scenario1"),
        "fig4_s2": fig4.filter(scenario="scenario2"),
        "fig5": fig5,
        "fig6_s1": fig6.filter(scenario="scenario1"),
        "fig6_s2": fig6.filter(scenario="scenario2"),
        "fig11": fig11,
        "fig13_shared": shared,
        "fig13_distinct": distinct,
    }


def run(repetitions: int, seed: int = 0, progress=None) -> ExperimentOutput:
    stores = gather_stores(repetitions, seed, progress)
    verdicts = evaluate_lessons(stores, per_server_mib_s=scenario1().per_server_network_mib_s)
    rows = []
    all_records = RecordStore()
    for store in stores.values():
        all_records.extend(store)
    for v in verdicts:
        observed = ", ".join(f"{k}={val:.3g}" for k, val in v.observed.items())
        rows.append([v.lesson if v.lesson else "reco", "PASS" if v.passed else "FAIL", v.claim, observed])
    figure = render_table(["lesson", "verdict", "claim", "observed"], rows, "Lessons audit")
    return ExperimentOutput(
        exp_id=EXP_ID,
        title=TITLE,
        records=all_records,
        figure=figure,
        notes="All lessons should PASS; observed values sit next to the paper's claims.",
    )


register(ExperimentInfo(EXP_ID, TITLE, PAPER_REF, run, default_repetitions=40))
