"""Figure 13 — two stripe-4 applications: all targets shared vs none.

With stripe count 4, PlaFRIM's round-robin chooser only ever produces
the two disjoint windows (101,201,202,203) and (204,102,103,104), so
two concurrent applications either collide on *all four* targets or on
*none*.  In the paper the production system's background file
creations made the two cases occur roughly 1/3 / 2/3 of the time; the
engine reproduces that with interleaved third-party creations.

The analysis is the paper's exactly: KS normality per group, then a
Welch two-sample t-test on individual application bandwidth —
p = 0.9031 in the paper, i.e. no significant difference (Lesson 7).
"""

from __future__ import annotations

import numpy as np

from ..engine.base import EngineOptions
from ..figures.ascii import box_panel, render_table
from ..methodology.plan import ExperimentSpec
from ..methodology.records import RecordStore
from ..stats.boxplot import boxplot_stats
from ..stats.tests import KS_MIN_SAMPLES, WELCH_MIN_SAMPLES, ks_normality, welch_ttest
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "fig13"
TITLE = "Two concurrent stripe-4 apps: shared vs distinct OSTs"
PAPER_REF = "Figure 13"

NODES_PER_APP = 8
PPN = 8


def specs() -> list[ExperimentSpec]:
    return sweep(
        EXP_ID,
        scenario="scenario2",
        num_apps=2,
        stripe_count=4,
        num_nodes=NODES_PER_APP,
        nodes_per_app=NODES_PER_APP,
        ppn=PPN,
        total_gib=32,
    )


def split_groups(records: RecordStore) -> tuple[RecordStore, RecordStore]:
    """(all four targets shared, no targets shared)."""
    shared = records.filter(predicate=lambda r: r.shared_target_count() == 4)
    distinct = records.filter(predicate=lambda r: r.shared_target_count() == 0)
    return shared, distinct


def app_bandwidths(store: RecordStore) -> np.ndarray:
    """Every application's bandwidth (two per run) — for the boxplots."""
    return np.array([app["bw_mib_s"] for r in store for app in r.apps])


def run_mean_bandwidths(store: RecordStore) -> np.ndarray:
    """Mean app bandwidth per run — the independent unit for the t-test.

    The two applications of one run share that run's system state, so
    treating them as independent samples would overstate the evidence;
    the Welch test therefore compares per-run means.
    """
    return np.array([float(np.mean([app["bw_mib_s"] for app in r.apps])) for r in store])


def _mean_std(values: np.ndarray) -> list[str]:
    mean = f"{np.mean(values):.0f}" if values.size else "-"
    std = f"{np.std(values, ddof=1):.0f}" if values.size >= 2 else "-"
    return [mean, std]


def _ks_pvalue(values: np.ndarray) -> str:
    return f"{ks_normality(values).pvalue:.3f}" if values.size >= KS_MIN_SAMPLES else "-"


def render(records: RecordStore) -> str:
    """Boxplots, the KS/Welch table and the verdict.

    A short campaign can leave a group with too few runs for a
    statistic, or with none; that statistic shows ``-``.
    """
    shared, distinct = split_groups(records)
    other = len(records) - len(shared) - len(distinct)
    a, b = app_bandwidths(shared), app_bandwidths(distinct)
    boxes = {
        label: boxplot_stats(values)
        for label, values in (("all shared", a), ("all distinct", b))
        if values.size
    }
    parts = []
    if boxes:
        parts.append(box_panel(boxes, "Fig 13: individual app bandwidth, 2 apps x 4 OSTs each"))
    runs_a, runs_b = run_mean_bandwidths(shared), run_mean_bandwidths(distinct)
    welch = None
    welch_cells = ["-", "-"]
    if min(runs_a.size, runs_b.size) >= WELCH_MIN_SAMPLES:
        welch = welch_ttest(runs_a, runs_b)
        welch_cells = [f"{welch.pvalue:.4f}", welch.detail]
    rows = [
        ["runs: all shared", len(shared), *_mean_std(a)],
        ["runs: all distinct", len(distinct), *_mean_std(b)],
        ["runs: partial overlap", other, "-", "-"],
        ["KS normality p (shared)", "-", _ks_pvalue(a), "-"],
        ["KS normality p (distinct)", "-", _ks_pvalue(b), "-"],
        ["Welch t-test p", "-", *welch_cells],
    ]
    parts.append(render_table(["quantity", "n", "value", "detail"], rows))
    if welch is None:
        verdict = f"too few runs for a Welch t-test (needs {WELCH_MIN_SAMPLES} per group)"
    elif not welch.rejects_at(0.05):
        verdict = "means NOT significantly different (cannot reject equality)"
    else:
        verdict = "means significantly different"
    parts.append(f"=> {verdict}")
    return "\n\n".join(parts)


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        specs=specs,
        render=render,
        options=EngineOptions(interleaved_creations=(0, 1, 2)),
        notes="Paper: Welch p = 0.9031; sharing all four OSTs is indistinguishable "
        "from sharing none (Lesson 7). ~1/3 of runs share all targets.",
    )
)
