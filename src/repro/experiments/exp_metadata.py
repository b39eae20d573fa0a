"""Extension — metadata performance and the shared-directory bottleneck.

The paper minimises metadata load on purpose (Section III-B) and names
metadata intensity as an interference root cause (Section IV-D).  This
experiment measures the metadata side the way the community does
(mdtest): create/stat/unlink rates as the process count grows, in a
shared directory versus unique per-process directories.

Structural finding (BeeGFS semantics, not tuning): a directory's
entries live on one MDS, so a shared-directory workload saturates a
single server while unique directories spread round-robin over both —
roughly doubling create throughput on PlaFRIM's two-MDS deployment.
This is also why the paper's N-1 strategy (one create total) makes
metadata negligible while naive N-N small-file workloads do not.
"""

from __future__ import annotations

from ..engine.meta_engine import MDSPerformanceSpec, MetadataEngine
from ..figures.ascii import render_table
from ..methodology.records import RecordStore
from ..workload.mdtest import MDTestConfig, MDTestPhase, MetadataOp
from .common import ExperimentOutput
from .registry import ExperimentInfo, register

EXP_ID = "metadata"
TITLE = "mdtest: shared vs unique directories on the two MDSes"
PAPER_REF = "extension of Sections II / III-B / IV-D (metadata path)"

PROC_COUNTS = (1, 4, 16, 64)
FILES_PER_PROC = 200


def run(repetitions: int, seed: int = 0, progress=None) -> ExperimentOutput:
    from ..calibration.plafrim import scenario2

    deployment = scenario2().deployment()
    spec = MDSPerformanceSpec()
    rows = []
    summary: dict[tuple[str, int], float] = {}
    for mode in (MDTestPhase.SHARED_DIR, MDTestPhase.UNIQUE_DIRS):
        for nprocs in PROC_COUNTS:
            rates = []
            share = 0.0
            for rep in range(repetitions):
                engine = MetadataEngine(deployment, spec, seed=seed + rep)
                result = engine.run(MDTestConfig(FILES_PER_PROC, directory_mode=mode), nprocs, rep=rep)
                rates.append(result.rate(MetadataOp.CREATE))
                share = result.busiest_mds_share()
            mean_rate = sum(rates) / len(rates)
            summary[(mode.value, nprocs)] = mean_rate
            rows.append(
                [
                    mode.value,
                    nprocs,
                    f"{mean_rate:.0f}",
                    f"{share * 100:.0f}%",
                ]
            )
            if progress is not None:
                progress(f"{mode.value} x {nprocs} procs done")
    table = render_table(
        ["directory mode", "procs", "creates/s", "busiest MDS share"],
        rows,
        f"mdtest create rates ({FILES_PER_PROC} files/proc, "
        f"{spec.workers} workers/MDS, single-MDS peak "
        f"{spec.peak_rate(MetadataOp.CREATE):.0f} creates/s):",
    )
    peak_shared = max(v for (m, _), v in summary.items() if m == "shared-dir")
    peak_unique = max(v for (m, _), v in summary.items() if m == "unique-dirs")
    figure = table + (
        f"\n\nunique-dirs peak / shared-dir peak = x{peak_unique / peak_shared:.2f} "
        "(two MDSes vs one: the shared directory pins every dentry to a single "
        "server)\n=> why the paper's N-1 strategy keeps metadata out of the "
        "picture, and why small-file N-N workloads interfere via the MDS."
    )
    return ExperimentOutput(
        exp_id=EXP_ID,
        title=TITLE,
        records=RecordStore(),
        figure=figure,
        notes="Shared dir saturates at one MDS's service rate; unique dirs "
        "scale to the MDS count.",
    )


register(ExperimentInfo(EXP_ID, TITLE, PAPER_REF, run, default_repetitions=5))
