"""Extension — metadata-intensity interference (Section IV-D's caveat).

Lesson 7 ends with a careful caveat: I/O interference *does* exist, but
comes from other parts of the stack — the first cited root cause being
metadata intensity (Yang et al., NSDI'19).  This experiment measures
that channel directly: a small "victim" job opening its files while an
mdtest-style create storm of growing size hammers the same metadata
servers.  The victim's open phase stretches with the storm — and the
impact on a *paper-style* job (32 GiB, one shared file) stays
negligible, exactly why Section III-B's N-1 choice insulated the
paper's measurements from this channel.
"""

from __future__ import annotations

from ..calibration.plafrim import scenario2
from ..engine.meta_engine import MDSPerformanceSpec, MetadataEngine
from ..figures.ascii import render_table
from ..methodology.records import RecordStore
from ..workload.mdtest import MDTestConfig, MDTestPhase, MetadataOp
from .common import ExperimentOutput
from .registry import ExperimentInfo, register

EXP_ID = "interference"
TITLE = "Metadata-intensity interference on a victim job's opens"
PAPER_REF = "extension of Section IV-D (interference root causes)"

VICTIM_OPENS = 64  # a 8-node x 8-ppn job opening one shared file
STORM_PROCS = (0, 16, 64, 256)
STORM_FILES = 300


def run(repetitions: int, seed: int = 0, progress=None) -> ExperimentOutput:
    deployment = scenario2().deployment()
    spec = MDSPerformanceSpec()
    rows = []
    baseline = None
    for storm in STORM_PROCS:
        victim_seconds = []
        for rep in range(repetitions):
            engine = MetadataEngine(deployment, spec, seed=seed + rep)
            # The storm starts first; the victim arrives once the MDS
            # queues are deep (20 ms in), as a real job would.
            groups = [
                (
                    "victim",
                    MDTestConfig(1, directory_mode=MDTestPhase.UNIQUE_DIRS),
                    VICTIM_OPENS,
                    0.02,
                )
            ]
            if storm:
                groups.append(
                    (
                        "storm",
                        MDTestConfig(STORM_FILES, directory_mode=MDTestPhase.SHARED_DIR),
                        storm,
                    )
                )
            finished = engine.run_concurrent(groups, op=MetadataOp.CREATE, rep=rep)
            victim_seconds.append(finished["victim"])
        mean_s = sum(victim_seconds) / len(victim_seconds)
        if baseline is None:
            baseline = mean_s
        # Cost added to a paper-style run (32 GiB at ~6 GiB/s ~ 5.5 s).
        run_cost = (mean_s - baseline) / 5.5 * 100
        rows.append(
            [
                storm,
                f"{mean_s * 1000:.1f}",
                f"x{mean_s / baseline:.1f}",
                f"{run_cost:+.1f}%",
            ]
        )
        if progress is not None:
            progress(f"storm {storm} procs done")
    table = render_table(
        ["storm procs", "victim opens (ms)", "slowdown", "cost to a 32 GiB run"],
        rows,
        f"Victim: {VICTIM_OPENS} opens; storm: {STORM_FILES} creates/proc in a shared dir:",
    )
    figure = table + (
        "\n\n=> metadata storms stretch a victim's open phase severalfold, "
        "but a bandwidth-style job (one shared file, 32 GiB) loses almost "
        "nothing — interference flows through the metadata path, not the "
        "storage targets (Lesson 7's caveat, quantified)."
    )
    return ExperimentOutput(
        exp_id=EXP_ID,
        title=TITLE,
        records=RecordStore(),
        figure=figure,
        notes="Victim open latency grows with storm size; bandwidth jobs with "
        "few opens are insulated — the paper's N-1 design choice.",
    )


register(ExperimentInfo(EXP_ID, TITLE, PAPER_REF, run, default_repetitions=5))
