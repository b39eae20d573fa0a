"""The campaign journal holds the runs the walk executes, never cache hits.

A prefetched cache hit runs no engine, so it is never in flight: the
runner neither enqueues, leases nor finishes it in the campaign's
durable queue, and once merged the checkpointed store covers it.  These
tests record what the journal is sent, and SIGKILL a campaign driver
with hits already merged, to show that resume still reclaims the one
run that was in flight and rebuilds the uninterrupted store.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.methodology.parallel import ParallelProtocolRunner
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.records import RecordStore
from repro.methodology.runner import ProtocolRunner
from repro.orchestrator.journal import Journal, read_records
from repro.scenario.compile import compile_scenario
from repro.service import ServiceExecutor, get_service

from tests.methodology.test_parallel import store_bytes

SEED = 5
REPO = Path(__file__).resolve().parents[2]


def small_campaign():
    """Two scenario-1 specs x four reps through the simulation service."""
    specs = [
        ExperimentSpec("journal", "scenario1", {"num_nodes": n, "stripe_count": 4})
        for n in (2, 4)
    ]
    scenarios = {s.key: compile_scenario(s, seed=SEED, max_nodes=4) for s in specs}
    plan = ExperimentPlan.build(
        specs,
        ProtocolConfig(repetitions=4, block_size=2, min_wait_s=0, max_wait_s=0),
        seed=SEED,
    )
    return plan, scenarios


def executor(scenarios, cache_dir=None):
    return ServiceExecutor(
        scenarios=scenarios,
        cache=cache_dir is not None,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
        seed=SEED,
    )


def make_runner(workers, inner, **kwargs):
    if workers == 1:
        return ProtocolRunner(inner, **kwargs)
    return ParallelProtocolRunner(inner, n_workers=workers, seed=SEED, **kwargs)


def warm(plan, scenarios, cache_dir, reps):
    """Cache every planned job whose rep is in ``reps``; returns the jobs."""
    jobs = {(p.spec.key, p.rep) for p in plan if p.rep in reps}
    for key, rep in sorted(jobs):
        get_service().run(scenarios[key], rep, cache=True, cache_dir=str(cache_dir))
    return jobs


@pytest.fixture
def journal_writes(monkeypatch):
    """Every record appended to any journal, in write order."""
    writes = []
    append, append_many = Journal.append, Journal.append_many

    def record_one(self, record):
        writes.append(record)
        append(self, record)

    def record_many(self, records):
        writes.extend(records)
        append_many(self, records)

    monkeypatch.setattr(Journal, "append", record_one)
    monkeypatch.setattr(Journal, "append_many", record_many)
    return writes


@pytest.mark.parametrize("workers", [1, 2])
class TestJournalTraffic:
    def test_half_warm_campaign_journals_exactly_the_misses(
        self, tmp_path, journal_writes, workers
    ):
        plan, scenarios = small_campaign()
        cache = tmp_path / "cache"
        hits = warm(plan, scenarios, cache, reps={0, 2})
        misses = sorted({(p.spec.key, p.rep) for p in plan} - hits)
        ckpt = tmp_path / "ckpt.json"
        store = make_runner(
            workers, executor(scenarios, cache), checkpoint_path=ckpt
        ).run(plan)
        assert len(store) == plan.num_runs
        by_op = {}
        for record in journal_writes:
            by_op.setdefault(record["op"], []).append((record["key"], record["rep"]))
        assert sorted(by_op) == ["done", "enqueue", "lease"]
        for op in ("enqueue", "lease", "done"):
            assert sorted(by_op[op]) == misses, op
        assert not Path(str(ckpt) + ".journal").exists()

    def test_all_hit_campaign_never_writes_a_journal(
        self, tmp_path, journal_writes, workers
    ):
        plan, scenarios = small_campaign()
        cache = tmp_path / "cache"
        warm(plan, scenarios, cache, reps=range(plan.protocol.repetitions))
        ckpt = tmp_path / "ckpt.json"
        expected = store_bytes(
            ProtocolRunner(executor(scenarios)).run(plan), tmp_path, "cold"
        )
        store = make_runner(
            workers, executor(scenarios, cache), checkpoint_path=ckpt
        ).run(plan)
        assert store_bytes(store, tmp_path, "warm") == expected
        assert journal_writes == []
        assert not Path(str(ckpt) + ".journal").exists()


# -- killed with hits in the plan ------------------------------------------------


class _KillOnMissAfterHit:
    """SIGKILLs its own process at the first miss that follows a hit.

    A hit is a job still staged in the service executor's prefetched
    map.  The runner leases a miss before calling its executor, so the
    campaign dies with exactly that one run in flight.
    """

    def __init__(self, inner):
        self.inner = inner
        self.hits = 0

    def prefetch(self, jobs):
        return self.inner.prefetch(jobs)

    def __call__(self, spec, rep):
        if (spec.key, int(rep)) in self.inner.prefetched:
            self.hits += 1
        elif self.hits:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner(spec, rep)


def _driver_main(checkpoint, cache_dir):
    """Subprocess entry: the half-warm campaign, serial, a checkpoint
    after every run, killed at its first executed miss after a hit."""
    plan, scenarios = small_campaign()
    ProtocolRunner(
        _KillOnMissAfterHit(executor(scenarios, cache_dir)),
        checkpoint_path=checkpoint,
        checkpoint_every=1,
    ).run(plan)


@pytest.mark.parametrize("workers", [1, 4])
def test_kill_after_hits_resumes_byte_identical(tmp_path, workers):
    plan, scenarios = small_campaign()
    expected = store_bytes(
        ProtocolRunner(executor(scenarios)).run(plan), tmp_path, "clean"
    )
    cache = tmp_path / "cache"
    hits = warm(plan, scenarios, cache, reps={0, 2})
    ckpt = tmp_path / "ckpt.json"
    journal = Path(str(ckpt) + ".journal")
    code = (
        "import sys\n"
        "from tests.orchestrator.test_campaign_journal import _driver_main\n"
        "_driver_main(sys.argv[1], sys.argv[2])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ckpt), str(cache)],
        env=env,
        capture_output=True,
        timeout=180,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()

    merged = RecordStore.read_json(ckpt).completed_keys()
    assert merged & hits, "the driver died before merging a hit"
    records, torn = read_records(journal)
    assert torn == 0
    states = {(r["key"], r["rep"]): r["state"] for r in records}
    assert not set(states) & hits
    in_flight = [job for job, state in states.items() if state == "leased"]
    assert len(in_flight) == 1 and in_flight[0] not in merged

    runner = make_runner(
        workers,
        executor(scenarios, cache),
        checkpoint_path=ckpt,
        checkpoint_every=1,
    )
    store = runner.resume(plan)
    assert runner.supervision_stats["reclaimed"] == 1
    assert store_bytes(store, tmp_path, "resumed") == expected
    assert not journal.exists()
