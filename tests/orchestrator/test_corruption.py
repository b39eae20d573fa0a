"""Corrupted on-disk artifacts must degrade, never crash or poison results.

Every scenario runs at worker counts 1 and 4: the single-worker serial
path and the supervised parallel path share the same byte-identical
contract under corruption.
"""

import pytest

from repro.methodology.parallel import ParallelProtocolRunner
from repro.methodology.records import RecordStore
from repro.methodology.runner import ProtocolRunner
from repro.telemetry.bus import session

from tests.methodology.test_parallel import (
    DeterministicExecutor,
    store_bytes,
    two_spec_plan,
)


def make_runner(workers, **kwargs):
    if workers == 1:
        return ProtocolRunner(DeterministicExecutor(), **kwargs)
    return ParallelProtocolRunner(DeterministicExecutor(), n_workers=workers, **kwargs)


@pytest.mark.parametrize("workers", [1, 4])
class TestCorruptedCheckpoint:
    def test_truncated_checkpoint_resumes_fresh_and_byte_identical(
        self, tmp_path, workers
    ):
        plan = two_spec_plan()
        expected = store_bytes(
            ProtocolRunner(DeterministicExecutor()).run(plan), tmp_path, "clean"
        )
        path = tmp_path / "ckpt.json"
        make_runner(workers, checkpoint_path=path).run(plan)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        runner = make_runner(workers, checkpoint_path=path)
        store = runner.resume(plan)
        assert len(store) == plan.num_runs
        assert store_bytes(store, tmp_path, f"w{workers}") == expected

    def test_garbage_checkpoint_resumes_fresh(self, tmp_path, workers):
        plan = two_spec_plan()
        path = tmp_path / "ckpt.json"
        path.write_text("this is not json {{{")
        store = make_runner(workers, checkpoint_path=path).resume(plan)
        assert len(store) == plan.num_runs

    def test_undecodable_checkpoint_resumes_fresh(self, tmp_path, workers):
        plan = two_spec_plan()
        path = tmp_path / "ckpt.json"
        make_runner(workers, checkpoint_path=path).run(plan)
        blob = path.read_bytes()
        path.write_bytes(blob[:40] + b"\xff" + blob[41:])
        with session(ring=4096) as bus:
            store = make_runner(workers, checkpoint_path=path).resume(plan)
            assert len(bus.ring.select("checkpoint.corrupt")) == 1
        assert len(store) == plan.num_runs


@pytest.mark.parametrize("workers", [1, 4])
class TestCorruptedJournal:
    def test_torn_journal_does_not_block_campaign(self, tmp_path, workers):
        plan = two_spec_plan()
        expected = store_bytes(
            ProtocolRunner(DeterministicExecutor()).run(plan), tmp_path, "clean"
        )
        path = tmp_path / "ckpt.json"
        journal = tmp_path / "ckpt.json.journal"
        journal.write_text('{"op": "lease", "key": "bo\ngarbage line\n')
        store = make_runner(workers, checkpoint_path=path).run(plan)
        assert store_bytes(store, tmp_path, f"w{workers}") == expected
        assert not journal.exists()  # removed on clean completion

    def test_resume_with_dead_owner_journal(self, tmp_path, workers):
        # A journal from a crashed campaign (dead pid holds a lease)
        # must be reclaimed, and resume must still complete the plan.
        plan = two_spec_plan()
        path = tmp_path / "ckpt.json"
        with pytest.raises(Exception):
            ProtocolRunner(
                DeterministicExecutor(fail_reps={4}),
                checkpoint_path=path,
                checkpoint_every=1,
            ).run(plan)
        journal = tmp_path / "ckpt.json.journal"
        assert journal.exists()
        # Rewrite one entry as a lease held by a provably dead pid.
        journal.write_text(
            '{"op": "lease", "key": "e[s](x=0)", "rep": 0, "state": "leased",'
            ' "attempt": 0, "owner": "pid:1073741824", "lease_expires": null}\n'
        )
        runner = make_runner(workers, checkpoint_path=path)
        store = runner.resume(plan)
        assert runner.supervision_stats["reclaimed"] == 1
        assert len(store) == plan.num_runs
