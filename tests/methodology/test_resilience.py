"""Campaign resilience: quarantine, checkpointing, resume."""

import json
from pathlib import Path

import pytest

from repro.engine.result import ApplicationResult, RunResult
from repro.errors import CheckpointError, ExperimentError
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.records import FailedRunRecord, RecordStore, RunRecord
from repro.methodology.runner import ProtocolRunner
from repro.units import GiB


def fake_result(duration=10.0):
    app = ApplicationResult(
        app_id="a",
        start_time=0.0,
        end_time=duration,
        volume_bytes=float(GiB),
        num_nodes=1,
        ppn=8,
        stripe_count=4,
        targets=(101,),
        placement=(0, 1),
    )
    return RunResult(apps=(app,), segments=1)


def small_plan(repetitions=6):
    return ExperimentPlan.build(
        [ExperimentSpec("e", "s", {"x": 1})],
        ProtocolConfig(repetitions=repetitions, block_size=2, min_wait_s=0, max_wait_s=0),
        seed=0,
    )


class FlakyExecutor:
    """Raises on a chosen set of repetition indices; records its calls."""

    def __init__(self, fail_reps=()):
        self.fail_reps = set(fail_reps)
        self.calls = []

    def __call__(self, spec, rep):
        self.calls.append(rep)
        if rep in self.fail_reps:
            raise RuntimeError(f"boom rep {rep}")
        return fake_result()


class TestOnError:
    def test_fail_is_default_and_reraises(self):
        with pytest.raises(RuntimeError, match="boom"):
            ProtocolRunner(FlakyExecutor(fail_reps={0})).run(small_plan())

    def test_invalid_policy_rejected(self):
        with pytest.raises(ExperimentError):
            ProtocolRunner(FlakyExecutor(), on_error="retry")

    def test_invalid_checkpoint_every_rejected(self):
        with pytest.raises(ExperimentError):
            ProtocolRunner(FlakyExecutor(), checkpoint_every=0)

    def test_skip_quarantines_and_continues(self):
        executor = FlakyExecutor(fail_reps={1, 3})
        store = ProtocolRunner(executor, on_error="skip").run(small_plan())
        assert len(store) == 4
        assert sorted(f.rep for f in store.failures) == [1, 3]
        failure = store.failures[0]
        assert failure.error_type == "RuntimeError"
        assert "boom" in failure.message
        assert failure.exp_id == "e"
        assert len(executor.calls) == 6  # every run attempted exactly once

    def test_fail_checkpoints_before_raising(self, tmp_path):
        path = tmp_path / "ckpt.json"
        executor = FlakyExecutor(fail_reps={3})
        with pytest.raises(RuntimeError):
            ProtocolRunner(executor, checkpoint_path=path, checkpoint_every=100).run(
                small_plan()
            )
        assert path.exists()
        saved = RecordStore.read_json(path)
        assert len(saved) == len(executor.calls) - 1


class TestCheckpointing:
    def test_periodic_and_final_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = ProtocolRunner(
            FlakyExecutor(), checkpoint_path=path, checkpoint_every=2
        ).run(small_plan())
        saved = RecordStore.read_json(path)
        assert saved.completed_keys() == store.completed_keys()
        assert len(saved) == 6

    def test_checkpoint_round_trips_failures(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ProtocolRunner(
            FlakyExecutor(fail_reps={2}), on_error="skip", checkpoint_path=path
        ).run(small_plan())
        saved = RecordStore.read_json(path)
        assert len(saved.failures) == 1
        assert saved.failures[0].rep == 2

    def test_read_json_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            RecordStore.read_json(tmp_path / "absent.json")

    def test_read_json_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError):
            RecordStore.read_json(path)

    def test_read_json_wrong_shape(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(CheckpointError):
            RecordStore.read_json(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.json"
        RecordStore().write_json(path)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_write_preserves_previous_version(self, tmp_path):
        path = tmp_path / "out.json"
        store = RecordStore()
        store.write_json(path)
        before = path.read_text()

        class Unserializable:
            pass

        bad = RecordStore(
            failures=[
                FailedRunRecord(
                    exp_id="e",
                    scenario="s",
                    rep=0,
                    factors={"x": Unserializable()},
                    error_type="T",
                    message="m",
                )
            ]
        )
        with pytest.raises(TypeError):
            bad.write_json(path)
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


class TestResume:
    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ExperimentError):
            ProtocolRunner(FlakyExecutor()).resume(small_plan())

    def test_resume_without_existing_file_runs_everything(self, tmp_path):
        executor = FlakyExecutor()
        store = ProtocolRunner(
            executor, checkpoint_path=tmp_path / "ckpt.json"
        ).resume(small_plan())
        assert len(store) == 6
        assert len(executor.calls) == 6

    def test_resume_runs_only_missing_pairs(self, tmp_path):
        path = tmp_path / "ckpt.json"
        plan = small_plan()
        # Interrupted campaign: dies on rep 3 after checkpointing 2 records.
        first = FlakyExecutor(fail_reps={3})
        with pytest.raises(RuntimeError):
            ProtocolRunner(first, checkpoint_path=path).run(plan)
        completed = len(RecordStore.read_json(path))
        assert 0 < completed < 6
        # Resume executes exactly the missing repetitions.
        second = FlakyExecutor()
        store = ProtocolRunner(second, checkpoint_path=path).resume(plan)
        assert len(store) == 6
        assert len(second.calls) == 6 - completed
        assert set(second.calls).isdisjoint(first.calls[:-1])
        assert len(store.completed_keys()) == 6

    def test_resume_retries_quarantined_failures(self, tmp_path):
        path = tmp_path / "ckpt.json"
        plan = small_plan()
        ProtocolRunner(
            FlakyExecutor(fail_reps={1}), on_error="skip", checkpoint_path=path
        ).run(plan)
        second = FlakyExecutor()
        store = ProtocolRunner(second, on_error="skip", checkpoint_path=path).resume(plan)
        assert second.calls == [1]
        assert len(store) == 6
        assert store.failures == []

    def test_resume_continues_wall_clock(self, tmp_path):
        path = tmp_path / "ckpt.json"
        plan = small_plan()
        with pytest.raises(RuntimeError):
            ProtocolRunner(FlakyExecutor(fail_reps={4}), checkpoint_path=path).run(plan)
        saved_max = RecordStore.read_json(path).max_wall_clock_s()
        store = ProtocolRunner(FlakyExecutor(), checkpoint_path=path).resume(plan)
        resumed = [r for r in store if r.wall_clock_s >= saved_max]
        assert resumed  # the re-executed runs continue, not restart, the clock

    @pytest.mark.parametrize("policy", ["fail", "skip"])
    def test_resume_refuses_another_plans_checkpoint(self, tmp_path, policy):
        # A checkpoint written by another campaign must not be merged
        # into this one's store: resume names the file and touches nothing.
        path = tmp_path / "ckpt.json"
        other = ExperimentPlan.build(
            [ExperimentSpec("other", "s", {"x": 2})],
            ProtocolConfig(repetitions=2, block_size=2, min_wait_s=0, max_wait_s=0),
            seed=0,
        )
        fail_reps = {1} if policy == "skip" else ()
        ProtocolRunner(
            FlakyExecutor(fail_reps), on_error=policy, checkpoint_path=path
        ).run(other)
        before = path.read_bytes()
        executor = FlakyExecutor()
        with pytest.raises(CheckpointError, match=str(path)):
            ProtocolRunner(executor, checkpoint_path=path).resume(small_plan())
        assert executor.calls == []
        assert path.read_bytes() == before
        assert not Path(str(path) + ".journal").exists()

    def test_resume_with_more_reps_keeps_the_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ProtocolRunner(FlakyExecutor(), checkpoint_path=path).run(small_plan(repetitions=2))
        executor = FlakyExecutor()
        store = ProtocolRunner(executor, checkpoint_path=path).resume(small_plan())
        assert len(store) == 6 and sorted(executor.calls) == [2, 3, 4, 5]


class TestRecordFaultFields:
    def test_csv_round_trip_with_fault_fields(self, tmp_path):
        record = RunRecord(
            exp_id="e",
            scenario="s",
            rep=0,
            factors={"x": 1},
            aggregate_bw_mib_s=100.0,
            apps=(
                {
                    "app_id": "a",
                    "bw_mib_s": 100.0,
                    "start_s": 0.0,
                    "end_s": 1.0,
                    "volume_bytes": 1.0,
                    "num_nodes": 1,
                    "ppn": 8,
                    "stripe_count": 4,
                    "targets": (101,),
                    "placement": (0, 1),
                },
            ),
            retries=3,
            complete=False,
            fault_events=({"time": 1.0, "flow_id": "f", "action": "retry", "attempt": 1},),
        )
        store = RecordStore([record])
        path = tmp_path / "records.csv"
        store.write_csv(path)
        loaded = next(iter(RecordStore.read_csv(path)))
        assert loaded.retries == 3
        assert loaded.complete is False
        assert loaded.fault_events[0]["action"] == "retry"

    def test_rows_without_fault_fields_still_load(self, tmp_path):
        """CSV files written before fault tracking remain readable."""
        record = RunRecord(
            exp_id="e",
            scenario="s",
            rep=0,
            factors={},
            aggregate_bw_mib_s=1.0,
            apps=(),
        )
        row = {
            k: v
            for k, v in record.to_row().items()
            if k not in ("retries", "complete", "fault_events")
        }
        loaded = RunRecord.from_row(row)
        assert loaded.retries == 0
        assert loaded.complete is True
        assert loaded.fault_events == ()


class TestFailedRunRetryTraces:
    """Quarantined runs keep their retry traces through checkpoints."""

    TRACE = (
        {"time": 1.0, "flow_id": "app0:n1:201", "action": "retry", "attempt": 1},
        {"time": 2.5, "flow_id": "app0:n1:201", "action": "abandon", "attempt": 2},
    )

    def failure(self):
        return FailedRunRecord(
            exp_id="e",
            scenario="s",
            rep=3,
            factors={"x": 1},
            error_type="SimulationError",
            message="boom",
            retries=2,
            flow_trace=self.TRACE,
        )

    def test_to_dict_carries_retries_and_trace(self):
        data = self.failure().to_dict()
        assert data["retries"] == 2
        assert data["flow_trace"][1]["action"] == "abandon"

    def test_round_trip_preserves_trace(self):
        loaded = FailedRunRecord.from_dict(self.failure().to_dict())
        assert loaded.retries == 2
        assert loaded.flow_trace == self.TRACE

    def test_old_checkpoints_without_trace_still_load(self):
        data = self.failure().to_dict()
        del data["retries"]
        del data["flow_trace"]
        loaded = FailedRunRecord.from_dict(data)
        assert loaded.retries == 0
        assert loaded.flow_trace == ()

    def test_checkpoint_json_round_trips_trace(self, tmp_path):
        store = RecordStore()
        store.failures.append(self.failure())
        path = tmp_path / "ckpt.json"
        store.write_json(path)
        loaded = RecordStore.read_json(path)
        assert loaded.failures[0].retries == 2
        assert loaded.failures[0].flow_trace == self.TRACE

    def test_runner_attaches_annotated_trace(self):
        class AnnotatingExecutor:
            def __call__(self, spec, rep):
                exc = RuntimeError("boom")
                exc.flow_retries = 4
                exc.flow_trace = TestFailedRunRetryTraces.TRACE
                raise exc

        store = ProtocolRunner(AnnotatingExecutor(), on_error="skip").run(small_plan(2))
        assert all(f.retries == 4 for f in store.failures)
        assert store.failures[0].flow_trace == self.TRACE


class TestRetriedFailureArchive:
    """Resume keeps, not discards, the quarantine history of prior attempts."""

    def test_archive_failures_moves_and_counts(self):
        store = RecordStore()
        store.failures.append(
            FailedRunRecord(
                exp_id="e", scenario="s", rep=1, factors={}, error_type="T", message="m"
            )
        )
        assert store.archive_failures() == 1
        assert store.failures == []
        assert len(store.retried_failures) == 1
        assert store.retried_failures[0].rep == 1

    def test_archive_is_cumulative(self):
        store = RecordStore()
        for rep in (1, 2):
            store.failures.append(
                FailedRunRecord(
                    exp_id="e", scenario="s", rep=rep, factors={}, error_type="T", message="m"
                )
            )
            store.archive_failures()
        assert [f.rep for f in store.retried_failures] == [1, 2]

    def test_retried_failures_round_trip_json(self, tmp_path):
        store = RecordStore()
        store.failures.append(
            FailedRunRecord(
                exp_id="e", scenario="s", rep=3, factors={"x": 1}, error_type="T", message="m"
            )
        )
        store.archive_failures()
        path = tmp_path / "ckpt.json"
        store.write_json(path)
        loaded = RecordStore.read_json(path)
        assert loaded.failures == []
        assert len(loaded.retried_failures) == 1
        assert loaded.retried_failures[0].rep == 3

    def test_old_checkpoints_without_archive_still_load(self, tmp_path):
        path = tmp_path / "ckpt.json"
        RecordStore().write_json(path)
        data = json.loads(path.read_text())
        del data["retried_failures"]
        path.write_text(json.dumps(data))
        assert RecordStore.read_json(path).retried_failures == []

    def test_resume_archives_prior_attempt(self, tmp_path):
        path = tmp_path / "ckpt.json"
        plan = small_plan()
        ProtocolRunner(
            FlakyExecutor(fail_reps={1}), on_error="skip", checkpoint_path=path
        ).run(plan)
        store = ProtocolRunner(
            FlakyExecutor(), on_error="skip", checkpoint_path=path
        ).resume(plan)
        assert store.failures == []
        assert [f.rep for f in store.retried_failures] == [1]
        # The final checkpoint preserves the archived history on disk.
        assert [f.rep for f in RecordStore.read_json(path).retried_failures] == [1]

    def test_resume_archive_survives_repeated_failures(self, tmp_path):
        path = tmp_path / "ckpt.json"
        plan = small_plan()
        ProtocolRunner(
            FlakyExecutor(fail_reps={1}), on_error="skip", checkpoint_path=path
        ).run(plan)
        # The retry fails again: one fresh quarantine, one archived.
        store = ProtocolRunner(
            FlakyExecutor(fail_reps={1}), on_error="skip", checkpoint_path=path
        ).resume(plan)
        assert [f.rep for f in store.failures] == [1]
        assert [f.rep for f in store.retried_failures] == [1]
