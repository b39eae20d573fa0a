"""The parallel protocol runner: serial-identical results, worker telemetry."""

import json
import os

import pytest

from repro.engine.result import ApplicationResult, RunResult
from repro.errors import ExperimentError
from repro.methodology.parallel import ParallelProtocolRunner
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.records import RecordStore
from repro.methodology.runner import ProtocolRunner
from repro.orchestrator.supervise import SupervisionPolicy
from repro.telemetry.bus import session
from repro.telemetry.events import validate_event
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


class DeterministicExecutor:
    """Picklable executor whose result depends only on (spec, rep)."""

    def __init__(self, fail_reps=()):
        self.fail_reps = frozenset(fail_reps)

    def __call__(self, spec, rep):
        if rep in self.fail_reps:
            raise RuntimeError(f"boom rep {rep}")
        return fake_result(duration=10.0 + rep + spec.factors.get("x", 0))


class DyingExecutor:
    """Kills its worker process outright (simulates OOM/signal death)."""

    def __call__(self, spec, rep):
        os._exit(1)


def two_spec_plan(repetitions=6):
    return ExperimentPlan.build(
        [ExperimentSpec("e", "s", {"x": i}) for i in range(2)],
        ProtocolConfig(
            repetitions=repetitions, block_size=3, min_wait_s=60, max_wait_s=120
        ),
        seed=3,
    )


def store_bytes(store, tmp_path, name):
    path = tmp_path / f"{name}.json"
    store.write_json(path)
    return path.read_text()


class TestSerialParallelEquivalence:
    def test_stores_byte_identical_across_worker_counts(self, tmp_path):
        plan = two_spec_plan()
        serial = ProtocolRunner(DeterministicExecutor()).run(plan)
        expected = store_bytes(serial, tmp_path, "serial")
        for workers in (2, 4):
            store = ParallelProtocolRunner(
                DeterministicExecutor(), n_workers=workers
            ).run(plan)
            assert store_bytes(store, tmp_path, f"w{workers}") == expected

    def test_identical_with_quarantined_failures(self, tmp_path):
        plan = two_spec_plan()
        serial = ProtocolRunner(
            DeterministicExecutor(fail_reps={1, 4}), on_error="skip"
        ).run(plan)
        parallel = ParallelProtocolRunner(
            DeterministicExecutor(fail_reps={1, 4}), on_error="skip", n_workers=2
        ).run(plan)
        assert len(serial.failures) == 4  # two specs x two failing reps
        assert store_bytes(parallel, tmp_path, "p") == store_bytes(
            serial, tmp_path, "s"
        )

    def test_one_supervised_worker_is_serial(self, tmp_path):
        plan = two_spec_plan()
        serial = ProtocolRunner(DeterministicExecutor()).run(plan)
        solo = ParallelProtocolRunner(DeterministicExecutor(), n_workers=1).run(plan)
        assert store_bytes(solo, tmp_path, "solo") == store_bytes(
            serial, tmp_path, "serial"
        )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ExperimentError):
            ParallelProtocolRunner(DeterministicExecutor(), n_workers=0)


class TestFailPolicy:
    def test_fail_raises_and_checkpoints_like_serial(self, tmp_path):
        plan = two_spec_plan()
        serial_path = tmp_path / "serial.json"
        with pytest.raises(RuntimeError, match="boom"):
            ProtocolRunner(
                DeterministicExecutor(fail_reps={3}),
                checkpoint_path=serial_path,
                checkpoint_every=100,
            ).run(plan)
        parallel_path = tmp_path / "parallel.json"
        # Worker exceptions cannot cross the pickling boundary as live
        # objects; the fail policy re-raises them as ExperimentError
        # carrying the original type name and message.
        with pytest.raises(ExperimentError, match="RuntimeError: boom rep 3"):
            ParallelProtocolRunner(
                DeterministicExecutor(fail_reps={3}),
                n_workers=2,
                checkpoint_path=parallel_path,
                checkpoint_every=100,
            ).run(plan)
        assert parallel_path.read_text() == serial_path.read_text()

    def test_resume_after_failure_matches_serial_resume(self, tmp_path):
        plan = two_spec_plan()
        stores = {}
        for name, cls, kwargs in (
            ("serial", ProtocolRunner, {}),
            ("parallel", ParallelProtocolRunner, {"n_workers": 2}),
        ):
            path = tmp_path / f"{name}.json"
            with pytest.raises((RuntimeError, ExperimentError)):
                cls(
                    DeterministicExecutor(fail_reps={4}),
                    checkpoint_path=path,
                    **kwargs,
                ).run(plan)
            assert 0 < len(RecordStore.read_json(path)) < plan.num_runs
            stores[name] = cls(
                DeterministicExecutor(), checkpoint_path=path, **kwargs
            ).resume(plan)
        assert len(stores["parallel"]) == plan.num_runs
        assert store_bytes(stores["parallel"], tmp_path, "p-final") == store_bytes(
            stores["serial"], tmp_path, "s-final"
        )

    def test_dead_worker_surfaces_as_structured_failure(self):
        plan = ExperimentPlan.build(
            [ExperimentSpec("e", "s")],
            ProtocolConfig(repetitions=2, block_size=2, min_wait_s=0, max_wait_s=0),
        )
        policy = SupervisionPolicy(max_retries=1, backoff_base_s=0.01, backoff_cap_s=0.05)
        runner = ParallelProtocolRunner(
            DyingExecutor(), n_workers=2, on_error="skip", policy=policy
        )
        store = runner.run(plan)
        assert len(store) == 0
        assert len(store.failures) == 2
        # Each run is retried once (the budget), then quarantined with
        # the structured infra error type.
        assert all(f.error_type == "WorkerCrashed" for f in store.failures)
        assert runner.supervision_stats["requeues"] == 2
        assert runner.supervision_stats["quarantines"] == 2


class TestWorkerTelemetry:
    def run_captured(self, **runner_kwargs):
        plan = two_spec_plan(repetitions=2)
        with session(ring=4096) as bus:
            ParallelProtocolRunner(
                DeterministicExecutor(), n_workers=2, seed=11, **runner_kwargs
            ).run(plan)
            return bus.ring.events

    def test_events_schema_valid(self):
        events = self.run_captured()
        problems = [p for e in events for p in validate_event(e)]
        assert problems == []

    def test_worker_brackets_carry_attribution(self):
        events = self.run_captured()
        starts = [e for e in events if e["event"] == "worker.start"]
        ends = [e for e in events if e["event"] == "worker.end"]
        assert len(starts) == len(ends) == 4
        for e in starts + ends:
            assert e["seed"] == 11
            assert e["rep"] in (0, 1)
            assert e["worker"] >= 0
        assert all(e["status"] == "ok" for e in ends)
        assert all(e["elapsed_s"] >= 0 for e in ends)

    def test_run_ends_interleave_with_worker_brackets(self):
        events = self.run_captured()
        kinds = [
            e["event"]
            for e in events
            if e["event"] in ("run.start", "worker.start", "run.end", "worker.end")
        ]
        # Per merged run: run.start, worker.start, run.end, worker.end.
        assert kinds == ["run.start", "worker.start", "run.end", "worker.end"] * 4

    def test_run_events_carry_serial_trace_ids(self):
        # Worker-executed runs are stamped with the same job trace as
        # the serial runner's, on run.start as well as run.end.
        plan = two_spec_plan(repetitions=2)

        def traced(runner):
            with session(ring=4096, trace=True) as bus:
                runner.run(plan)
                return [
                    (e["event"], e["spec"], e["rep"], e.get("trace"), e.get("span"))
                    for e in bus.ring.events
                    if e["event"] in ("run.start", "run.end")
                ]

        serial = traced(ProtocolRunner(DeterministicExecutor()))
        parallel = traced(ParallelProtocolRunner(DeterministicExecutor(), n_workers=2))
        assert len(serial) == 2 * plan.num_runs
        assert all(trace is not None for _, _, _, trace, _ in serial)
        assert parallel == serial

    def test_checkpoint_events_count_runs(self, tmp_path):
        events = self.run_captured(
            checkpoint_path=tmp_path / "c.json", checkpoint_every=2
        )
        checkpoints = [e for e in events if e["event"] == "checkpoint.write"]
        assert checkpoints
        assert checkpoints[-1]["records"] == 4
