"""Batched worker dispatch: chunking, spool salvage, batch telemetry.

The contract under test: runs travel to workers in batches and come
back through per-batch spool files, yet the merged store stays
byte-identical to the serial runner's — including when a worker dies
mid-batch, where salvage must keep every spooled run and requeue only
the unfinished ones.
"""

import os
import pickle
import signal
import struct

from repro.engine.result import ApplicationResult, RunResult
from repro.methodology.parallel import (
    ParallelProtocolRunner,
    _Batch,
    _Supervisor,
    _Task,
    _WorkerReply,
)
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.runner import ProtocolRunner, RunOutcome
from repro.orchestrator.supervise import SupervisionPolicy
from repro.telemetry.bus import get_bus, session
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

    def __call__(self, spec, rep):
        return fake_result(duration=10.0 + rep + spec.factors.get("x", 0))


class KillOnceExecutor:
    """Kills its worker with SIGKILL on one chosen run, exactly once.

    The sentinel file (O_CREAT | O_EXCL) makes the fault one-shot across
    worker processes, so the retried run completes and the campaign can
    finish byte-identical to a fault-free one.
    """

    def __init__(self, kill_rep, sentinel):
        self.kill_rep = kill_rep
        self.sentinel = str(sentinel)

    def __call__(self, spec, rep):
        if rep == self.kill_rep and spec.factors.get("x") == 0:
            try:
                fd = os.open(self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return fake_result(duration=10.0 + rep + spec.factors.get("x", 0))


def two_spec_plan(repetitions=6):
    return ExperimentPlan.build(
        [ExperimentSpec("e", "s", {"x": i}) for i in range(2)],
        ProtocolConfig(
            repetitions=repetitions, block_size=3, min_wait_s=60, max_wait_s=120
        ),
        seed=3,
    )


def plan_tasks(plan):
    tasks = []
    ordinal = 0
    for block in plan.blocks:
        for planned in block:
            tasks.append(_Task(ordinal, planned))
            ordinal += 1
    return tasks


def store_bytes(store, tmp_path, name):
    path = tmp_path / f"{name}.json"
    store.write_json(path)
    return path.read_text()


def make_supervisor(tmp_path, n_workers=2, policy=None):
    runner = ParallelProtocolRunner(
        DeterministicExecutor(), n_workers=n_workers, policy=policy
    )
    return _Supervisor(runner, get_bus(), None, tmp_path)


class TestBatchTelemetry:
    def run_captured(self, n_workers=2):
        plan = two_spec_plan()
        runner = ParallelProtocolRunner(
            DeterministicExecutor(), n_workers=n_workers, seed=5
        )
        with session(ring=8192, level="debug") as bus:
            runner.run(plan)
            return runner, bus.ring.events

    def test_batch_events_cover_every_dispatch(self):
        _, events = self.run_captured()
        batches = [e for e in events if e["event"] == "orchestrator.batch"]
        dispatches = [e for e in events if e["event"] == "orchestrator.dispatch"]
        assert batches
        assert sum(e["size"] for e in batches) == len(dispatches) == 12
        # Every dispatch names the batch that carried it.
        ids = {e["batch"] for e in batches}
        assert all(e["batch"] in ids for e in dispatches)
        assert all(1 <= e["specs"] <= e["size"] for e in batches)
        assert [p for e in events for p in validate_event(e)] == []

    def test_transfer_stats_account_for_every_run(self):
        runner, _ = self.run_captured()
        t = runner.transfer_stats
        assert t["jobs"] == t["frames"] == 12
        assert 1 <= t["batches"] <= 12
        assert t["specs"] <= t["jobs"]
        assert t["spool_bytes"] > 0
        assert t["dispatch_overhead_s"] >= 0.0


class TestChunking:
    def test_chunk_size_adapts_to_queue_depth(self, tmp_path):
        sup = make_supervisor(tmp_path, n_workers=2)
        assert sup._chunk_size() == 1  # empty queue
        sup.pending.extend(plan_tasks(two_spec_plan(repetitions=40)))
        # 80 outstanding / (2 workers * 4) = 10, capped by the window (8).
        assert sup._chunk_size() == 8
        sup.pending.clear()
        sup.pending.extend(plan_tasks(two_spec_plan())[:4])
        assert sup._chunk_size() == 1  # stragglers spread across workers

    def test_chunk_size_respects_max_batch(self, tmp_path):
        sup = make_supervisor(
            tmp_path, n_workers=2, policy=SupervisionPolicy(max_batch=3)
        )
        sup.pending.extend(plan_tasks(two_spec_plan(repetitions=40)))
        assert sup._chunk_size() == 3

    def test_max_batch_one_is_byte_identical(self, tmp_path):
        # Per-run dispatch (max_batch=1) and batched dispatch produce
        # the same store as the serial runner, bit for bit.
        plan = two_spec_plan()
        expected = store_bytes(
            ProtocolRunner(DeterministicExecutor()).run(plan), tmp_path, "serial"
        )
        for max_batch in (1, 4):
            store = ParallelProtocolRunner(
                DeterministicExecutor(),
                n_workers=2,
                policy=SupervisionPolicy(max_batch=max_batch),
            ).run(plan)
            assert store_bytes(store, tmp_path, f"mb{max_batch}") == expected


class TestSpoolSalvage:
    def _frame(self, ordinal):
        reply = _WorkerReply(
            pid=1, elapsed_s=0.0, outcome=RunOutcome(result=fake_result())
        )
        payload = pickle.dumps((ordinal, reply), protocol=pickle.HIGHEST_PROTOCOL)
        return struct.pack("<I", len(payload)) + payload

    def _batch(self, tmp_path, tasks):
        return _Batch(
            batch_id=1, spool=tmp_path / "b.bin", tasks={t.ordinal: t for t in tasks}
        )

    def test_collect_stops_at_torn_tail_and_resumes(self, tmp_path):
        sup = make_supervisor(tmp_path)
        tasks = plan_tasks(two_spec_plan())[:3]
        batch = self._batch(tmp_path, tasks)
        frames = [self._frame(t.ordinal) for t in tasks]
        good = frames[0] + frames[1]
        batch.spool.write_bytes(good + frames[2][: len(frames[2]) // 2])
        sup._collect(batch)
        assert sorted(sup.results) == [tasks[0].ordinal, tasks[1].ordinal]
        assert batch.offset == len(good)
        assert list(batch.tasks) == [tasks[2].ordinal]
        # The tail completes later (worker finished the write): a second
        # collect picks up exactly the remaining frame, nothing twice.
        batch.spool.write_bytes(good + frames[2])
        sup._collect(batch)
        assert sorted(sup.results) == [t.ordinal for t in tasks]
        assert batch.tasks == {}
        assert sup.transfer["frames"] == 3

    def test_collect_stops_at_corrupt_frame(self, tmp_path):
        sup = make_supervisor(tmp_path)
        tasks = plan_tasks(two_spec_plan())[:2]
        batch = self._batch(tmp_path, tasks)
        frame = self._frame(tasks[0].ordinal)
        garbage = struct.pack("<I", 10) + b"x" * 10
        batch.spool.write_bytes(frame + garbage)
        sup._collect(batch)
        assert list(sup.results) == [tasks[0].ordinal]
        assert batch.offset == len(frame)  # stops at the last good frame

    def test_missing_spool_is_harmless(self, tmp_path):
        sup = make_supervisor(tmp_path)
        batch = self._batch(tmp_path, plan_tasks(two_spec_plan())[:1])
        sup._collect(batch)  # never written: no results, no error
        assert sup.results == {}


class TestPartialBatchSalvage:
    def test_kill_mid_batch_requeues_only_unfinished(self, tmp_path):
        plan = two_spec_plan()
        serial = store_bytes(
            ProtocolRunner(DeterministicExecutor()).run(plan), tmp_path, "serial"
        )
        policy = SupervisionPolicy(
            run_timeout_s=30.0,
            heartbeat_s=0.05,
            max_retries=3,
            backoff_base_s=0.01,
            backoff_cap_s=0.05,
        )
        runner = ParallelProtocolRunner(
            KillOnceExecutor(kill_rep=2, sentinel=tmp_path / "killed"),
            n_workers=2,
            policy=policy,
        )
        store = runner.run(plan)
        assert (tmp_path / "killed").exists()
        requeues = runner.supervision_stats["requeues"]
        assert requeues >= 1
        t = runner.transfer_stats
        # Salvage kept every spooled frame: each merged run crossed the
        # spool exactly once...
        assert t["frames"] == plan.num_runs
        # ...and only the interrupted runs were dispatched again.
        assert t["jobs"] == plan.num_runs + requeues
        assert store_bytes(store, tmp_path, "salvaged") == serial
