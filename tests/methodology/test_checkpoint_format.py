"""The JSON checkpoint's byte format and its incremental encoder.

Every other checkpoint test compares one store with another (serial vs
parallel, cold vs warm, resumed vs uninterrupted), so a format drift
applied to every mode at once would pass them all.  These tests pin the
bytes: against a committed golden, and against the straightforward
encoder the incremental one must stay equivalent to.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.methodology.records import FailedRunRecord, RecordStore, RunRecord

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "checkpoint.json"


def reference_bytes(store: RecordStore) -> bytes:
    """The checkpoint as one ``json.dumps`` of the whole store."""
    return json.dumps(
        {
            "records": [r.to_row() for r in store],
            "failures": [f.to_dict() for f in store.failures],
            "retried_failures": [f.to_dict() for f in store.retried_failures],
        }
    ).encode()


def record(rep: int, stripe: int = 4, fault_events: tuple = ()) -> RunRecord:
    return RunRecord(
        exp_id="fig6",
        scenario="scenario1",
        rep=rep,
        factors={"stripe_count": stripe, "num_nodes": 8, "chooser": "roundrobin"},
        # Floats whose repr is not the shortest obvious decimal.
        aggregate_bw_mib_s=0.1 + 0.2 + rep,
        apps=(
            {
                "app_id": "app0",
                "bw_mib_s": 1234.5678901234567,
                "start_s": 0.0,
                "end_s": 26.5 + rep / 3,
                "volume_bytes": 34359738368.0,
                "num_nodes": 8,
                "ppn": 8,
                "stripe_count": stripe,
                "targets": (101, 201, 202, 203)[:stripe],
                "placement": (1, 3),
            },
        ),
        wall_clock_s=rep * 1e-7,
        block=rep // 2,
        retries=len(fault_events),
        complete=not fault_events,
        fault_events=fault_events,
    )


FAULT_EVENTS = (
    {"time": 1.0, "flow_id": "app0:n1:201", "action": "timeout", "attempt": 1},
    {"time": 2.5, "flow_id": "app0:n1:201", "action": "abandon", "attempt": 2},
)


def failure(rep: int, message: str = "boom", **extra) -> FailedRunRecord:
    return FailedRunRecord(
        exp_id="fig6",
        scenario="scenario1",
        rep=rep,
        factors={"stripe_count": 4, "num_nodes": 8},
        error_type="SimulationError",
        message=message,
        wall_clock_s=12.75,
        block=rep // 2,
        **extra,
    )


def golden_store() -> RecordStore:
    """What ``tests/golden/checkpoint.json`` holds."""
    store = RecordStore([record(0), record(1, stripe=2, fault_events=FAULT_EVENTS), record(2)])
    store.failures.append(
        failure(
            3,
            # Non-ASCII text is escaped, never written raw.
            message="cible 201 injoignable — échec après 2 tentatives",
            retries=2,
            flow_trace=FAULT_EVENTS,
            last_events=(
                {"event": "run.start", "t": 12.75, "trace_id": "9f2c", "rep": 3},
                {"event": "flow.retry", "t": 13.0, "trace_id": "9f2c", "target": 201},
            ),
        )
    )
    store.retried_failures.append(failure(5, message="worker died"))
    return store


class TestGolden:
    def test_golden_matches_reference_encoder(self):
        assert GOLDEN.read_bytes() == reference_bytes(golden_store())

    def test_write_json_reproduces_golden(self, tmp_path):
        path = tmp_path / "ckpt.json"
        golden_store().write_json(path)
        assert path.read_bytes() == GOLDEN.read_bytes()

    def test_read_then_write_is_byte_identical(self, tmp_path):
        path = tmp_path / "ckpt.json"
        RecordStore.read_json(GOLDEN).write_json(path)
        assert path.read_bytes() == GOLDEN.read_bytes()


@pytest.fixture
def to_row_calls(monkeypatch) -> list[int]:
    """The rep of every record ``RunRecord.to_row`` encodes, in order."""
    calls: list[int] = []
    to_row = RunRecord.to_row

    def counting(self):
        calls.append(self.rep)
        return to_row(self)

    monkeypatch.setattr(RunRecord, "to_row", counting)
    return calls


class TestIncrementalEncoder:
    def test_bytes_match_reference_through_a_campaign(self, tmp_path):
        path = tmp_path / "ckpt.json"
        store = RecordStore()

        def checkpoint(current: RecordStore) -> None:
            current.write_json(path)
            assert path.read_bytes() == reference_bytes(current)

        checkpoint(store)
        store.append(record(0))
        checkpoint(store)
        store.extend(
            RecordStore(
                [record(1, fault_events=FAULT_EVENTS), record(2)],
                failures=[failure(7)],
                retried_failures=[failure(8)],
            )
        )
        checkpoint(store)
        store.failures.append(failure(3, message="délai dépassé", flow_trace=FAULT_EVENTS))
        checkpoint(store)
        assert store.archive_failures() == 2
        checkpoint(store)
        # Resume: a store read back from the file keeps encoding the same.
        resumed = RecordStore.read_json(path)
        assert path.read_bytes() == reference_bytes(resumed)
        resumed.append(record(4, stripe=1))
        checkpoint(resumed)

    def test_each_record_is_encoded_once(self, tmp_path, to_row_calls):
        path = tmp_path / "ckpt.json"
        store = RecordStore()
        n, every = 47, 10
        for rep in range(n):
            store.append(record(rep))
            if (rep + 1) % every == 0:
                store.write_json(path)
        store.write_json(path)
        store.write_json(path)  # nothing new: no encoding at all
        assert sorted(to_row_calls) == list(range(n))

    def test_unserializable_record_leaves_checkpoint_untouched(self, tmp_path, to_row_calls):
        path = tmp_path / "ckpt.json"
        store = RecordStore([record(0), record(1)])
        store.write_json(path)
        before = path.read_bytes()
        stat = path.stat()
        store.append(record(2))
        store.append(dataclasses.replace(record(3), factors={"x": object()}))
        for _ in range(2):
            with pytest.raises(TypeError):
                store.write_json(path)
            assert path.read_bytes() == before
            assert (path.stat().st_ino, path.stat().st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)
            assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        # Record 2 was encoded on the first failed write and kept; only
        # the unserializable record is retried.
        assert to_row_calls == [0, 1, 2, 3, 3]
