"""The fsync'd JSONL journal: durable appends, tolerant reads."""

import json
import multiprocessing
import os
import signal

from repro.orchestrator.journal import Journal, fsync_dir, read_records


class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"op": "a", "n": 1})
        journal.append({"op": "b", "n": 2})
        journal.close()
        records, torn = read_records(path)
        assert torn == 0
        assert records == [{"op": "a", "n": 1}, {"op": "b", "n": 2}]

    def test_append_many_single_batch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append_many([{"n": i} for i in range(5)])
        journal.close()
        records, _ = read_records(path)
        assert [r["n"] for r in records] == list(range(5))

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"op": "a"})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"op": "tor')  # a crash mid-write
        records, torn = read_records(path)
        assert records == [{"op": "a"}]
        assert torn == 1

    def test_garbage_line_in_middle_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"op": "a"}\nnot json at all\n{"op": "b"}\n')
        records, torn = read_records(path)
        assert [r["op"] for r in records] == ["a", "b"]
        assert torn == 1

    def test_undecodable_line_counted_as_torn(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"op": "a"}\n{"op": "\xff"}\n\xfe\xff\n{"op": "b"}\n')
        records, torn = read_records(path)
        assert [r["op"] for r in records] == ["a", "b"]
        assert torn == 2

    def test_missing_file_reads_empty(self, tmp_path):
        records, torn = read_records(tmp_path / "nope.jsonl")
        assert records == [] and torn == 0

    def test_unlink_removes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = Journal(path)
        journal.append({"op": "a"})
        journal.unlink()
        assert not path.exists()
        journal.unlink()  # idempotent

    def test_fsync_dir_tolerates_missing_dir(self, tmp_path):
        fsync_dir(tmp_path / "does-not-exist")  # must not raise


def _stress_writer(path, writer_id, count, payload_size):
    journal = Journal(path)
    pad = "x" * payload_size
    for n in range(count):
        journal.append({"writer": writer_id, "n": n, "pad": pad})
    journal.close()


def _endless_writer(path, payload_size):
    journal = Journal(path)
    pad = "y" * payload_size
    n = 0
    while True:  # killed by the parent mid-stream
        journal.append({"writer": "victim", "n": n, "pad": pad})
        n += 1


class TestConcurrentAppenders:
    """Two writers on one WAL must never interleave partial lines.

    The journal appends each record as a single ``os.write`` on an
    ``O_APPEND`` descriptor, which POSIX makes atomic between
    processes — these tests drive that contract with real concurrent
    processes and records large enough (~16 KiB) that a buffered text
    handle *would* have split them across syscalls.
    """

    PAYLOAD = 16 * 1024

    def test_multiprocess_stress_no_interleaving(self, tmp_path):
        path = tmp_path / "shared.journal"
        n_writers, per_writer = 4, 25
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_stress_writer, args=(path, w, per_writer, self.PAYLOAD)
            )
            for w in range(n_writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # Every raw line must parse — a single torn line would mean two
        # writers' bytes interleaved inside one record.
        lines = path.read_text().splitlines()
        assert len(lines) == n_writers * per_writer
        seen: dict[int, set[int]] = {}
        for line in lines:
            record = json.loads(line)  # raises on interleaved bytes
            assert len(record["pad"]) == self.PAYLOAD
            seen.setdefault(record["writer"], set()).add(record["n"])
        assert seen == {w: set(range(per_writer)) for w in range(n_writers)}
        records, torn = read_records(path)
        assert torn == 0 and len(records) == len(lines)

    def test_writer_killed_mid_stream_leaves_whole_lines(self, tmp_path):
        path = tmp_path / "victim.journal"
        ctx = multiprocessing.get_context("spawn")
        proc = ctx.Process(target=_endless_writer, args=(path, self.PAYLOAD))
        proc.start()
        try:
            # Let it write a few records, then kill it mid-stream.
            import time

            deadline = time.time() + 60
            while time.time() < deadline:
                if path.exists() and path.stat().st_size > 4 * self.PAYLOAD:
                    break
                time.sleep(0.01)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.join(timeout=60)
        records, torn = read_records(path)
        assert torn == 0, "SIGKILL tore a journal line"
        assert len(records) >= 3
        assert [r["n"] for r in records] == list(range(len(records)))

    def test_torn_tail_recovered_and_counted(self, tmp_path):
        # A power cut mid-write (not reproducible with SIGKILL, since
        # whole-line appends are atomic) leaves a partial final line:
        # simulate one and prove the reader degrades, not raises.
        path = tmp_path / "torn.journal"
        journal = Journal(path)
        journal.append({"op": "a", "n": 0})
        journal.append({"op": "b", "n": 1})
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"op":"c","n":2,"pad":"trunca')  # no newline, torn
        records, torn = read_records(path)
        assert [r["op"] for r in records] == ["a", "b"]
        assert torn == 1
