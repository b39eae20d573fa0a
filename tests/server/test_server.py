"""End-to-end orchestrator server tests over real sockets.

Every test starts an in-process :class:`OrchestratorServer` via
``serve_in_thread`` and talks to it through :class:`RemoteClient` or
raw protocol frames — the same wire path production uses, minus the
subprocess boundary (the chaos harness covers that).
"""

import hashlib
import json
import os
import shutil
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cache import ResultCache, TieredCache
from repro.engine.base import EngineOptions
from repro.engine.fluid_runner import FluidEngine
from repro.engine.result import result_from_jsonable, result_to_jsonable
from repro.errors import ConfigError, RemoteError
from repro.client import RemoteClient
from repro.faults import FaultSchedule, target_outage
from repro.methodology.plan import ExperimentSpec
from repro.orchestrator.queue import DurableJobQueue
from repro.orchestrator.supervise import CircuitBreaker
from repro.scenario.compile import compile_scenario
from repro.server import OrchestratorServer, ServerConfig
from repro.server import app as server_app
from repro.server.netchaos import serve_in_thread
from repro.server.protocol import message, recv_frame, send_frame
from repro.service import get_service
from repro.telemetry.bus import RingBufferSink, get_bus
from repro.verify.level import ValidationLevel

from tests.orchestrator.test_durability import DAMAGE


def _scenario(num_nodes=2, seed=0):
    spec = ExperimentSpec(
        "server-e2e", "scenario1", {"num_nodes": num_nodes, "stripe_count": 4}
    )
    return compile_scenario(spec, seed=seed, max_nodes=4)


def _faulted_scenario(validation=ValidationLevel.OFF):
    """A run whose cache entry carries events: an outage of a striped target."""
    options = EngineOptions(
        fault_schedule=FaultSchedule([target_outage(201, 0.5, 1.0)]),
        validation=validation,
    )
    spec = ExperimentSpec(
        "server-e2e",
        "scenario1",
        {
            "num_nodes": 2,
            "stripe_count": 4,
            "chooser": "fixed:101,201,102,202",
            "total_gib": 1,
        },
    )
    return compile_scenario(spec, seed=0, options=options, max_nodes=4)


def _config(tmp_path, **overrides):
    defaults = dict(
        state_dir=tmp_path / "state",
        workers=2,
        io_timeout_s=5.0,
        wait_cap_s=2.0,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def _raw_rpc(port, *msgs):
    """One connection, a hello, then each message; returns the replies."""
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.settimeout(5.0)
        send_frame(sock, message("hello"))
        welcome = recv_frame(sock)
        replies = []
        for msg in msgs:
            msg.setdefault("session", welcome.get("session"))
            send_frame(sock, msg)
            replies.append(recv_frame(sock))
        return welcome, replies


@pytest.fixture()
def ring():
    sink = RingBufferSink(65536)
    bus = get_bus()
    bus.attach(sink)
    yield sink
    bus.detach(sink)


def _events(ring, event_type):
    return [e for e in ring.events if e.get("event") == event_type]


def _digest(result):
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def _submit_and_wait(config, scenario, rep):
    with serve_in_thread(config) as server:
        with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
            client.submit(scenario, rep)
            return client.wait(scenario, rep)


class TestConfig:
    def test_bad_knobs_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ServerConfig(state_dir=tmp_path, workers=0)
        with pytest.raises(ConfigError):
            ServerConfig(state_dir=tmp_path, io_timeout_s=0)
        with pytest.raises(ConfigError):
            ServerConfig(state_dir=tmp_path, session_lease_s=0)


class TestRoundTrip:
    def test_submit_wait_returns_the_local_result(self, tmp_path):
        scenario = _scenario()
        local = get_service().run(scenario, 0)
        with serve_in_thread(_config(tmp_path)) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                remote = client.run(scenario, 0)
        assert result_to_jsonable(remote) == result_to_jsonable(local)

    def test_ping_returns_stats(self, tmp_path):
        with serve_in_thread(_config(tmp_path)) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                stats = client.ping()
        assert stats["type"] == "stats"
        assert stats["pending"] == 0
        assert stats["sessions"] == 1

    def test_unknown_job_wait_is_an_error_frame(self, tmp_path):
        with serve_in_thread(_config(tmp_path)) as server:
            _, (reply,) = _raw_rpc(
                server.port,
                message("wait", job="f" * 64, rep=0, timeout_s=0.1),
            )
        assert reply["type"] == "error"
        assert reply["error"] == "unknown-job"

    def test_version_mismatch_is_an_error_frame(self, tmp_path):
        with serve_in_thread(_config(tmp_path)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5.0
            ) as sock:
                sock.settimeout(5.0)
                send_frame(sock, {"v": 999, "type": "hello"})
                reply = recv_frame(sock)
        assert reply["type"] == "error"
        assert "version" in reply["message"]

    def test_malformed_submit_is_an_error_frame_not_a_hangup(self, tmp_path):
        with serve_in_thread(_config(tmp_path)) as server:
            _, (bad, pong) = _raw_rpc(
                server.port,
                message("submit", spec={"not": "a scenario"}, rep=0),
                message("ping"),
            )
        assert bad["type"] == "error"
        # The connection survived the bad request.
        assert pong["type"] == "stats"


class TestIdempotency:
    def test_resubmission_admits_once(self, tmp_path, ring):
        scenario = _scenario()
        with serve_in_thread(_config(tmp_path)) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                first = result_to_jsonable(client.run(scenario, 0))
                second = result_to_jsonable(client.run(scenario, 0))
        assert first == second
        assert len(_events(ring, "server.admit")) == 1
        assert len(_events(ring, "server.complete")) == 1

    def test_concurrent_submit_of_same_job_admits_once(self, tmp_path, ring):
        scenario = _scenario()
        with serve_in_thread(_config(tmp_path)) as server:
            port = server.port
            with RemoteClient("127.0.0.1", port, fallback=False) as a:
                with RemoteClient("127.0.0.1", port, fallback=False) as b:
                    a.submit(scenario, 0)
                    b.submit(scenario, 0)
                    ra = result_to_jsonable(
                        result_from_jsonable(a.wait(scenario, 0)["result"])
                    )
                    rb = result_to_jsonable(
                        result_from_jsonable(b.wait(scenario, 0)["result"])
                    )
        assert ra == rb
        assert len(_events(ring, "server.admit")) == 1


class TestAdmission:
    def test_full_window_sheds_with_retry_hint(self, tmp_path, ring):
        with serve_in_thread(_config(tmp_path, max_pending=1)) as server:
            with server._lock:
                server.admission.occupy(("occupier", 0))
            _, (reply,) = _raw_rpc(
                server.port,
                message("submit", spec=_scenario().to_jsonable(), rep=0),
            )
            with server._lock:
                server.admission.release(("occupier", 0))
        assert reply["type"] == "busy"
        assert reply["reason"] == "capacity"
        assert reply["retry_after_s"] > 0
        assert len(_events(ring, "server.shed")) == 1

    def test_client_retries_through_a_busy_window(self, tmp_path):
        scenario = _scenario()
        with serve_in_thread(_config(tmp_path, max_pending=1)) as server:
            with server._lock:
                server.admission.occupy(("occupier", 0))
            client = RemoteClient(
                "127.0.0.1", server.port, fallback=False, max_attempts=20
            )
            try:
                client.connect()
                import threading, time

                def free():
                    time.sleep(0.4)
                    with server._lock:
                        server.admission.release(("occupier", 0))

                t = threading.Thread(target=free)
                t.start()
                result = client.run(scenario, 0)
                t.join()
            finally:
                client.close()
        assert result_to_jsonable(result) == result_to_jsonable(
            get_service().run(scenario, 0)
        )
        assert client.stats["retries"] >= 1


class TestDrain:
    def test_drain_finishes_leased_work_and_sheds_new(self, tmp_path):
        scenario = _scenario()
        with serve_in_thread(_config(tmp_path)) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                client.run(scenario, 0)
                server.request_drain("test")
                assert server.wait_drained(timeout=5.0)
                _, (reply,) = _raw_rpc(
                    server.port,
                    message("submit", spec=_scenario(num_nodes=4).to_jsonable(), rep=0),
                )
        assert reply["type"] == "busy"
        assert reply["reason"] == "draining"

    def test_finished_jobs_still_waitable_during_drain(self, tmp_path):
        scenario = _scenario()
        with serve_in_thread(_config(tmp_path)) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                client.run(scenario, 0)
                server.request_drain("test")
                frame = client.wait(scenario, 0)
        assert frame["status"] == "ok"


class TestSessions:
    def test_reconnect_resumes_the_session(self, tmp_path):
        with serve_in_thread(_config(tmp_path)) as server:
            client = RemoteClient("127.0.0.1", server.port, fallback=False)
            try:
                first = client.connect()
                client._drop()  # connection lost without a bye
                second = client.connect()
            finally:
                client.close()
        assert first == second == "s1"

    def test_lapsed_session_gets_a_fresh_id(self, tmp_path):
        config = _config(tmp_path, session_lease_s=0.2)
        with serve_in_thread(config) as server:
            client = RemoteClient("127.0.0.1", server.port, fallback=False)
            try:
                first = client.connect()
                client._drop()
                import time

                time.sleep(0.5)
                second = client.connect()
            finally:
                client.close()
        assert first == "s1"
        assert second != first


class TestRestart:
    def test_restart_replays_results_byte_identically(self, tmp_path):
        scenario = _scenario()
        config = _config(tmp_path)
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                before = result_to_jsonable(client.run(scenario, 0))
        # Same state_dir, brand-new process-equivalent: the WAL and the
        # result cache must reproduce the run without re-executing.
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                after = result_to_jsonable(client.run(scenario, 0))
        assert before == after

    def test_restart_does_not_readmit_finished_jobs(self, tmp_path, ring):
        scenario = _scenario()
        config = _config(tmp_path)
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                client.run(scenario, 0)
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                client.run(scenario, 0)
        assert len(_events(ring, "server.admit")) == 1

    @pytest.mark.parametrize("damage", ["removed", "truncated", "zero-filled"])
    def test_a_finished_job_whose_entry_was_lost_re_executes(self, tmp_path, damage):
        scenario = _scenario()
        config = _config(tmp_path)
        before = _submit_and_wait(config, scenario, 0)
        cache = config.state_dir / "cache"
        DAMAGE[damage](ResultCache(cache).path_for(scenario, 0))
        after = _submit_and_wait(config, scenario, 0)
        assert after["status"] == "ok", after.get("error")
        assert _digest(after["result"]) == _digest(before["result"])
        assert ResultCache(cache).load(scenario, 0)["result"] == before["result"]

    def test_concurrent_waits_on_a_lost_entry_re_execute_it_once(self, tmp_path, ring):
        scenario = _scenario()
        config = _config(tmp_path)
        before = _submit_and_wait(config, scenario, 0)
        cache = config.state_dir / "cache"
        ResultCache(cache).path_for(scenario, 0).unlink()
        frames = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with serve_in_thread(config) as server:

                def wait():
                    with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                        client.submit(scenario, 0)
                        frames.append(client.wait(scenario, 0))

                threads = [threading.Thread(target=wait) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(switch)
        assert [f["status"] for f in frames] == ["ok"] * 8
        assert {_digest(f["result"]) for f in frames} == {_digest(before["result"])}
        # The first generation's run and exactly one re-execution.
        assert len(_events(ring, "server.lease")) == 2

    def test_a_finished_job_without_its_spec_stays_failed(self, tmp_path):
        scenario = _scenario()
        config = _config(tmp_path)
        _submit_and_wait(config, scenario, 0)
        cache = config.state_dir / "cache"
        ResultCache(cache).path_for(scenario, 0).unlink()
        spec_file = config.state_dir / "specs" / f"{scenario.fingerprint}.json"
        spec_file.unlink()
        frame = _submit_and_wait(config, scenario, 0)
        assert frame["status"] == "failed"
        assert str(spec_file) in frame["error"]


class TestFallback:
    def _dead_port(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        return port

    def test_unreachable_server_falls_back_to_local(self, tmp_path, ring):
        scenario = _scenario()
        local = result_to_jsonable(get_service().run(scenario, 0))
        client = RemoteClient(
            "127.0.0.1", self._dead_port(), max_attempts=2, fallback=True
        )
        remote = result_to_jsonable(client.run(scenario, 0))
        assert remote == local
        assert client.stats["fallbacks"] == 1
        assert len(_events(ring, "client.fallback")) == 1

    def test_no_fallback_raises(self, tmp_path):
        client = RemoteClient(
            "127.0.0.1", self._dead_port(), max_attempts=2, fallback=False
        )
        with pytest.raises(RemoteError, match="after 2 attempts"):
            client.run(_scenario(), 0)


class TestStatePersistence:
    def test_specs_are_persisted_before_execution(self, tmp_path):
        scenario = _scenario()
        config = _config(tmp_path)
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                client.run(scenario, 0)
            spec_file = config.state_dir / "specs" / f"{scenario.fingerprint}.json"
            assert spec_file.is_file()
            stored = json.loads(spec_file.read_text())
            assert stored == scenario.to_jsonable()
        assert spec_file.read_text() == json.dumps(scenario.to_jsonable())

    def test_spec_directory_is_synced_between_rename_and_enqueue(
        self, tmp_path, monkeypatch
    ):
        calls = []
        replace, fsync_dir, enqueue = os.replace, server_app.fsync_dir, DurableJobQueue.enqueue

        def recording_replace(src, dst):
            calls.append(("replace", Path(dst)))
            replace(src, dst)

        def recording_fsync_dir(path):
            calls.append(("fsync_dir", Path(path)))
            fsync_dir(path)

        def recording_enqueue(self, key, rep, **kwargs):
            calls.append(("enqueue", key))
            return enqueue(self, key, rep, **kwargs)

        monkeypatch.setattr(os, "replace", recording_replace)
        monkeypatch.setattr(server_app, "fsync_dir", recording_fsync_dir)
        monkeypatch.setattr(DurableJobQueue, "enqueue", recording_enqueue)
        scenario = _scenario()
        config = _config(tmp_path)
        _submit_and_wait(config, scenario, 0)
        specs = config.state_dir / "specs"
        renamed = calls.index(("replace", specs / f"{scenario.fingerprint}.json"))
        synced = calls.index(("fsync_dir", specs))
        enqueued = calls.index(("enqueue", scenario.fingerprint))
        assert renamed < synced < enqueued


class TestJobPath:
    """A job is one service call: one cache probe, and the entry it
    resolves is what the reply carries."""

    def _run_all(self, config, jobs):
        with serve_in_thread(config) as server:
            with RemoteClient("127.0.0.1", server.port, fallback=False) as client:
                for scenario, rep in jobs:
                    client.submit(scenario, rep)
                frames = [client.wait(scenario, rep) for scenario, rep in jobs]
            return frames, server.stats()

    def test_a_new_job_probes_the_disk_tier_once(self, tmp_path, monkeypatch):
        loads, bulk = [], []
        load, lookup_many = ResultCache.load, TieredCache.lookup_many
        monkeypatch.setattr(
            ResultCache, "load", lambda *a, **k: loads.append(1) or load(*a, **k)
        )
        monkeypatch.setattr(
            TieredCache,
            "lookup_many",
            lambda *a, **k: bulk.append(1) or lookup_many(*a, **k),
        )
        (frame,), _ = self._run_all(_config(tmp_path), [(_scenario(), 0)])
        assert frame["status"] == "ok" and frame["cached"] is False
        assert len(loads) == 1
        assert bulk == []

    def test_a_warm_state_dir_answers_every_job_from_the_cache(
        self, tmp_path, monkeypatch
    ):
        jobs = [(s, rep) for s in (_scenario(), _faulted_scenario()) for rep in (0, 1)]
        first = _config(tmp_path / "first")
        self._run_all(first, jobs)
        warm = _config(tmp_path / "warm")
        shutil.copytree(first.state_dir / "cache", warm.state_dir / "cache")

        def no_engine(*args, **kwargs):
            raise AssertionError("a warm server executed an engine")

        monkeypatch.setattr(FluidEngine, "run", no_engine)
        frames, stats = self._run_all(warm, jobs)
        assert stats["cache"]["hits"] == len(jobs)
        stored = ResultCache(warm.state_dir / "cache")
        for (scenario, rep), frame in zip(jobs, frames):
            entry = stored.load(scenario, rep)
            assert frame["status"] == "ok" and frame["cached"] is True
            assert frame["result"] == entry["result"]
            assert frame["events"] == entry["events"]
        assert all(frame["events"] for frame in frames[2:])

    @pytest.mark.parametrize("cause", ["validated", "breaker-open"])
    def test_a_cache_off_run_replies_the_live_result(self, tmp_path, monkeypatch, cause):
        config = _config(tmp_path)
        # The disk holds the twin's entry (the fingerprint ignores
        # validation), events included; a cache-off run must not send it.
        get_service().run(_faulted_scenario(), 0, cache_dir=config.state_dir / "cache")
        if cause == "validated":
            scenario = _faulted_scenario(ValidationLevel.BASIC)
        else:
            scenario = _faulted_scenario()
            monkeypatch.setattr(
                get_service(),
                "breaker",
                CircuitBreaker(state="open", failures=3, opened_at=time.time()),
            )
        local = result_to_jsonable(get_service().run(scenario, 0, cache=False))
        (frame,), stats = self._run_all(config, [(scenario, 0)])
        assert frame["status"] == "ok" and frame["cached"] is False
        assert frame["result"] == local
        assert frame["events"] == []
        assert stats["cache"] == {"hits": 0, "misses": 1, "hit_ratio": 0.0}
