"""The remote cache tier: read-through, write-behind, degradation.

A live in-thread ``repro serve`` instance answers ``cache-get`` /
``cache-put`` frames; a :class:`ChaosProxy` between client and server
injects the two network faults the tier must degrade through —
connection reset and a torn (half-written) frame.  The headline
contract: a remote-tier outage produces **zero failed runs**; the
campaign silently falls back to the disk tier.
"""

from __future__ import annotations

import pytest

from repro import service
from repro.cache import RemoteTier, ResultCache, TieredCache, make_entry
from repro.cache.remote import parse_address
from repro.errors import ConfigError
from repro.methodology.plan import ExperimentSpec
from repro.orchestrator.supervise import CircuitBreaker
from repro.scenario.compile import compile_scenario
from repro.server import ServerConfig
from repro.server.netchaos import ChaosProxy, serve_in_thread
from repro.service import get_service
from repro.verify.replay import result_fingerprint


def _spec(**factors):
    base = {"num_nodes": 2, "ppn": 4, "total_gib": 1, "stripe_count": 2}
    base.update(factors)
    return compile_scenario(ExperimentSpec("remotetest", "scenario1", base))


def _config(tmp_path, **overrides):
    defaults = dict(
        state_dir=tmp_path / "state",
        workers=1,
        io_timeout_s=5.0,
        wait_cap_s=2.0,
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


@pytest.fixture(autouse=True)
def _fresh_tiers():
    yield
    # Remote tiers and their breaker are process-wide service state;
    # never leak an address (or an open breaker) into the next test.
    get_service().reset_tiers()


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:9999") == ("10.0.0.1", 9999)

    def test_defects_rejected(self):
        for bad in ("nohost", ":123", "host:", "host:port"):
            with pytest.raises(ConfigError):
                parse_address(bad)


class TestRemoteTierRoundTrip:
    def test_put_then_get(self, tmp_path):
        spec = _spec()
        svc = get_service()
        local = ResultCache(tmp_path / "local")
        TieredCache(disk=local).store(make_entry(spec, 0, svc.run(spec, 0, cache=False), []))
        entry = local.load(spec, 0)
        with serve_in_thread(_config(tmp_path)) as server:
            writer = RemoteTier("127.0.0.1", server.port)
            try:
                writer.store_entry(entry)
                assert writer.flush(timeout=10.0)
                assert writer.stats()["puts"] == 1
            finally:
                writer.close()
            reader = RemoteTier("127.0.0.1", server.port)
            try:
                assert reader.lookup(spec, 0) == entry
                assert reader.lookup(spec, 1) is None
            finally:
                reader.close()
            tally = server.stats()["remote_cache"]
            assert tally["puts"] == 1 and tally["get_hits"] == 1
            assert tally["get_misses"] == 1


class TestServiceThroughRemote:
    def test_warm_from_remote_backfills_local(self, tmp_path):
        spec = _spec()
        svc = get_service()
        with serve_in_thread(_config(tmp_path)) as server:
            address = f"127.0.0.1:{server.port}"
            cold_dir = tmp_path / "cold"
            before = service.cache_stats()
            cold = svc.run(spec, 0, cache_dir=cold_dir, cache_remote=address)
            assert _delta(before, service.cache_stats())["miss"] == 1
            assert svc.flush_remote()

            # A different machine (fresh cache root) warms from the
            # shared remote tier alone.
            warm_dir = tmp_path / "warm"
            before = service.cache_stats()
            warm = svc.run(spec, 0, cache_dir=warm_dir, cache_remote=address)
            delta = _delta(before, service.cache_stats())
            assert delta["hit"] == 1 and delta["miss"] == 0
            assert result_fingerprint(warm) == result_fingerprint(cold)
            # The remote hit was made durable locally (backfill).
            assert ResultCache(warm_dir).load(spec, 0) is not None

    def test_remote_down_degrades_with_zero_failed_runs(self, tmp_path):
        spec = _spec()
        svc = get_service()
        # A port nothing listens on: every probe is a fast OSError.
        dead = "127.0.0.1:9"
        before = service.cache_stats()
        results = [
            svc.run(spec, rep, cache_dir=tmp_path / "cache", cache_remote=dead)
            for rep in range(4)
        ]
        delta = _delta(before, service.cache_stats())
        assert len(results) == 4  # zero failed runs
        assert delta["miss"] == 4 and delta["error"] == 0
        # Repeated faults opened the *remote* breaker; the disk breaker
        # (the run-level accounting) never saw them.
        assert svc.remote_breaker.state == "open"
        assert svc.breaker.state == "closed"
        # And the local disk tier kept every result.
        assert len(ResultCache(tmp_path / "cache")) == 4


class TestRemoteFaultInjection:
    def test_connection_reset_degrades_to_local(self, tmp_path):
        spec = _spec()
        svc = get_service()
        with serve_in_thread(_config(tmp_path)) as server:
            with ChaosProxy(server.port, mode="reset", fault_after_bytes=0) as proxy:
                address = f"127.0.0.1:{proxy.port}"
                before = service.cache_stats()
                result = svc.run(
                    spec, 0, cache_dir=tmp_path / "cache", cache_remote=address
                )
                delta = _delta(before, service.cache_stats())
                assert result is not None and proxy.faulted
                assert delta["miss"] == 1 and delta["error"] == 0
                assert svc.remote_breaker.failures >= 1

    def test_half_frame_degrades_to_local(self, tmp_path):
        spec = _spec()
        svc = get_service()
        with serve_in_thread(_config(tmp_path)) as server:
            with ChaosProxy(
                server.port, mode="truncate", fault_after_bytes=0
            ) as proxy:
                address = f"127.0.0.1:{proxy.port}"
                before = service.cache_stats()
                result = svc.run(
                    spec, 0, cache_dir=tmp_path / "cache", cache_remote=address
                )
                delta = _delta(before, service.cache_stats())
                assert result is not None and proxy.faulted
                assert delta["miss"] == 1 and delta["error"] == 0

    def test_lookup_raises_normalized_oserror(self, tmp_path):
        spec = _spec()
        with serve_in_thread(_config(tmp_path)) as server:
            with ChaosProxy(server.port, mode="reset", fault_after_bytes=0) as proxy:
                tier = RemoteTier("127.0.0.1", proxy.port, timeout_s=2.0)
                try:
                    with pytest.raises(OSError):
                        tier.lookup(spec, 0)
                finally:
                    tier.close()

    def test_composite_breaker_opens_and_skips_probes(self, tmp_path):
        spec = _spec()
        svc = get_service()
        disk = ResultCache(tmp_path / "cache")
        breaker = CircuitBreaker()
        dead = RemoteTier("127.0.0.1", 9, timeout_s=0.5)
        try:
            tiers = TieredCache(disk=disk, remote=dead, remote_breaker=breaker)
            for _ in range(3):
                assert tiers.lookup(spec, 0) is None
            assert breaker.state == "open"
            # While open, lookups skip the remote probe entirely.
            from repro.cache.tiered import reset_tier_stats, tier_stats

            reset_tier_stats()
            assert tiers.lookup(spec, 0) is None
            stats = tier_stats()["remote"]
            assert stats["degraded"] == 1 and stats["error"] == 0
        finally:
            dead.close()
