"""The simulation service and its content-addressed result cache.

The contract under test: a warm campaign executes zero engine runs yet
produces a byte-identical record store and replay fingerprint to the
cold one, serial and parallel; validated runs and ``cache=False``
always execute; corrupted or mismatched entries degrade to misses.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import service
from repro.cache.tiered import reset_tier_stats, tier_stats
from repro.engine.base import EngineOptions
from repro.engine.fluid_runner import FluidEngine
from repro.methodology.plan import ExperimentSpec
from repro.scenario import ScenarioSpec
from repro.scenario.compile import compile_scenario
from repro.service import ResultCache, ServiceExecutor, get_service
from repro.experiments.common import run_specs, sweep
from repro.telemetry.bus import RingBufferSink, get_bus
from repro.verify.level import ValidationLevel
from repro.verify.replay import result_fingerprint


@pytest.fixture(autouse=True)
def _clean_stats():
    before = service.cache_stats()
    yield
    # Tests in this module may leave counters incremented; that is fine,
    # but make sure the tally only ever grows (no negative deltas).
    after = service.cache_stats()
    assert all(after[k] >= before[k] for k in before)


def _planned(**factors) -> ExperimentSpec:
    base = {"num_nodes": 2, "ppn": 4, "total_gib": 1, "stripe_count": 2}
    base.update(factors)
    return ExperimentSpec("cachetest", "scenario1", base)


def _spec(**factors) -> ScenarioSpec:
    return compile_scenario(_planned(**factors))


def _delta(before, after):
    return {k: after[k] - before[k] for k in after}


class TestResultCache:
    def test_miss_then_hit_byte_identical(self, tmp_path):
        spec = _spec()
        svc = get_service()
        before = service.cache_stats()
        cold = svc.run(spec, 0, cache_dir=tmp_path)
        warm = svc.run(spec, 0, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["miss"] == 1 and stats["hit"] == 1
        assert result_fingerprint(cold) == result_fingerprint(warm)

    def test_distinct_reps_distinct_entries(self, tmp_path):
        spec = _spec()
        svc = get_service()
        a = svc.run(spec, 0, cache_dir=tmp_path)
        b = svc.run(spec, 1, cache_dir=tmp_path)
        assert result_fingerprint(a) != result_fingerprint(b)
        assert len(ResultCache(tmp_path)) == 2

    def test_validation_bypasses_cache(self, tmp_path):
        spec = _spec().with_options(validation=ValidationLevel.BASIC)
        svc = get_service()
        before = service.cache_stats()
        svc.run(spec, 0, cache_dir=tmp_path)
        svc.run(spec, 0, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["bypassed"] == 2
        assert len(ResultCache(tmp_path)) == 0

    def test_cache_false_counts_uncached(self, tmp_path):
        spec = _spec()
        svc = get_service()
        before = service.cache_stats()
        svc.run(spec, 0, cache=False, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["uncached"] == 1
        assert len(ResultCache(tmp_path)) == 0

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        spec = _spec()
        svc = get_service()
        cold = svc.run(spec, 0, cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec, 0)
        path.write_text("{not json")
        before = service.cache_stats()
        again = svc.run(spec, 0, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["miss"] == 1
        assert stats["corrupt"] == 1
        assert result_fingerprint(again) == result_fingerprint(cold)
        # The garbled file was quarantined, not left to fail every
        # future lookup — and the re-executed run re-stored the entry.
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()

    def test_undecodable_entry_degrades_to_miss(self, tmp_path):
        spec = _spec()
        svc = get_service()
        cold = svc.run(spec, 0, cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec, 0)
        blob = path.read_bytes()
        path.write_bytes(blob[:20] + b"\xff" + blob[21:])
        before = service.cache_stats()
        again = svc.run(spec, 0, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["miss"] == 1 and stats["corrupt"] == 1 and stats["error"] == 0
        assert result_fingerprint(again) == result_fingerprint(cold)
        assert path.with_name(path.name + ".corrupt").exists()
        assert path.exists()

    def test_entry_header_mismatch_degrades_to_miss(self, tmp_path):
        spec = _spec()
        svc = get_service()
        svc.run(spec, 0, cache_dir=tmp_path)
        path = ResultCache(tmp_path).path_for(spec, 0)
        entry = json.loads(path.read_text())
        entry["model_revision"] = 999
        path.write_text(json.dumps(entry))
        before = service.cache_stats()
        svc.run(spec, 0, cache_dir=tmp_path)
        stats = _delta(before, service.cache_stats())
        assert stats["miss"] == 1
        # Decodable-but-wrong headers are not corruption: no quarantine.
        assert stats["corrupt"] == 0

    def test_hit_replays_engine_events(self, tmp_path):
        # A mid-run outage produces engine-level events (fault.trigger,
        # flow.retry); a healthy run emits none at info level.
        from repro.faults import FaultSchedule, target_outage

        spec = _spec(chooser="fixed:101,201", stripe_count=2).with_options(
            fault_schedule=FaultSchedule([target_outage(201, 0.1, 2.0)])
        )
        svc = get_service()
        bus = get_bus()
        cold_ring = bus.attach(RingBufferSink(4096))
        try:
            svc.run(spec, 0, cache_dir=tmp_path)
        finally:
            bus.detach(cold_ring)
        warm_ring = bus.attach(RingBufferSink(4096))
        try:
            svc.run(spec, 0, cache_dir=tmp_path)
        finally:
            bus.detach(warm_ring)
        cold_types = [e["event"] for e in cold_ring.events]
        warm_types = [e["event"] for e in warm_ring.events]
        assert cold_types and cold_types == warm_types

    def test_counters_reach_metrics_registry(self, tmp_path):
        spec = _spec(total_gib=2)
        bus = get_bus()
        ring = bus.attach(RingBufferSink(16))
        try:
            before = bus.metrics.counter("service.cache", status="miss").value
            get_service().run(spec, 0, cache_dir=tmp_path)
            after = bus.metrics.counter("service.cache", status="miss").value
        finally:
            bus.detach(ring)
        assert after == before + 1


class TestEventCapture:
    def test_an_entry_keeps_only_its_own_threads_events(self, tmp_path, monkeypatch):
        """What another thread emits during a run (a server's second
        worker, a connection handler) is not replayed with its entry."""
        bus = get_bus()
        engine_run = FluidEngine.run

        def run_beside_another_thread(self, apps, rep=0):
            other = threading.Thread(
                target=bus.emit,
                args=("server.session",),
                kwargs={"action": "open", "session": "s2"},
            )
            other.start()
            other.join()
            bus.emit("server.session", action="renew", session="s1")
            return engine_run(self, apps, rep=rep)

        monkeypatch.setattr(FluidEngine, "run", run_beside_another_thread)
        entry, hit = get_service().resolve(_spec(total_gib=5), 0, cache_dir=tmp_path)
        assert hit is False
        assert [(e["event"], e["session"]) for e in entry["events"]] == [
            ("server.session", "s1")
        ]


class TestBulkLookup:
    """The bulk path (prefetch, then resolve at the run's position) is
    tally- and result-equivalent to probing the cache run by run — the
    campaign walk depends on this for ``service.cache`` parity."""

    def _jobs(self, reps=2):
        specs = (_spec(stripe_count=2), _spec(stripe_count=4))
        return [(spec, rep) for spec in specs for rep in range(reps)]

    def _campaign(self, tmp_path, reps=2):
        """A ``ServiceExecutor`` over ``_jobs``' specs, and its planned jobs."""
        planned = (_planned(stripe_count=2), _planned(stripe_count=4))
        executor = ServiceExecutor(
            scenarios={p.key: compile_scenario(p) for p in planned},
            cache_dir=str(tmp_path),
        )
        return executor, [(p, rep) for p in planned for rep in range(reps)]

    def _bulk(self, executor, jobs):
        """The production bulk path: one prefetch, then each run in order."""
        executor.prefetch(jobs)
        return [executor(spec, rep) for spec, rep in jobs]

    def test_prefetched_cold_then_warm_tallies(self, tmp_path):
        executor, jobs = self._campaign(tmp_path)
        before = service.cache_stats()
        cold = self._bulk(executor, jobs)
        assert _delta(before, service.cache_stats())["miss"] == 4
        before = service.cache_stats()
        warm = self._bulk(executor, jobs)
        stats = _delta(before, service.cache_stats())
        assert stats["hit"] == 4 and stats["miss"] == 0
        assert [result_fingerprint(r) for r in warm] == [
            result_fingerprint(r) for r in cold
        ]

    def test_prefetched_mixed_matches_per_run(self, tmp_path):
        svc = get_service()
        executor, planned = self._campaign(tmp_path)
        jobs = [(executor.scenarios[spec.key], rep) for spec, rep in planned]
        for spec, rep in jobs[:2]:  # pre-warm half through the per-run path
            svc.run(spec, rep, cache_dir=tmp_path)
        before = service.cache_stats()
        bulk = self._bulk(executor, planned)
        stats = _delta(before, service.cache_stats())
        assert stats["hit"] == 2 and stats["miss"] == 2
        per_run = [svc.run(spec, rep, cache_dir=tmp_path) for spec, rep in jobs]
        assert [result_fingerprint(r) for r in bulk] == [
            result_fingerprint(r) for r in per_run
        ]

    def test_prefetch_counts_nothing_until_resolved(self, tmp_path):
        svc = get_service()
        jobs = self._jobs(reps=1)
        for spec, rep in jobs:
            svc.run(spec, rep, cache_dir=tmp_path)
        before = service.cache_stats()
        entries = svc.prefetch(jobs, cache_dir=tmp_path)
        assert all(v == 0 for v in _delta(before, service.cache_stats()).values())
        assert len(entries) == 2
        before = service.cache_stats()
        for entry in entries.values():
            svc.resolve_prefetched(entry)
        # Exactly one hit per run, counted at resolve time, never per batch.
        assert _delta(before, service.cache_stats())["hit"] == 2


class TestServiceExecutor:
    def test_unknown_plan_key_rejected(self):
        from repro.errors import ExperimentError

        executor = ServiceExecutor(scenarios={})
        with pytest.raises(ExperimentError):
            executor(ExperimentSpec("e", "scenario1", {"num_nodes": 2}), 0)


class TestCampaignEquivalence:
    def _specs(self):
        return sweep(
            "cachecamp",
            scenario="scenario1",
            stripe_count=(2, 4),
            num_nodes=2,
            ppn=4,
            total_gib=1,
        )

    def test_cold_warm_serial_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        before = service.cache_stats()
        cold = run_specs(self._specs(), repetitions=3, seed=0, cache_dir=cache)
        warm = run_specs(self._specs(), repetitions=3, seed=0, cache_dir=cache)
        stats = _delta(before, service.cache_stats())
        assert stats["miss"] == 6 and stats["hit"] == 6
        cold_csv, warm_csv = tmp_path / "cold.csv", tmp_path / "warm.csv"
        cold.write_csv(cold_csv)
        warm.write_csv(warm_csv)
        assert cold_csv.read_bytes() == warm_csv.read_bytes()

    def test_same_process_warm_campaign_is_served_by_disk(self, tmp_path):
        # No in-process tier sits in front of the disk: a second campaign
        # in this process, over the same root, reads every run from it.
        cache = tmp_path / "cache"
        cold = run_specs(self._specs(), repetitions=3, seed=0, cache_dir=cache)
        reset_tier_stats()
        before = service.cache_stats()
        warm = run_specs(self._specs(), repetitions=3, seed=0, cache_dir=cache)
        stats = _delta(before, service.cache_stats())
        assert stats["hit"] == 6 and stats["miss"] == 0
        assert tier_stats()["disk"]["hit"] == 6
        cold.write_json(tmp_path / "cold.json")
        warm.write_json(tmp_path / "warm.json")
        assert (tmp_path / "cold.json").read_bytes() == (tmp_path / "warm.json").read_bytes()

    def test_warm_parallel_matches_cold_serial(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_specs(self._specs(), repetitions=2, seed=0, cache_dir=cache)
        before = service.cache_stats()
        warm = run_specs(self._specs(), repetitions=2, seed=0, cache_dir=cache, workers=2)
        stats = _delta(before, service.cache_stats())
        assert stats["hit"] == 4 and stats["miss"] == 0
        cold_csv, warm_csv = tmp_path / "cold.csv", tmp_path / "warm.csv"
        cold.write_csv(cold_csv)
        warm.write_csv(warm_csv)
        assert cold_csv.read_bytes() == warm_csv.read_bytes()

    def test_no_cache_campaign_executes(self, tmp_path):
        cache = tmp_path / "cache"
        before = service.cache_stats()
        run_specs(self._specs(), repetitions=1, seed=0, cache=False, cache_dir=cache)
        stats = _delta(before, service.cache_stats())
        assert stats["uncached"] == 2 and stats["miss"] == 0
        assert len(ResultCache(cache)) == 0


class TestSweep:
    def test_scalar_axes_fixed(self):
        specs = sweep("e", scenario="scenario1", stripe_count=4, num_nodes=8)
        assert len(specs) == 1
        assert specs[0].factors == {"stripe_count": 4, "num_nodes": 8}

    def test_list_axes_crossed_leftmost_outermost(self):
        specs = sweep("e", scenario="scenario1", a=(1, 2), b=(10, 20))
        combos = [(s.factors["a"], s.factors["b"]) for s in specs]
        assert combos == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_mapping_axes_resolved_per_scenario(self):
        specs = sweep(
            "e",
            scenario=("scenario1", "scenario2"),
            num_nodes={"scenario1": (1, 2), "scenario2": (4,)},
        )
        by_scenario = {}
        for s in specs:
            by_scenario.setdefault(s.scenario, []).append(s.factors["num_nodes"])
        assert by_scenario == {"scenario1": [1, 2], "scenario2": [4]}

    def test_mapping_missing_scenario_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            sweep("e", scenario="scenario9", num_nodes={"scenario1": 2})

    def test_no_scenarios_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            sweep("e", scenario=())


class TestCacheGC:
    def populate(self, tmp_path, reps=4):
        spec = _spec()
        svc = get_service()
        for rep in range(reps):
            svc.run(spec, rep, cache_dir=tmp_path)
        return sorted((tmp_path).glob("*/*/*.json"))

    def test_evicts_oldest_mtime_first(self, tmp_path):
        import os

        entries = self.populate(tmp_path)
        assert len(entries) == 4
        # Age the first two entries; they must be the eviction victims.
        for i, path in enumerate(entries):
            os.utime(path, (1000.0 + i, 1000.0 + i))
        keep = sum(p.stat().st_size for p in entries[2:])
        summary = ResultCache(tmp_path).gc(keep)
        assert summary["evicted"] == 2
        assert summary["remaining_bytes"] == keep
        survivors = sorted(tmp_path.glob("*/*/*.json"))
        assert survivors == entries[2:]

    def test_zero_budget_clears_cache_and_prunes_dirs(self, tmp_path):
        self.populate(tmp_path)
        summary = ResultCache(tmp_path).gc(0)
        assert summary["remaining_bytes"] == 0
        assert list(tmp_path.glob("*/*/*.json")) == []
        assert list(tmp_path.glob("*")) == []  # fingerprint dirs pruned

    def test_large_budget_evicts_nothing(self, tmp_path):
        entries = self.populate(tmp_path)
        summary = ResultCache(tmp_path).gc(10**12)
        assert summary["evicted"] == 0
        assert sorted(tmp_path.glob("*/*/*.json")) == entries

    def test_negative_budget_rejected(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ResultCache(tmp_path).gc(-1)

    def test_dry_run_deletes_nothing(self, tmp_path):
        entries = self.populate(tmp_path)
        total = sum(p.stat().st_size for p in entries)
        summary = ResultCache(tmp_path).gc(0, dry_run=True)
        assert summary["dry_run"] is True
        assert summary["evicted"] == 4
        assert summary["freed_bytes"] == total
        assert summary["remaining_bytes"] == 0
        # ... but every entry is still on disk.
        assert sorted(tmp_path.glob("*/*/*.json")) == entries

    def test_dry_run_predicts_real_pass(self, tmp_path):
        import os

        entries = self.populate(tmp_path)
        for i, path in enumerate(entries):
            os.utime(path, (1000.0 + i, 1000.0 + i))
        keep = sum(p.stat().st_size for p in entries[2:])
        predicted = ResultCache(tmp_path).gc(keep, dry_run=True)
        actual = ResultCache(tmp_path).gc(keep)
        assert predicted["evicted"] == actual["evicted"]
        assert predicted["freed_bytes"] == actual["freed_bytes"]
        assert predicted["remaining_bytes"] == actual["remaining_bytes"]

    def test_dry_run_emits_no_event(self, tmp_path):
        self.populate(tmp_path)
        bus = get_bus()
        ring = RingBufferSink(256)
        bus.attach(ring)
        try:
            ResultCache(tmp_path).gc(0, dry_run=True)
        finally:
            bus.detach(ring)
        assert [e for e in ring.events if e["event"] == "cache.gc"] == []

    def test_eviction_counter_and_event(self, tmp_path):
        self.populate(tmp_path)
        bus = get_bus()
        ring = RingBufferSink(256)
        bus.attach(ring)
        try:
            ResultCache(tmp_path).gc(0)
        finally:
            bus.detach(ring)
        gc_events = [e for e in ring.events if e["event"] == "cache.gc"]
        assert len(gc_events) == 1
        assert gc_events[0]["evicted"] == 4
        assert bus.metrics.counter("service.cache.evicted").value >= 4
