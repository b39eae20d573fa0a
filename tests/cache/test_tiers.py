"""The tiered cache subsystem: tiers in isolation and the composite.

The contract under test: every tier speaks whole validated entries;
the disk tier quarantines corruption and touches mtime on hits so GC
is true LRU; the memory tier is a bounded LRU; the composite promotes
hits into faster tiers and only ever admits entries the tier of record
has made durable.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.cache import (
    CACHE_SCHEMA,
    MemoryTier,
    ResultCache,
    TieredCache,
    entry_key,
    make_entry,
    validate_entry,
)
from repro.cache.tiered import reset_tier_stats, tier_stats
from repro.errors import ConfigError
from repro.methodology.plan import ExperimentSpec
from repro.scenario import MODEL_REVISION
from repro.scenario.compile import compile_scenario
from repro.service import get_service
from repro.verify.replay import result_fingerprint


def _spec(**factors):
    base = {"num_nodes": 2, "ppn": 4, "total_gib": 1, "stripe_count": 2}
    base.update(factors)
    return compile_scenario(ExperimentSpec("tiertest", "scenario1", base))


def _fake_spec(fp: str, engine: str = "fluid"):
    """Key-shaped stand-in: the memory tier only reads these two attrs."""
    return SimpleNamespace(fingerprint=fp, engine=engine)


def _entry(fp: str = "ab" * 8, rep: int = 0, pad: int = 0) -> dict:
    return {
        "schema": CACHE_SCHEMA,
        "fingerprint": fp,
        "model_revision": MODEL_REVISION,
        "engine": "fluid",
        "rep": rep,
        "spec": {},
        "result": {"pad": "x" * pad},
        "events": [],
    }


class TestValidateEntry:
    def test_well_formed_accepted(self):
        assert validate_entry(_entry())

    def test_key_match_enforced(self):
        entry = _entry(fp="cd" * 8, rep=3)
        assert validate_entry(entry, fingerprint="cd" * 8, engine="fluid", rep=3)
        assert not validate_entry(entry, fingerprint="ab" * 8)
        assert not validate_entry(entry, engine="des")
        assert not validate_entry(entry, rep=4)

    def test_defects_rejected(self):
        assert not validate_entry(None)
        assert not validate_entry({**_entry(), "schema": 99})
        assert not validate_entry({**_entry(), "fingerprint": "../evil"})
        assert not validate_entry({**_entry(), "engine": "no/slash"})
        assert not validate_entry({**_entry(), "rep": True})
        assert not validate_entry({**_entry(), "rep": "0"})
        assert not validate_entry({**_entry(), "model_revision": "1"})
        entry = _entry()
        del entry["result"]
        assert not validate_entry(entry)

    def test_revision_pinning(self):
        assert validate_entry(_entry(), model_revision=MODEL_REVISION)
        assert not validate_entry(_entry(), model_revision=MODEL_REVISION + 1)

    def test_entry_key(self):
        assert entry_key(_entry(fp="ef" * 8, rep=2)) == ("ef" * 8, "fluid", 2)


class TestMemoryTier:
    def test_store_then_hit(self):
        tier = MemoryTier()
        entry = _entry()
        tier.store_entry(entry)
        got = tier.lookup(_fake_spec(entry["fingerprint"]), 0)
        assert got == entry
        assert tier.lookup(_fake_spec(entry["fingerprint"]), 1) is None

    def test_malformed_silently_rejected(self):
        tier = MemoryTier()
        tier.store_entry({**_entry(), "schema": 99})
        tier.store_entry({**_entry(), "model_revision": MODEL_REVISION + 1})
        assert len(tier) == 0

    def test_lru_eviction_by_count(self):
        tier = MemoryTier(max_entries=2)
        a, b, c = (_entry(rep=r) for r in range(3))
        tier.store_entry(a)
        tier.store_entry(b)
        # Touch a: it becomes most-recent, so admitting c evicts b.
        assert tier.lookup(_fake_spec(a["fingerprint"]), 0) is not None
        tier.store_entry(c)
        assert tier.lookup(_fake_spec(a["fingerprint"]), 0) is not None
        assert tier.lookup(_fake_spec(b["fingerprint"]), 1) is None
        assert tier.lookup(_fake_spec(c["fingerprint"]), 2) is not None

    def test_byte_budget_eviction(self):
        one = len(json.dumps(_entry(pad=100), separators=(",", ":")))
        tier = MemoryTier(max_bytes=2 * one + 1)
        for rep in range(3):
            tier.store_entry(_entry(rep=rep, pad=100))
        assert len(tier) == 2
        assert tier.stats()["bytes"] <= 2 * one + 1

    def test_gc_dry_run_predicts_real_pass(self):
        tier = MemoryTier()
        for rep in range(4):
            tier.store_entry(_entry(rep=rep, pad=50))
        predicted = tier.gc(0, dry_run=True)
        assert len(tier) == 4  # dry run deleted nothing
        actual = tier.gc(0)
        assert (predicted["evicted"], predicted["freed_bytes"]) == (
            actual["evicted"],
            actual["freed_bytes"],
        )
        assert len(tier) == 0

    def test_drop_and_clear(self):
        tier = MemoryTier()
        entry = _entry()
        tier.store_entry(entry)
        tier.drop(_fake_spec(entry["fingerprint"]), 0)
        assert len(tier) == 0 and tier.stats()["bytes"] == 0
        tier.store_entry(entry)
        tier.clear()
        assert len(tier) == 0 and tier.stats()["bytes"] == 0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            MemoryTier(max_entries=0)
        with pytest.raises(ConfigError):
            MemoryTier(max_bytes=0)


class TestDiskTier:
    def test_path_traversal_rejected(self, tmp_path):
        store = ResultCache(tmp_path)
        with pytest.raises(ConfigError):
            store.path_for_key("../../etc/passwd", "fluid", 0)
        with pytest.raises(ConfigError):
            store.path_for_key("ab" * 8, "../evil", 0)
        assert store.load_key("not hex!", "fluid", 0) is None

    def test_store_entry_then_load_key(self, tmp_path):
        store = ResultCache(tmp_path)
        entry = _entry()
        store.store_entry(entry)
        assert store.load_key(entry["fingerprint"], "fluid", 0) == entry
        assert store.load_key(entry["fingerprint"], "fluid", 1) is None

    def test_stored_bytes_are_the_entry_json(self, tmp_path):
        entry = _entry(pad=64)
        path = ResultCache(tmp_path).store_entry(entry)
        assert path.read_bytes() == json.dumps(entry).encode()

    def test_store_entry_is_atomic_without_fsync(self, tmp_path, monkeypatch):
        # An entry's only reader is a lookup, and a lost or torn entry
        # reads as a miss: nothing needs it to outlive a crash.
        fsyncs = []
        monkeypatch.setattr(os, "fsync", fsyncs.append)
        path = ResultCache(tmp_path).store_entry(_entry())
        assert fsyncs == []
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_malformed_entry_refused(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultCache(tmp_path).store_entry({**_entry(), "schema": 99})

    def test_touch_on_hit_refreshes_mtime(self, tmp_path):
        store = ResultCache(tmp_path)
        entry = _entry()
        path = store.store_entry(entry)
        os.utime(path, (1000.0, 1000.0))
        assert store.load_key(entry["fingerprint"], "fluid", 0) is not None
        assert path.stat().st_mtime > 1000.0

    def test_touch_on_hit_makes_gc_lru(self, tmp_path):
        store = ResultCache(tmp_path)
        old, hot = _entry(rep=0), _entry(rep=1)
        p_old = store.store_entry(old)
        p_hot = store.store_entry(hot)
        # Age both, then *hit* one: GC under pressure must evict the
        # untouched entry, not the recently-read one.
        os.utime(p_old, (1000.0, 1000.0))
        os.utime(p_hot, (1001.0, 1001.0))
        assert store.load_key(old["fingerprint"], "fluid", 0) is not None
        keep = p_old.stat().st_size + 1
        summary = store.gc(keep)
        assert summary["evicted"] == 1
        assert p_old.exists() and not p_hot.exists()

    def test_quarantine_on_corruption(self, tmp_path):
        seen: list = []
        store = ResultCache(tmp_path, on_corrupt=seen.append)
        entry = _entry()
        path = store.store_entry(entry)
        path.write_text("{not json")
        assert store.load_key(entry["fingerprint"], "fluid", 0) is None
        corrupt = path.with_name(path.name + ".corrupt")
        assert corrupt.exists() and not path.exists()
        assert seen == [path]
        stats = store.stats()
        assert stats["corrupt"] == 1 and stats["entries"] == 0
        # Quarantined files are still evictable.
        summary = store.gc(0)
        assert summary["evicted"] == 1 and not corrupt.exists()

    def test_header_mismatch_is_not_quarantined(self, tmp_path):
        seen: list = []
        store = ResultCache(tmp_path, on_corrupt=seen.append)
        entry = _entry()
        path = store.store_entry(entry)
        path.write_text(json.dumps({**entry, "model_revision": MODEL_REVISION + 1}))
        assert store.load_key(entry["fingerprint"], "fluid", 0) is None
        assert path.exists() and seen == []


class TestTieredCache:
    def test_store_populates_memory_and_disk(self, tmp_path):
        spec = _spec()
        svc = get_service()
        memory = MemoryTier()
        tiers = TieredCache(disk=ResultCache(tmp_path), memory=memory)
        cold = svc.run(spec, 0, cache=False)
        tiers.store(make_entry(spec, 0, cold, []))
        assert len(ResultCache(tmp_path)) == 1
        assert memory.lookup(spec, 0) is not None

    def test_disk_hit_promotes_into_memory(self, tmp_path):
        spec = _spec()
        svc = get_service()
        disk = ResultCache(tmp_path)
        TieredCache(disk=disk).store(make_entry(spec, 0, svc.run(spec, 0, cache=False), []))
        memory = MemoryTier()
        tiers = TieredCache(disk=disk, memory=memory)
        reset_tier_stats()
        entry = tiers.lookup(spec, 0)
        assert entry is not None
        assert memory.lookup(spec, 0) == entry
        stats = tier_stats()
        assert stats["memory"]["miss"] == 1 and stats["disk"]["hit"] == 1
        # Second probe answers from memory without touching disk.
        reset_tier_stats()
        assert tiers.lookup(spec, 0) == entry
        stats = tier_stats()
        assert stats["memory"]["hit"] == 1 and stats["disk"]["hit"] == 0

    def test_lookup_many_mixed_tiers(self, tmp_path):
        spec = _spec()
        svc = get_service()
        disk = ResultCache(tmp_path)
        memory = MemoryTier()
        tiers = TieredCache(disk=disk, memory=memory)
        for rep in range(2):
            tiers.store(make_entry(spec, rep, svc.run(spec, rep, cache=False), []))
        memory.drop(spec, 1)  # rep 1 now answers from disk, rep 2 misses
        hits = tiers.lookup_many([(spec, 0), (spec, 1), (spec, 2)])
        keys = {(spec.fingerprint, spec.engine, r) for r in (0, 1)}
        assert set(hits) == keys
        assert memory.lookup(spec, 1) is not None  # promoted back

    def test_hit_replays_byte_identical(self, tmp_path):
        spec = _spec()
        svc = get_service()
        tiers = TieredCache(disk=ResultCache(tmp_path), memory=MemoryTier())
        cold = svc.run(spec, 0, cache=False)
        tiers.store(make_entry(spec, 0, cold, []))
        from repro.engine.result import result_from_jsonable, result_to_jsonable

        # The codec-normalized cold result is what a cached run returns.
        cold = result_from_jsonable(result_to_jsonable(cold))
        warm = result_from_jsonable(tiers.lookup(spec, 0)["result"])
        assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_gc_routing(self, tmp_path):
        tiers = TieredCache(disk=ResultCache(tmp_path), memory=MemoryTier())
        assert tiers.gc(0, tier="disk")["evicted"] == 0
        assert tiers.gc(0, tier="memory")["evicted"] == 0
        with pytest.raises(ConfigError):
            tiers.gc(0, tier="tape")

    def test_stats_names_every_tier(self, tmp_path):
        tiers = TieredCache(disk=ResultCache(tmp_path), memory=MemoryTier())
        stats = tiers.stats()
        assert set(stats) == {"memory", "disk"}
        assert "entries" in stats["disk"] and "hit" in stats["disk"]
