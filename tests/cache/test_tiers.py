"""The tiered cache subsystem: tiers in isolation and the composite.

The contract under test: every tier speaks whole validated entries;
the disk tier quarantines corruption and touches mtime on hits so GC
is true LRU; the composite probes disk before the remote tier,
back-fills the disk with remote hits, and only ships entries the disk
tier has accepted.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cache import (
    CACHE_SCHEMA,
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


class _DiskBackedRemote:
    """A remote tier stand-in over a second disk root (no server)."""

    def __init__(self, root):
        self.store = ResultCache(root)

    def lookup(self, spec, rep):
        return self.store.load(spec, rep)

    def lookup_many(self, jobs):
        return self.store.load_many(jobs)

    def store_entry(self, entry):
        self.store.store_entry(entry)

    def stats(self):
        return {"address": "stand-in"}


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
    def test_lookup_many_mixed_tiers(self, tmp_path):
        spec = _spec()
        svc = get_service()
        disk = ResultCache(tmp_path / "local")
        tiers = TieredCache(disk=disk, remote=_DiskBackedRemote(tmp_path / "remote"))
        for rep in range(2):
            tiers.store(make_entry(spec, rep, svc.run(spec, rep, cache=False), []))
        disk.path_for(spec, 1).unlink()  # rep 1 now answers from the remote, rep 2 misses
        reset_tier_stats()
        hits = tiers.lookup_many([(spec, 0), (spec, 1), (spec, 2)])
        keys = [(spec.fingerprint, spec.engine, r) for r in (0, 1)]
        assert set(hits) == set(keys)
        stats = tier_stats()
        assert stats["disk"]["hit"] == 1 and stats["remote"]["hit"] == 1
        assert disk.load(spec, 1) == hits[keys[1]]  # back-filled

    def test_hit_replays_byte_identical(self, tmp_path):
        from repro.engine.result import result_from_jsonable, result_to_jsonable

        spec = _spec()
        svc = get_service()
        remote = _DiskBackedRemote(tmp_path / "remote")
        tiers = TieredCache(disk=ResultCache(tmp_path / "local"), remote=remote)
        cold = svc.run(spec, 0, cache=False)
        tiers.store(make_entry(spec, 0, cold, []))
        # The codec-normalized cold result is what a cached run returns,
        # from the disk tier and from the remote tier alike.
        cold = result_from_jsonable(result_to_jsonable(cold))
        from_remote = TieredCache(disk=ResultCache(tmp_path / "fresh"), remote=remote)
        for source in (tiers, from_remote):
            warm = result_from_jsonable(source.lookup(spec, 0)["result"])
            assert result_fingerprint(warm) == result_fingerprint(cold)

    def test_stats_names_every_tier(self, tmp_path):
        disk = ResultCache(tmp_path / "local")
        assert set(TieredCache(disk=disk).stats()) == {"disk"}
        remote = _DiskBackedRemote(tmp_path / "remote")
        stats = TieredCache(disk=disk, remote=remote).stats()
        assert set(stats) == {"disk", "remote"}
        assert "entries" in stats["disk"] and "hit" in stats["disk"]
        assert "address" in stats["remote"] and "hit" in stats["remote"]
