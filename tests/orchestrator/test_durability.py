"""Durability proportional to the work it protects.

Two writes lost their fsyncs because no reader needs what they
protected:

* a checkpoint is written after every ``checkpoint_every`` *executed*
  runs plus a final one — prefetched cache hits do not count, since a
  resume re-serves them from the cache;
* a cache entry is written atomically but not fsync'd — a torn, empty,
  zero-filled or missing entry reads as a (quarantined) miss, and the
  miss re-executes to the same bytes.
"""

import pytest

from repro.cache import ResultCache
from repro.methodology.runner import ProtocolRunner
from repro.service import cache_stats, get_service, reset_cache_stats
from repro.telemetry.bus import RingBufferSink, get_bus

from tests.methodology.test_parallel import store_bytes
from tests.orchestrator.test_campaign_journal import (
    executor,
    make_runner,
    small_campaign,
    warm,
)


def checkpointed_run(runner, plan):
    """Run ``plan``; returns how many ``checkpoint.write`` events it emitted."""
    sink = RingBufferSink(65536)
    bus = get_bus()
    bus.attach(sink)
    try:
        runner.run(plan)
    finally:
        bus.detach(sink)
    return len(sink.select("checkpoint.write"))


def cold_checkpoint(plan, scenarios, tmp_path):
    """The checkpoint bytes of a cache-off campaign."""
    path = tmp_path / "cold.json"
    ProtocolRunner(executor(scenarios), checkpoint_path=path).run(plan)
    return path.read_bytes()


@pytest.mark.parametrize("workers", [1, 4])
class TestCheckpointCadence:
    def test_all_hit_campaign_writes_one_checkpoint(self, tmp_path, workers):
        plan, scenarios = small_campaign()
        expected = cold_checkpoint(plan, scenarios, tmp_path)
        cache = tmp_path / "cache"
        warm(plan, scenarios, cache, reps=range(plan.protocol.repetitions))
        ckpt = tmp_path / "warm.json"
        runner = make_runner(
            workers, executor(scenarios, cache), checkpoint_path=ckpt, checkpoint_every=1
        )
        assert checkpointed_run(runner, plan) == 1
        assert ckpt.read_bytes() == expected

    def test_half_warm_campaign_checkpoints_per_executed_run(self, tmp_path, workers):
        plan, scenarios = small_campaign()
        expected = cold_checkpoint(plan, scenarios, tmp_path)
        cache = tmp_path / "cache"
        hits = warm(plan, scenarios, cache, reps={0, 2})
        ckpt = tmp_path / "warm.json"
        runner = make_runner(
            workers, executor(scenarios, cache), checkpoint_path=ckpt, checkpoint_every=1
        )
        assert checkpointed_run(runner, plan) == plan.num_runs - len(hits) + 1
        assert ckpt.read_bytes() == expected


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _zero_fill(path):
    path.write_bytes(b"\0" * path.stat().st_size)


def _empty(path):
    path.write_bytes(b"")


def _remove(path):
    path.unlink()


# Damage a crash can leave on an entry that was never fsync'd.
DAMAGE = {
    "truncated": _truncate,
    "zero-filled": _zero_fill,
    "emptied": _empty,
    "removed": _remove,
}


@pytest.mark.parametrize("workers", [1, 2])
def test_damaged_entries_are_misses_that_rewrite_the_same_bytes(tmp_path, workers):
    plan, scenarios = small_campaign()
    expected = store_bytes(ProtocolRunner(executor(scenarios)).run(plan), tmp_path, "cold")
    cache = tmp_path / "cache"
    jobs = sorted(warm(plan, scenarios, cache, reps=range(plan.protocol.repetitions)))
    disk = ResultCache(cache)
    damaged = {}
    for (key, rep), (kind, damage) in zip(jobs, DAMAGE.items()):
        path = disk.path_for(scenarios[key], rep)
        damaged[kind] = (path, path.read_bytes())
        damage(path)
    # A fresh process: nothing hot, every lookup reads the disk.
    get_service().drop_memory_tiers(cache)
    reset_cache_stats()
    store = make_runner(workers, executor(scenarios, cache)).run(plan)
    assert store_bytes(store, tmp_path, "warm") == expected
    stats = cache_stats()
    assert stats["miss"] == len(DAMAGE)
    assert stats["hit"] == plan.num_runs - len(DAMAGE)
    assert stats["corrupt"] == len(DAMAGE) - 1
    for kind, (path, original) in damaged.items():
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists() == (kind != "removed"), kind
        # The miss re-executed and stored the very same entry again.
        assert path.read_bytes() == original, kind
