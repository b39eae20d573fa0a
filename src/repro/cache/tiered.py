"""The tier composite: disk → remote, back-fill and degradation.

Lookup probes the disk tier, then the remote tier when one is
configured; a remote hit back-fills the local disk on the way out.
Stores write the disk tier **first** — an ``OSError`` there propagates
to the service's breaker/tally accounting — and only then enqueue the
write-behind remote put.

Degradation is per tier:

* the **disk** tier's breaker is owned by the service: while it is
  open the service runs cache-off entirely, so the composite never
  sees a lookup — an unreadable disk tier means results cannot be
  stored, and serving remote hits anyway would diverge the tallies
  chaos asserts on;
* the **remote** tier has its own breaker, owned here: a transport
  fault counts one ``error`` probe, strikes the breaker, and the lookup
  degrades to a local miss.  While open, probes are skipped
  (``degraded``) until the cooldown's half-open probe.  Remote faults
  never propagate.

The module-level :func:`tier_stats` tally counts per-tier *probes*
(hit / miss / error / degraded) — diagnostic, per-process, and distinct
from the authoritative per-run ``service.cache`` tally that cold/warm
equivalence is asserted against.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..orchestrator.supervise import CircuitBreaker
from ..scenario import ScenarioSpec
from ..telemetry.bus import get_bus
from .disk import ResultCache
from .remote import RemoteTier
from .tier import EntryKey

__all__ = ["TieredCache", "tier_stats", "reset_tier_stats"]

_TIER_NAMES = ("disk", "remote")
_TALLY_KEYS = ("hit", "miss", "error", "degraded")

_TIER_STATS: dict[str, dict[str, int]] = {
    tier: {key: 0 for key in _TALLY_KEYS} for tier in _TIER_NAMES
}


def tier_stats() -> dict[str, dict[str, int]]:
    """Per-tier probe tallies for this process (see module doc)."""
    return {tier: dict(counts) for tier, counts in _TIER_STATS.items()}


def reset_tier_stats() -> None:
    for counts in _TIER_STATS.values():
        for key in counts:
            counts[key] = 0


def _tick(tier: str, status: str) -> None:
    _TIER_STATS[tier][status] = _TIER_STATS[tier].get(status, 0) + 1
    get_bus().metrics.counter("service.cache.tier", tier=tier, status=status).inc()


class TieredCache:
    """One composed view over (disk, remote) for one cache root.

    Cheap to construct per call: the remote tier and its breaker are
    persistent, service-owned state; this object only binds them to a
    fresh ``ResultCache`` for the root.
    """

    def __init__(
        self,
        disk: ResultCache,
        remote: RemoteTier | None = None,
        remote_breaker: CircuitBreaker | None = None,
    ):
        self.disk = disk
        self.remote = remote
        self.remote_breaker = remote_breaker or CircuitBreaker()

    # -- degradation plumbing ----------------------------------------------

    def _emit_tier(self, bus: Any, status: str) -> None:
        if bus.enabled:
            bus.emit("cache.tier", tier="remote", status=status)

    def _drain_remote_breaker(self, bus: Any) -> None:
        for state, failures in self.remote_breaker.drain_transitions():
            if bus.enabled:
                bus.emit(
                    "orchestrator.breaker",
                    state=state,
                    failures=failures,
                    tier="remote",
                )

    def _remote_fault(self, bus: Any) -> None:
        _tick("remote", "error")
        self.remote_breaker.record_failure()
        self._emit_tier(bus, "error")
        self._drain_remote_breaker(bus)

    def _backfill_disk(self, entry: Mapping[str, Any]) -> None:
        """Write a remote hit to the local disk tier (best effort).

        A failing local disk during a remote *read* must not lose the
        run — the entry is still served; the next per-run disk probe
        will surface the disk fault to the service's breaker.
        """
        try:
            self.disk.store_entry(entry)
        except OSError:
            pass

    # -- the tier walk -----------------------------------------------------

    def lookup(self, spec: ScenarioSpec, rep: int) -> dict[str, Any] | None:
        """The entry for (spec, rep) from the disk tier, else the remote one.

        Disk ``OSError`` propagates (the service counts it and strikes
        its breaker, unchanged).  Remote faults degrade to a miss.
        """
        entry = self.disk.load(spec, rep)
        if entry is not None:
            _tick("disk", "hit")
            return entry
        _tick("disk", "miss")

        if self.remote is None:
            return None
        bus = get_bus()
        if not self.remote_breaker.allow():
            _tick("remote", "degraded")
            self._emit_tier(bus, "degraded")
            return None
        try:
            entry = self.remote.lookup(spec, rep)
        except OSError:
            self._remote_fault(bus)
            return None
        self.remote_breaker.record_success()
        self._drain_remote_breaker(bus)
        if entry is None:
            _tick("remote", "miss")
            return None
        _tick("remote", "hit")
        self._backfill_disk(entry)
        return entry

    def lookup_many(
        self, jobs: "list[tuple[ScenarioSpec, int]]"
    ) -> dict[EntryKey, dict[str, Any]]:
        """Bulk lookup across the tiers (the prefetch path).

        The disk tier's one-scandir-per-fingerprint bulk pass answers
        first; what is still missing is fetched from the remote tier in
        batched frames and back-filled.  I/O errors leave jobs as
        misses — authoritative breaker/tally accounting stays per-run.
        """
        pending = [(spec, int(rep)) for spec, rep in jobs]
        if not pending:
            return {}
        out = self.disk.load_many(pending)
        for _ in out:
            _tick("disk", "hit")
        pending = [
            (spec, rep)
            for spec, rep in pending
            if (spec.fingerprint, spec.engine, rep) not in out
        ]
        if pending and self.remote is not None:
            bus = get_bus()
            if not self.remote_breaker.allow():
                _tick("remote", "degraded")
                self._emit_tier(bus, "degraded")
                return out
            try:
                hits = self.remote.lookup_many(pending)
            except OSError:
                self._remote_fault(bus)
                return out
            self.remote_breaker.record_success()
            self._drain_remote_breaker(bus)
            for key, entry in hits.items():
                _tick("remote", "hit")
                out[key] = entry
                self._backfill_disk(entry)
        return out

    # -- stores ------------------------------------------------------------

    def store(self, entry: Mapping[str, Any]) -> None:
        """Write one finished run's entry (see :func:`make_entry`) through every tier.

        Disk first (``OSError`` propagates — the caller's breaker
        accounting is the contract); only an entry the disk tier
        accepted is shipped to the remote one.
        """
        self.disk.store_entry(entry)
        if self.remote is not None:
            if self.remote_breaker.allow():
                self.remote.store_entry(entry)
            else:
                _tick("remote", "degraded")
                self._emit_tier(get_bus(), "degraded")

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, dict[str, Any]]:
        """Per-tier occupancy + this process's probe tallies."""
        tallies = tier_stats()
        out = {"disk": {**self.disk.stats(), **tallies["disk"]}}
        if self.remote is not None:
            out["remote"] = {**self.remote.stats(), **tallies["remote"]}
        return out
