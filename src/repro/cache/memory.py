"""The in-process hot tier: a bounded LRU of decoded cache entries.

The index is resident (Haystack's metadata-in-memory pattern): a hit is
one ``OrderedDict`` lookup returning the already-decoded entry dict —
no ``scandir``, no ``open``, no JSON decode.  Entries are admitted on
store and on promotion from a slower tier, *after* the disk tier has
written them, so the hot tier never holds a result the disk tier
refused.

Bounded two ways: entry count and approximate resident bytes (the
JSON-encoded size, measured once at admission).  Eviction is true LRU —
every hit moves the entry to the back of the queue.

Thread-safe: the server's worker threads and the parallel runner's
parent share one tier per cache root.  Entries are handed out by
reference and must be treated as immutable (the replay path only
reads).
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Any, Mapping

from ..errors import ConfigError
from ..scenario import MODEL_REVISION, ScenarioSpec
from .tier import EntryKey, validate_entry

__all__ = ["MemoryTier"]

# Defaults: campaigns sweep hundreds of (spec, rep) pairs of tens of
# KiB each; 1024 entries / 256 MiB holds a full figure's worth of
# results while bounding a long-lived server's footprint.
_DEFAULT_MAX_ENTRIES = 1024
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


class MemoryTier:
    """A bounded, thread-safe LRU over decoded cache entries."""

    name = "memory"

    def __init__(
        self,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        max_bytes: int = _DEFAULT_MAX_BYTES,
    ):
        if max_entries < 1:
            raise ConfigError("memory tier max_entries must be >= 1")
        if max_bytes < 1:
            raise ConfigError("memory tier max_bytes must be >= 1")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        # key -> (entry, approx bytes); insertion order is recency order.
        self._entries: "OrderedDict[EntryKey, tuple[dict[str, Any], int]]" = (
            OrderedDict()
        )
        self._bytes = 0

    @staticmethod
    def _key(spec: ScenarioSpec, rep: int) -> EntryKey:
        return (spec.fingerprint, spec.engine, int(rep))

    def lookup(self, spec: ScenarioSpec, rep: int) -> dict[str, Any] | None:
        with self._lock:
            item = self._entries.get(self._key(spec, rep))
            if item is None:
                return None
            self._entries.move_to_end(self._key(spec, rep))
            return item[0]

    def lookup_many(
        self, jobs: "list[tuple[ScenarioSpec, int]]"
    ) -> dict[EntryKey, dict[str, Any]]:
        out: dict[EntryKey, dict[str, Any]] = {}
        with self._lock:
            for spec, rep in jobs:
                key = self._key(spec, rep)
                item = self._entries.get(key)
                if item is not None and key not in out:
                    self._entries.move_to_end(key)
                    out[key] = item[0]
        return out

    def store_entry(self, entry: Mapping[str, Any]) -> None:
        """Admit one entry (idempotent; silently rejects malformed ones).

        The current model revision is enforced at admission, so a key
        never aliases an entry computed by different simulator
        behaviour.
        """
        if not validate_entry(entry, model_revision=MODEL_REVISION):
            return
        key: EntryKey = (entry["fingerprint"], entry["engine"], int(entry["rep"]))
        size = len(json.dumps(entry, separators=(",", ":")))
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (dict(entry), size)
            self._bytes += size
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        while len(self._entries) > self.max_entries or (
            self._bytes > self.max_bytes and self._entries
        ):
            _, (_, size) = self._entries.popitem(last=False)
            self._bytes -= size

    def drop(self, spec: ScenarioSpec, rep: int) -> None:
        with self._lock:
            item = self._entries.pop(self._key(spec, rep), None)
            if item is not None:
                self._bytes -= item[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

    def gc(self, max_bytes: int, dry_run: bool = False) -> dict[str, int]:
        """Evict LRU-first until resident bytes fit ``max_bytes``."""
        if max_bytes < 0:
            raise ConfigError(f"max_bytes must be >= 0, got {max_bytes}")
        with self._lock:
            scanned = len(self._entries)
            total = self._bytes
            evicted = 0
            freed = 0
            if not dry_run:
                while self._bytes > max_bytes and self._entries:
                    _, (_, size) = self._entries.popitem(last=False)
                    self._bytes -= size
                    evicted += 1
                    freed += size
            else:
                running = total
                for _, size in self._entries.values():
                    if running <= max_bytes:
                        break
                    running -= size
                    evicted += 1
                    freed += size
            return {
                "scanned": scanned,
                "evicted": evicted,
                "freed_bytes": freed,
                "remaining_bytes": total - freed,
                "dry_run": bool(dry_run),
            }
