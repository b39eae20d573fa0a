"""The tiered result-cache subsystem: hot / disk / remote behind one interface.

Results of ``(scenario, rep)`` simulations are fully content-addressed
— the key is ``(spec fingerprint, model revision, engine, rep)`` — so a
cache entry computed anywhere is valid everywhere.  This package layers
three stores of that key space behind the small :class:`CacheTier`
interface (``lookup / lookup_many / store_entry / stats / gc``):

* :class:`MemoryTier` — a bounded in-process LRU holding *decoded*
  entry payloads with the index resident (the Haystack pattern): a hot
  hit is one dict lookup, no ``scandir``, no JSON decode;
* :class:`DiskTier` — the on-disk store (:class:`ResultCache`),
  atomic writes, size-bounded GC, corrupt-entry quarantine.  Entries
  are written here first and only then admitted to the other tiers.
  They are not fsync'd: any damage a crash leaves reads as a
  quarantined miss, which re-executes to the same bytes;
* :class:`RemoteTier` — read-through / write-behind against a ``repro
  serve`` instance over ``cache-get`` / ``cache-put`` frames, so one
  server's disk tier becomes a team's shared warm tier.

:class:`TieredCache` composes them (fast → slow): a hit in a slower
tier is promoted into the faster ones; a miss falls through and the
eventual result back-fills every tier.  Remote failures trip a
dedicated :class:`~repro.orchestrator.supervise.CircuitBreaker` and
degrade to the local tiers — a cache problem never fails a run.

The composite is deliberately *accounting-free* at the run level: the
authoritative ``service.cache`` hit/miss tally stays in
:mod:`repro.service`, one count per run, so cold and warm campaigns
keep exact tally parity no matter which tier served a hit.  Per-tier
probe tallies live here (:func:`tier_stats`) and feed ``repro cache
stats`` and the ``service.cache.tier`` counter.
"""

from __future__ import annotations

from .disk import DiskTier, ResultCache
from .memory import MemoryTier
from .remote import RemoteTier
from .tier import (
    CACHE_SCHEMA,
    CacheTier,
    entry_key,
    make_entry,
    validate_entry,
)
from .tiered import TieredCache, reset_tier_stats, tier_stats

__all__ = [
    "CACHE_SCHEMA",
    "CacheTier",
    "DiskTier",
    "MemoryTier",
    "RemoteTier",
    "ResultCache",
    "TieredCache",
    "entry_key",
    "make_entry",
    "reset_tier_stats",
    "tier_stats",
    "validate_entry",
]
