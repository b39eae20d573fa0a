"""The tiered result-cache subsystem: disk / remote behind one interface.

Results of ``(scenario, rep)`` simulations are fully content-addressed
— the key is ``(spec fingerprint, model revision, engine, rep)`` — so a
cache entry computed anywhere is valid everywhere.  This package layers
two stores of that key space, each answering ``lookup / lookup_many /
store_entry / stats``:

* :class:`ResultCache` — the on-disk store: atomic writes,
  size-bounded GC (``repro cache gc``), corrupt-entry quarantine.  Entries
  are written here first and only then shipped to the remote tier.
  They are not fsync'd: any damage a crash leaves reads as a
  quarantined miss, which re-executes to the same bytes;
* :class:`RemoteTier` — read-through / write-behind against a ``repro
  serve`` instance over ``cache-get`` / ``cache-put`` frames, so one
  server's disk tier becomes a team's shared warm tier.

:class:`TieredCache` composes them: the disk tier answers first, a
remote hit back-fills the local disk, and a miss's eventual result is
written to disk and pushed to the remote.  Remote failures trip a
dedicated :class:`~repro.orchestrator.supervise.CircuitBreaker` and
degrade to the disk tier — a cache problem never fails a run.

The composite is deliberately *accounting-free* at the run level: the
authoritative ``service.cache`` hit/miss tally stays in
:mod:`repro.service`, one count per run, so cold and warm campaigns
keep exact tally parity no matter which tier served a hit.  Per-tier
probe tallies live here (:func:`tier_stats`) and feed ``repro cache
stats`` and the ``service.cache.tier`` counter.
"""

from __future__ import annotations

from .disk import ResultCache
from .remote import RemoteTier
from .tier import CACHE_SCHEMA, entry_key, make_entry, validate_entry
from .tiered import TieredCache, reset_tier_stats, tier_stats

__all__ = [
    "CACHE_SCHEMA",
    "RemoteTier",
    "ResultCache",
    "TieredCache",
    "entry_key",
    "make_entry",
    "reset_tier_stats",
    "tier_stats",
    "validate_entry",
]
