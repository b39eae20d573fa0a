"""The entry format every cache tier speaks.

A cache **entry** is a plain JSON-able dict, self-describing through
its header fields (``schema``, ``fingerprint``, ``model_revision``,
``engine``, ``rep``) with the full spec embedded, the codec-normalized
result, and the run's captured telemetry events.  Every tier stores and
returns whole entries, so a remote hit back-fills the local disk with a
byte-faithful copy and a fingerprint collision with a *different* spec
stays detectable no matter which tier served it.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from ..scenario import MODEL_REVISION, ScenarioSpec

__all__ = [
    "CACHE_SCHEMA",
    "EntryKey",
    "entry_key",
    "make_entry",
    "safe_fingerprint",
    "safe_token",
    "validate_entry",
]

CACHE_SCHEMA = 1

# A lookup key: (spec fingerprint, engine, rep).  The model revision is
# a process-wide constant and rides beside the key where it matters
# (wire frames, entry headers).
EntryKey = tuple[str, str, int]

# Fingerprints and engine names appear in file paths and wire frames;
# both are validated before they touch a filesystem so a hostile peer
# cannot traverse out of the cache root.
_FINGERPRINT_RE = re.compile(r"^[0-9a-f]{8,128}$")
_TOKEN_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def safe_fingerprint(value: Any) -> str | None:
    """``value`` as a path-safe fingerprint string, or ``None``."""
    if isinstance(value, str) and _FINGERPRINT_RE.match(value):
        return value
    return None


def safe_token(value: Any) -> str | None:
    """``value`` as a path-safe name token (engine), or ``None``."""
    if isinstance(value, str) and _TOKEN_RE.match(value):
        return value
    return None


def make_entry(
    spec: ScenarioSpec, rep: int, result: Any, events: list[dict[str, Any]]
) -> dict[str, Any]:
    """Build the canonical cache entry for one finished run.

    ``result`` is a :class:`~repro.engine.result.RunResult`; it is
    normalized through the exact JSON codec here, which is what makes a
    cold result and its later replay byte-identical.
    """
    from ..engine.result import result_to_jsonable

    return {
        "schema": CACHE_SCHEMA,
        "fingerprint": spec.fingerprint,
        "model_revision": MODEL_REVISION,
        "engine": spec.engine,
        "rep": int(rep),
        "spec": spec.to_jsonable(),
        "result": result_to_jsonable(result),
        "events": events,
    }


def entry_key(entry: Mapping[str, Any]) -> EntryKey:
    """The ``(fingerprint, engine, rep)`` key an entry stands for."""
    return (str(entry["fingerprint"]), str(entry["engine"]), int(entry["rep"]))


def validate_entry(
    entry: Any,
    *,
    fingerprint: str | None = None,
    engine: str | None = None,
    rep: int | None = None,
    model_revision: int | None = None,
) -> bool:
    """Is ``entry`` a well-formed cache entry (optionally for this key)?

    Header validation only — the embedded result is decoded lazily by
    the consumer.  Used on every tier boundary: a disk read, a disk
    write, a wire frame from a remote peer.
    """
    if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA:
        return False
    fp = safe_fingerprint(entry.get("fingerprint"))
    eng = safe_token(entry.get("engine"))
    if fp is None or eng is None:
        return False
    if not isinstance(entry.get("rep"), int) or isinstance(entry.get("rep"), bool):
        return False
    if not isinstance(entry.get("model_revision"), int):
        return False
    if "result" not in entry:
        return False
    if fingerprint is not None and fp != fingerprint:
        return False
    if engine is not None and eng != engine:
        return False
    if rep is not None and entry["rep"] != int(rep):
        return False
    wanted_rev = MODEL_REVISION if model_revision is None else int(model_revision)
    if entry["model_revision"] != wanted_rev:
        return False
    return True
