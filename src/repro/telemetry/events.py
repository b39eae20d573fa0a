"""The structured event taxonomy and its JSONL schema.

Every event is a flat JSON object sharing the same envelope:

=============  ================================================================
field          meaning
=============  ================================================================
``schema``     integer schema version (currently :data:`SCHEMA_VERSION`)
``seq``        per-stream monotone sequence number (0-based)
``event``      the event type, one of :data:`EVENT_TYPES`
``t``          *simulated* time in seconds when the event has one, else null.
               For protocol-level events (``run.*``, ``checkpoint.write``)
               this is the campaign's simulated wall clock; for engine-level
               events (``flow.*``, ``fault.*``, ``segment.solve``) it is the
               run-internal simulation time.  Real wall-clock timestamps are
               deliberately absent so event streams are deterministic and
               replayable byte for byte.
=============  ================================================================

plus the per-type payload fields listed in :data:`EVENT_TYPES`.  The
taxonomy is closed: an unknown ``event`` value fails validation, which
is how CI proves that the emitting code and this published schema never
drift apart (see ``repro tail --validate``).

Event levels: most events are ``info``; high-cardinality per-segment and
per-flow-admission events (``segment.solve``, ``flow.start``) are
``debug`` and only emitted when the bus runs at debug level, keeping the
default stream compact even for 100-repetition campaigns.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from ..errors import TelemetryError

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "DEBUG_EVENTS",
    "ENVELOPE_FIELDS",
    "validate_event",
    "validate_jsonl",
]

SCHEMA_VERSION = 1

# Envelope fields present on every event.  ``t`` is nullable.
ENVELOPE_FIELDS: dict[str, tuple[type, ...]] = {
    "schema": (int,),
    "seq": (int,),
    "event": (str,),
    "t": (int, float, type(None)),
}

# Per-type payload: field name -> accepted JSON types.  A ``type(None)``
# entry marks the field nullable; fields listed here are required.
# Optional fields live in _OPTIONAL_FIELDS below.
EVENT_TYPES: dict[str, dict[str, tuple[type, ...]]] = {
    # -- protocol-level (simulated campaign wall clock) ----------------------
    "run.start": {
        "exp_id": (str,),
        "scenario": (str,),
        "spec": (str,),
        "rep": (int,),
        "block": (int,),
    },
    "run.end": {
        "exp_id": (str,),
        "scenario": (str,),
        "spec": (str,),
        "rep": (int,),
        "block": (int,),
        "status": (str,),  # "ok" | "failed" | "quarantined"
        "bw_mib_s": (int, float, type(None)),
        "makespan_s": (int, float, type(None)),
        "retries": (int,),
        "complete": (bool,),
        "error_type": (str, type(None)),
    },
    "checkpoint.write": {
        "path": (str,),
        "records": (int,),
        "failures": (int,),
    },
    # One pair per run executed by a parallel-campaign worker, emitted by
    # the parent at merge time: the (spec, rep, seed) triple attributes
    # the run, ``elapsed_s`` is the worker's real execution time (the
    # one deliberate exception to the no-wall-clock rule: it measures
    # the machine, not the simulation, and ``t`` stays null).
    "worker.start": {
        "worker": (int,),
        "spec": (str,),
        "rep": (int,),
        "seed": (int,),
    },
    "worker.end": {
        "worker": (int,),
        "spec": (str,),
        "rep": (int,),
        "seed": (int,),
        "status": (str,),  # "ok" | "failed" | "quarantined"
        "elapsed_s": (int, float, type(None)),
    },
    # -- orchestration (durable queue, supervision, graceful degradation) ----
    # Liveness signal from a supervised worker process (debug level:
    # several per second per worker).
    "worker.heartbeat": {"pid": (int,)},
    # A (spec, rep) run handed to a worker (debug level).
    "orchestrator.dispatch": {
        "spec": (str,),
        "rep": (int,),
        "attempt": (int,),
        "worker": (int,),
    },
    # A chunk of runs shipped to one worker in a single message (debug
    # level): ``size`` runs, ``specs`` distinct spec payloads after
    # per-batch dedup.
    "orchestrator.batch": {
        "batch": (int,),
        "size": (int,),
        "specs": (int,),
    },
    # An infra fault (dead/hung/stalled worker) sent a run back to the
    # queue with a backoff delay.
    "orchestrator.requeue": {
        "spec": (str,),
        "rep": (int,),
        "attempt": (int,),
        "reason": (str,),  # "worker-died" | "timeout" | "stalled"
        "delay_s": (int, float),
    },
    # Retry budget exhausted: the run becomes a structured failure under
    # the normal on_error policy.
    "orchestrator.quarantine": {
        "spec": (str,),
        "rep": (int,),
        "attempts": (int,),
        "reason": (str,),
    },
    # A journaled lease from a dead or expired owner was reclaimed on open.
    "orchestrator.reclaim": {
        "key": (str,),
        "rep": (int,),
        "owner": (str, type(None)),
    },
    # SIGINT/SIGTERM received: dispatch stops, in-flight work drains.
    "orchestrator.drain": {
        "signal": (str,),
        "pending": (int,),
        "inflight": (int,),
    },
    # Cache-tier circuit breaker changed state.
    "orchestrator.breaker": {
        "state": (str,),  # "closed" | "open" | "half-open"
        "failures": (int,),
    },
    # A checkpoint could not be parsed; the campaign degrades to a fresh
    # store (runs re-execute) instead of raising.
    "checkpoint.corrupt": {"path": (str,), "error": (str,)},
    # Size-bounded cache eviction pass (repro cache gc).
    "cache.gc": {
        "evicted": (int,),
        "freed_bytes": (int,),
        "remaining_bytes": (int,),
    },
    # A cache tier degraded or faulted during a tiered lookup/store
    # (emitted outside the capture ring, so cached event streams never
    # carry it).  Routine hits/misses are counters, not events.
    "cache.tier": {
        "tier": (str,),  # "remote" (disk faults strike the service breaker)
        "status": (str,),  # "error" | "degraded"
    },
    # -- networked orchestrator server ---------------------------------------
    # The server began accepting connections on its port.
    "server.start": {"port": (int,), "pid": (int,), "state_dir": (str,)},
    # A new (fingerprint, rep) job was admitted into the durable queue.
    # Emitted exactly once per unique job — duplicate resubmissions of
    # the same identity attach to the existing job instead (this is the
    # counter the idempotency contract is verified against).
    "server.admit": {
        "job": (str,),
        "rep": (int,),
        "priority": (str,),
        "session": (str,),
    },
    # Admission control refused a submit: the client got a RetryAfter.
    "server.shed": {
        "reason": (str,),  # "capacity" | "draining"
        "priority": (str,),
        "retry_after_s": (int, float),
        "pending": (int,),
    },
    # A job reached a terminal state; ``cached`` marks replays that
    # never executed (idempotent resubmission of finished work).
    "server.complete": {
        "job": (str,),
        "rep": (int,),
        "status": (str,),  # "ok" | "failed"
        "cached": (bool,),
    },
    # Client session lifecycle (leases journaled through the WAL).
    "server.session": {
        "action": (str,),  # "open" | "renew" | "close" | "expire" | "resume"
        "session": (str,),
    },
    # The server stopped admitting and is finishing leased jobs.
    "server.drain": {
        "reason": (str,),  # "SIGTERM" | "SIGINT" | "shutdown"
        "pending": (int,),
    },
    # A worker leased a queued job; ``queue_wait_s`` is the real time it
    # sat admitted-but-unleased (machine time, ``t`` stays null — the
    # same deliberate exception as ``worker.end.elapsed_s``).
    "server.lease": {
        "job": (str,),
        "rep": (int,),
        "queue_wait_s": (int, float, type(None)),
    },
    # Periodic SLO evaluation over the server's sliding window: queue
    # wait p99 vs target, shed rate vs budget, cache hit ratio vs floor,
    # and the combined burn rate (1.0 = exactly on budget).
    "server.slo": {
        "window": (int,),
        "queue_wait_p99_s": (int, float, type(None)),
        "shed_rate": (int, float),
        "hit_ratio": (int, float, type(None)),
        "burn_rate": (int, float),
        "ok": (bool,),
    },
    # -- remote client -------------------------------------------------------
    # A job entered the distributed pipeline: the client (or local
    # runner) minted its trace context and is about to submit.  Only
    # emitted when the session runs with tracing enabled.
    "job.submit": {"job": (str,), "rep": (int,), "attempt": (int,)},
    # A client op failed transiently and will be retried after a delay.
    "client.retry": {
        "op": (str,),
        "attempt": (int,),
        "delay_s": (int, float),
        "reason": (str,),
    },
    # The server stayed unreachable: the run executed locally instead.
    "client.fallback": {"job": (str,), "rep": (int,), "reason": (str,)},
    # -- chaos harness -------------------------------------------------------
    "chaos.inject": {"kind": (str,), "target": (str,)},
    "chaos.verdict": {"kind": (str,), "ok": (bool,), "detail": (str,)},
    # -- engine-level (run-internal simulation time) -------------------------
    "flow.start": {"flow_id": (str,)},
    "flow.retry": {"flow_id": (str,), "attempt": (int,)},
    "flow.abandon": {"flow_id": (str,), "attempt": (int,)},
    "fault.trigger": {
        "kind": (str,),
        "component": (str,),
        "multiplier": (int, float),
    },
    "fault.clear": {"kind": (str,), "component": (str,)},
    "segment.solve": {
        "dt": (int, float),
        "active": (int,),
        "iterations": (int,),
    },
    "invariant.check": {
        "context": (str,),
        "level": (str,),
        "segments": (int,),
        "ok": (bool,),
    },
    # -- session-level -------------------------------------------------------
    # A span boundary marker emitted by tracing-enabled sessions:
    # ``name`` is one of the stable span names (repro.telemetry.trace),
    # ``phase`` is "begin" or "end"; optional ``elapsed_s`` (machine
    # time, ``t`` null) and ``status`` (e.g. cache "hit"/"miss") ride
    # on the "end" marker.
    "trace.span": {"name": (str,), "phase": (str,)},
    "metrics.snapshot": {"metrics": (dict,)},
}

# Events only emitted when the bus runs at debug level.
DEBUG_EVENTS = frozenset(
    {
        "flow.start",
        "segment.solve",
        "worker.heartbeat",
        "orchestrator.dispatch",
        "orchestrator.batch",
    }
)

# Optional per-type payload fields (validated when present).
_OPTIONAL_FIELDS: dict[str, dict[str, tuple[type, ...]]] = {
    "run.end": {"servers": (dict,)},
    # The batch id a dispatched run travelled in (batched dispatch).
    "orchestrator.dispatch": {"batch": (int,)},
    "invariant.check": {"detail": (str,)},
    "segment.solve": {"binding": (list,)},
    # Real execution time of the job on its worker (tracing sessions
    # only; machine time, ``t`` null — the worker.end precedent).
    "server.complete": {"elapsed_s": (int, float, type(None))},
    "trace.span": {
        "elapsed_s": (int, float, type(None)),
        "status": (str,),
    },
    # Which tier's breaker transitioned (absent: the disk tier of
    # record, the pre-tiering emitter) / which tier was collected.
    "orchestrator.breaker": {"tier": (str,)},
    "cache.gc": {"tier": (str,)},
}

# Optional fields accepted on *every* event type: ``worker`` tags an
# event re-emitted from a parallel-campaign worker with its dense id;
# ``trace``/``span``/``parent`` are the deterministic distributed-trace
# ids (repro.telemetry.trace) stamped by tracing-enabled sessions —
# sha256-derived from the job identity, never random, so identical
# campaigns stamp identical ids and the schema stays diff-stable.
_COMMON_OPTIONAL: dict[str, tuple[type, ...]] = {
    "worker": (int,),
    "trace": (str,),
    "span": (str,),
    "parent": (str, type(None)),
}

_STATUS_VALUES = ("ok", "failed", "quarantined")


def _type_names(types: tuple[type, ...]) -> str:
    return "/".join("null" if t is type(None) else t.__name__ for t in types)


def validate_event(obj: Any) -> list[str]:
    """Validate one decoded event against the schema; return the problems.

    An empty list means the event is schema-valid.  Booleans are *not*
    accepted where numbers are expected (JSON distinguishes them; so do
    we).
    """
    if not isinstance(obj, Mapping):
        return [f"event must be a JSON object, got {type(obj).__name__}"]
    problems: list[str] = []

    def check(field: str, types: tuple[type, ...], required: bool) -> None:
        if field not in obj:
            if required:
                problems.append(f"missing field {field!r}")
            return
        value = obj[field]
        # bool is a subclass of int: accept it only where bool is listed.
        if isinstance(value, bool) and bool not in types:
            problems.append(f"field {field!r}: expected {_type_names(types)}, got bool")
            return
        if not isinstance(value, types):
            problems.append(
                f"field {field!r}: expected {_type_names(types)}, "
                f"got {type(value).__name__}"
            )

    for field, types in ENVELOPE_FIELDS.items():
        check(field, types, required=True)
    if problems:
        return problems

    if obj["schema"] != SCHEMA_VERSION:
        problems.append(f"unsupported schema version {obj['schema']!r}")
    etype = obj["event"]
    payload_spec = EVENT_TYPES.get(etype)
    if payload_spec is None:
        problems.append(f"unknown event type {etype!r}")
        return problems
    for field, types in payload_spec.items():
        check(field, types, required=True)
    for field, types in _OPTIONAL_FIELDS.get(etype, {}).items():
        check(field, types, required=False)
    for field, types in _COMMON_OPTIONAL.items():
        if field not in payload_spec:
            check(field, types, required=False)
    known = (
        set(ENVELOPE_FIELDS)
        | set(payload_spec)
        | set(_OPTIONAL_FIELDS.get(etype, {}))
        | set(_COMMON_OPTIONAL)
    )
    extra = sorted(set(obj) - known)
    if extra:
        problems.append(f"unknown fields for {etype!r}: {', '.join(extra)}")
    if etype in ("run.end", "worker.end") and obj.get("status") not in _STATUS_VALUES:
        problems.append(f"{etype} status must be one of {_STATUS_VALUES}")
    return problems


def validate_jsonl(path: str | Path) -> list[str]:
    """Validate every line of a JSONL event stream.

    Returns one ``"line N: problem"`` string per defect; empty means the
    whole stream is schema-valid.  An unreadable file raises
    :class:`~repro.errors.TelemetryError`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TelemetryError(f"cannot read event stream {path}: {exc}") from exc
    problems: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {lineno}: not valid JSON ({exc})")
            continue
        for problem in validate_event(obj):
            problems.append(f"line {lineno}: {problem}")
    return problems
