"""The structured event bus: one substrate for every emitter.

The bus is **process-wide but explicitly injectable**: library code
publishes through :func:`get_bus`, applications (the CLI, tests) attach
sinks for the duration of a :func:`session`, and nothing anywhere holds
a sink reference of its own.  With no sinks attached the bus is inert —
``bus.enabled`` is ``False`` and every instrumentation site is a single
attribute check, which is what keeps telemetry-off runs byte-identical
to (and as fast as) the uninstrumented engines.

Three sinks ship with the package:

* :class:`RingBufferSink` — the last N events in memory, for tests and
  interactive inspection;
* :class:`JsonlSink` — one schema-versioned JSON object per line,
  crash-tolerant (line-buffered append), the campaign archive format
  ``repro stats`` and ``repro tail`` consume;
* :class:`ConsoleSink` — human-readable one-liners on a stream.

Events are dicts built by :meth:`EventBus.emit` with the envelope of
:mod:`repro.telemetry.events`; sinks receive them already enveloped.
The bus also carries the session's
:class:`~repro.telemetry.metrics.MetricsRegistry` so emitters share one
metrics surface without extra plumbing.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Protocol, TextIO

from ..errors import TelemetryError
from .events import DEBUG_EVENTS, ENVELOPE_FIELDS, SCHEMA_VERSION
from .metrics import MetricsRegistry
from .trace import FlightRecorder, current_trace

__all__ = [
    "TelemetrySink",
    "RingBufferSink",
    "JsonlSink",
    "ConsoleSink",
    "EventBus",
    "RUN_RING_CAPACITY",
    "get_bus",
    "set_bus",
    "session",
    "format_event",
]

_LEVELS = ("info", "debug")

# Capacity of a ring capturing the engine events of one run, for later
# replay (cache entries, worker replies): debug level can emit one event
# per fluid segment.
RUN_RING_CAPACITY = 65536


class TelemetrySink(Protocol):
    """Anything that can receive emitted events."""

    def emit(self, event: dict[str, Any]) -> None:  # pragma: no cover
        ...

    def close(self) -> None:  # pragma: no cover
        ...


class RingBufferSink:
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise TelemetryError("ring buffer capacity must be >= 1")
        self._buffer: deque[dict[str, Any]] = deque(maxlen=capacity)

    def emit(self, event: dict[str, Any]) -> None:
        self._buffer.append(event)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def events(self) -> list[dict[str, Any]]:
        return list(self._buffer)

    def select(self, event_type: str) -> list[dict[str, Any]]:
        return [e for e in self._buffer if e.get("event") == event_type]


class JsonlSink:
    """Appends one JSON object per line to a file, line-buffered.

    Line buffering means a crashed campaign leaves a readable stream up
    to its last complete event — the JSONL analogue of the runner's
    atomic checkpoints.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._fh: TextIO | None = self.path.open("a", buffering=1)
        except OSError as exc:
            raise TelemetryError(f"cannot open event stream {self.path}: {exc}") from exc

    def emit(self, event: dict[str, Any]) -> None:
        if self._fh is None:
            raise TelemetryError(f"event stream {self.path} is closed")
        self._fh.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def format_event(event: dict[str, Any]) -> str:
    """One human-readable line per event (``repro tail``'s renderer)."""
    etype = str(event.get("event", "?"))
    t = event.get("t")
    clock = f"t={t:10.3f}s" if isinstance(t, (int, float)) else " " * 13
    payload = {
        k: v
        for k, v in event.items()
        if k not in ("schema", "seq", "event", "t", "servers", "metrics")
    }
    if etype == "run.end":
        bw = payload.pop("bw_mib_s", None)
        if isinstance(bw, (int, float)):
            payload["bw_mib_s"] = f"{bw:.1f}"
    body = " ".join(f"{k}={v}" for k, v in payload.items())
    if etype == "metrics.snapshot":
        body = f"{len(event.get('metrics', {}))} metrics"
    return f"{clock}  {etype:<16s} {body}"


class ConsoleSink:
    """Human-readable one-liners on a text stream (stderr by default)."""

    def __init__(self, stream: TextIO | None = None):
        self._stream = stream if stream is not None else sys.stderr

    def emit(self, event: dict[str, Any]) -> None:
        print(format_event(event), file=self._stream)

    def close(self) -> None:
        pass


class EventBus:
    """Dispatches enveloped events to the attached sinks."""

    def __init__(self, level: str = "info", trace: bool = False):
        if level not in _LEVELS:
            raise TelemetryError(f"unknown telemetry level {level!r} (expected {_LEVELS})")
        self.level = level
        self.metrics = MetricsRegistry()
        self._sinks: list[TelemetrySink] = []
        self._seq = 0
        # Convenience handle set by session(ring=...): the in-memory sink,
        # so callers can inspect captured events without tracking it.
        self.ring: RingBufferSink | None = None
        # Distributed tracing: when on, emit() stamps every event with
        # the ambient thread-local trace context (repro.telemetry.trace)
        # and trace-only events (job.submit, trace.span, …) are emitted.
        # Off by default so default streams stay byte-for-byte unchanged.
        self.tracing = bool(trace)
        # The post-mortem ring set by session(): last-N events for
        # failure records, independent of any user-configured sink.
        self.flight: FlightRecorder | None = None

    # -- state ----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when at least one sink is attached (the hot-path guard)."""
        return bool(self._sinks)

    @property
    def debug(self) -> bool:
        """True when debug-level events should be emitted too."""
        return bool(self._sinks) and self.level == "debug"

    def attach(self, sink: TelemetrySink) -> TelemetrySink:
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TelemetrySink) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            raise TelemetryError("sink is not attached to this bus") from None

    # -- emission --------------------------------------------------------------

    def emit(self, event_type: str, t: float | None = None, **fields: Any) -> None:
        """Envelope and dispatch one event to every sink.

        Debug-level event types (see
        :data:`repro.telemetry.events.DEBUG_EVENTS`) are dropped unless
        the bus runs at debug level.  With no sinks attached this is a
        no-op after one list check.

        With tracing on, the ambient thread-local trace context stamps
        ``trace``/``span``/``parent`` onto the event — but only where
        the payload does not already carry them, so cache- and
        wire-replayed events keep their originally recorded ids.
        """
        if not self._sinks:
            return
        if event_type in DEBUG_EVENTS and self.level != "debug":
            return
        event = {
            "schema": SCHEMA_VERSION,
            "seq": self._seq,
            "event": event_type,
            "t": float(t) if t is not None else None,
            **fields,
        }
        if self.tracing:
            ctx = current_trace()
            if ctx is not None:
                event.setdefault("trace", ctx.trace)
                event.setdefault("span", ctx.span)
                if ctx.parent is not None:
                    event.setdefault("parent", ctx.parent)
        self._seq = self._seq + 1
        for sink in self._sinks:
            sink.emit(event)

    def replay(self, events: Iterable[Mapping[str, Any]], **defaults: Any) -> None:
        """Re-emit recorded events (cache entries, worker rings, wire frames).

        Each recorded envelope is stripped and rebuilt by :meth:`emit`, so
        replayed events take this bus's sequence numbers but keep their
        recorded ``t`` and payload.  ``defaults`` fill payload fields the
        recorded event does not carry (e.g. the ``worker`` that ran it).
        """
        if not self._sinks:
            return
        for event in events:
            payload = {k: v for k, v in event.items() if k not in ENVELOPE_FIELDS}
            for key, value in defaults.items():
                payload.setdefault(key, value)
            self.emit(event["event"], t=event.get("t"), **payload)

    def close(self) -> None:
        """Close every sink (the bus itself stays usable)."""
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()


# The process-wide default bus.  Library code reads it through
# get_bus(); applications replace or populate it through session() /
# set_bus() — explicit injection, not import-time magic.
_BUS = EventBus()


def get_bus() -> EventBus:
    """The current process-wide event bus (inert unless sinks attached)."""
    return _BUS


def set_bus(bus: EventBus) -> EventBus:
    """Install ``bus`` as the process-wide bus; returns the previous one."""
    global _BUS
    previous = _BUS
    _BUS = bus
    return previous


@contextmanager
def session(
    jsonl: str | Path | None = None,
    ring: int | None = None,
    console: TextIO | None = None,
    level: str = "info",
    trace: bool = False,
    flight: int | None = None,
) -> Iterator[EventBus]:
    """A scoped telemetry session: fresh bus, sinks attached, auto-teardown.

    On exit the session emits a final ``metrics.snapshot`` event (when
    any metric was touched), closes the sinks and restores the previous
    process-wide bus — so nested sessions and tests compose.

    ``trace=True`` turns on distributed-trace stamping (and the
    trace-only events) for the session.  ``flight`` sizes the
    post-mortem :class:`~repro.telemetry.trace.FlightRecorder` attached
    alongside the other sinks (default: 256 whenever any sink is
    configured; 0 disables it).
    """
    bus = EventBus(level=level, trace=trace)
    ring_sink: RingBufferSink | None = None
    if jsonl is not None:
        bus.attach(JsonlSink(jsonl))
    if ring is not None:
        ring_sink = RingBufferSink(ring)
        bus.attach(ring_sink)
        bus.ring = ring_sink
    if console is not None:
        bus.attach(ConsoleSink(console))
    if flight is None:
        flight = 256 if bus.enabled else 0
    if flight:
        bus.flight = FlightRecorder(flight)
        bus.attach(bus.flight)
    previous = set_bus(bus)
    try:
        yield bus
    finally:
        if len(bus.metrics):
            bus.emit("metrics.snapshot", metrics=bus.metrics.snapshot())
        bus.close()
        set_bus(previous)
