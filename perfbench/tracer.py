"""Span recording around the public functions of each layer, from outside.

Nothing in ``src/repro`` is instrumented for this benchmark.  A traced
run instead replaces the public functions and methods listed in
:data:`TARGETS` with thin wrappers that record one span per call:
name, layer, start, end, parent span, thread and the benchmark's
current run id.  Spans live in memory (one list, appended from every
thread) and are written out when the run ends.

Three process-wide primitives are patched as well, so storage and wire
cost is attributed to the layer that caused it: ``os.fsync`` (file vs
directory fsyncs, counted per innermost active layer), ``os.write``
(the journal's append path) and ``socket.socket.sendall`` (frame bytes).

:func:`ledger` turns spans into per-layer self time over wall-clock
windows such that the layer times plus ``unattributed`` add up to the
windows' length exactly (see its docstring for the multi-threaded rule).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import os
import socket
import stat
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Target:
    """One wrapped callable, ``module`` + ``qualname``, and its layer."""

    module: str
    qualname: str
    layer: str
    # True, or a predicate over (args, kwargs): the call mostly waits on
    # another thread (a socket read), so concurrent work wins the ledger.
    blocking: Any = False
    # Called after the span closes with (tracer, span, args, kwargs, result).
    post: Callable[..., None] | None = None
    # Record nothing when called directly inside a span of this name
    # (the one-shot solver's internal persistent-solver call).
    skip_under: str | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.qualname}"


def _checkpoint_bytes(tracer: "Tracer", span: "Span", args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    try:
        tracer.written[(span.run, "checkpoint")] += os.stat(path).st_size
    except (OSError, TypeError):
        pass


def _entry_bytes(tracer: "Tracer", span: "Span", args, kwargs, result) -> None:
    try:
        tracer.written[(span.run, "cache_entry")] += os.stat(result).st_size
    except (OSError, TypeError):
        pass


def _segments(tracer: "Tracer", span: "Span", args, kwargs, result) -> None:
    span.value = int(getattr(result, "segments", 0) or 0)


def _waits(args, kwargs) -> bool:
    msg = args[1] if len(args) > 1 else kwargs.get("msg")
    return isinstance(msg, Mapping) and msg.get("type") == "wait"


# Layer boundaries, by module.
TARGETS: tuple[Target, ...] = (
    Target("repro.scenario.compile", "compile_scenario", "scenario"),
    Target("repro.methodology.plan", "ExperimentPlan.build", "plan"),
    Target("repro.experiments.common", "run_specs", "methodology"),
    Target("repro.methodology.runner", "ProtocolRunner.run", "methodology"),
    Target("repro.methodology.runner", "execute_outcome", "methodology"),
    Target("repro.methodology.records", "RecordStore.write_json", "methodology", post=_checkpoint_bytes),
    Target("repro.methodology.records", "RunRecord.from_run_result", "methodology"),
    Target("repro.service", "ServiceExecutor.prefetch", "methodology"),
    Target("repro.service", "ServiceExecutor.__call__", "service"),
    Target("repro.service", "SimulationService.run", "service"),
    Target("repro.service", "SimulationService.context", "service"),
    Target("repro.service", "SimulationService.prefetch", "service"),
    Target("repro.service", "SimulationService.resolve_prefetched", "service"),
    Target("repro.engine.base", "EngineBase.prepare", "engine"),
    Target("repro.engine.fluid_runner", "FluidEngine.run", "engine"),
    Target("repro.engine.des_runner", "DESEngine.run", "des"),
    Target("repro.engine.result", "result_to_jsonable", "engine"),
    Target("repro.engine.result", "result_from_jsonable", "engine"),
    Target("repro.netsim.fluid", "FluidSimulation.run", "netsim", post=_segments),
    Target("repro.netsim.maxmin", "MaxMinSolver.solve", "netsim", skip_under="maxmin.max_min_rates"),
    Target("repro.netsim.maxmin", "MaxMinSolver.solve_batch", "netsim"),
    Target("repro.netsim.maxmin", "max_min_rates", "netsim"),
    Target("repro.cache.tiered", "TieredCache.lookup", "cache"),
    Target("repro.cache.tiered", "TieredCache.lookup_many", "cache"),
    Target("repro.cache.tiered", "TieredCache.store", "cache"),
    Target("repro.cache.disk", "ResultCache.load", "cache"),
    Target("repro.cache.disk", "ResultCache.load_many", "cache"),
    Target("repro.cache.disk", "ResultCache.store_entry", "cache", post=_entry_bytes),
    Target("repro.orchestrator.queue", "DurableJobQueue.open", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.close", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.enqueue", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.enqueue_many", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.lease", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.lease_many", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.mark_done", "orchestrator"),
    Target("repro.orchestrator.queue", "DurableJobQueue.mark_failed", "orchestrator"),
    Target("repro.orchestrator.journal", "Journal.append", "orchestrator"),
    Target("repro.orchestrator.journal", "Journal.append_many", "orchestrator"),
    Target("repro.server.protocol", "send_frame", "server"),
    Target("repro.server.protocol", "recv_frame", "server", blocking=True),
    Target("repro.server.app", "OrchestratorServer.dispatch", "server", blocking=_waits),
    Target("repro.client", "RemoteClient.run", "client"),
    Target("repro.client", "RemoteClient.submit", "client"),
    Target("repro.client", "RemoteClient.wait", "client"),
    Target("repro.telemetry.bus", "EventBus.emit", "telemetry"),
)

# Every layer the ledger reports, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

SPAN_FIELDS = ("id", "parent", "name", "layer", "blocking", "thread", "run", "start", "end")


class Span:
    """One recorded call.  ``end`` is None while the call is running."""

    __slots__ = SPAN_FIELDS + ("value",)

    def __init__(self, id, parent, name, layer, blocking, thread, run, start, end=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.layer = layer
        self.blocking = blocking
        self.thread = thread
        self.run = run
        self.start = start
        self.end = end
        self.value: int | None = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """In-memory span store plus per-run, per-layer storage counters.

    ``run_id`` is process-wide, not per thread: every workload keeps one
    operation in flight at a time, so server threads working for the
    client's current job are tagged with that job's id too.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self.main_thread = threading.get_ident()
        # (run id, layer, "file" | "dir") -> fsync calls
        self.fsyncs: Counter = Counter()
        # (run id, kind) -> bytes; kinds: checkpoint, cache_entry,
        # write:<layer> (os.write), send:<layer> (socket bytes)
        self.written: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: list[Callable[[], None]] = []

    # -- span stack ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, blocking: bool = False) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            name,
            layer,
            blocking,
            threading.get_ident(),
            self.run_id,
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def innermost(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def innermost_layer(self) -> str:
        span = self.innermost()
        return span.layer if span is not None else "none"

    # -- installation --------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name, layer, blocking = target.name, target.layer, target.blocking
        post, skip_under = target.post, target.skip_under

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under is not None:
                outer = tracer.innermost()
                if outer is not None and outer.name == skip_under:
                    return fn(*args, **kwargs)
            flag = blocking(args, kwargs) if callable(blocking) else bool(blocking)
            span = tracer.begin(name, layer, flag)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if post is not None:
                post(tracer, span, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        if attr in vars(owner):
            old = inspect.getattr_static(owner, attr)
            self._undo.append(lambda: setattr(owner, attr, old))
        else:  # inherited: the wrapper shadows it until removed
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, new)

    def install(self, targets: Iterable[Target] = TARGETS) -> "Tracer":
        """Wrap every target.  A module-level function is also rebound in
        every other ``repro`` module that imported it by name."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner: Any = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(owner, attr, type(raw)(self._wrap(raw.__func__, target)))
                continue
            wrapped = self._wrap(raw, target)
            self._replace(owner, attr, wrapped)
            if owner is not module:
                continue
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", None) or ""
                if other is not module and name.startswith("repro") and vars(other).get(attr) is raw:
                    self._replace(other, attr, wrapped)
        self._install_context_construction()
        self._install_io()
        return self

    def _install_context_construction(self) -> None:
        """Wrap every registered scenario construction function: one
        ``service.build_context`` span per engine context the service
        constructs."""
        service = importlib.import_module("repro.service")
        target = Target("repro.service", "build_context", "service")
        for name, build in list(getattr(service, "_BUILDERS", {}).items()):
            service.register_builder(name, self._wrap(build, target))
            self._undo.append(lambda name=name, build=build: service.register_builder(name, build))

    def _install_io(self) -> None:
        tracer = self
        real_fsync, real_write = os.fsync, os.write
        real_sendall = socket.socket.sendall

        def fsync(fd):
            try:
                kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            except OSError:
                kind = "file"
            tracer.fsyncs[(tracer.run_id, tracer.innermost_layer(), kind)] += 1
            return real_fsync(fd)

        def write(fd, data):
            written = real_write(fd, data)
            tracer.written[(tracer.run_id, f"write:{tracer.innermost_layer()}")] += written
            return written

        def sendall(sock, data, *flags):
            tracer.written[(tracer.run_id, f"send:{tracer.innermost_layer()}")] += len(data)
            return real_sendall(sock, data, *flags)

        self._replace(os, "fsync", fsync)
        self._replace(os, "write", write)
        self._replace(socket.socket, "sendall", sendall)

    def uninstall(self) -> None:
        """Undo every replacement, most recent first."""
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One header line naming the fields, then one JSON array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "main_thread": self.main_thread}) + "\n")
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps([getattr(span, f) for f in SPAN_FIELDS]) + "\n")


# -- self time and the ledger --------------------------------------------------

Segment = tuple  # (start, end, layer, blocking, thread)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the durations of its children.

    Children are spans on the same thread whose ``parent`` is the span;
    a thread's calls nest, so children never overlap each other.
    """
    spans = list(spans)
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def _self_segments(spans: Sequence[Span]) -> list[Segment]:
    """The intervals in which each span is the innermost one on its thread."""
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out: list[Segment] = []
    for s in spans:
        cursor = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            if child.start > cursor:
                out.append((cursor, child.start, s.layer, s.blocking, s.thread))
            cursor = max(cursor, child.end)
        if s.end > cursor:
            out.append((cursor, s.end, s.layer, s.blocking, s.thread))
    return out


def _gaps(busy: list[tuple[float, float]], windows: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """The parts of ``windows`` covered by no ``busy`` interval."""
    busy = sorted(busy)
    starts = [a for a, _ in busy]
    gaps = []
    for w0, w1 in windows:
        cursor = w0
        i = max(0, bisect.bisect_right(starts, w0) - 1)
        while i < len(busy) and busy[i][0] < w1:
            a, b = busy[i]
            if a > cursor:
                gaps.append((cursor, min(a, w1)))
            cursor = max(cursor, b)
            i += 1
        if w1 > cursor:
            gaps.append((cursor, w1))
    return gaps


def ledger(
    spans: Iterable[Span], windows: Sequence[tuple[float, float]], main_thread: int
) -> dict[str, float]:
    """Seconds of the (disjoint) ``windows`` attributed to each layer.

    Every instant is attributed to the innermost span(s) active at that
    instant across all threads: spans that are not blocking win over
    blocking ones (a client waiting on a socket read yields to the
    server thread doing the work), and when several threads are busy
    the instant is split evenly between them.  The main thread's time
    outside every span is ``unattributed``; other threads outside every
    span are idle and claim nothing.  So the values sum to the total
    length of the windows, up to float rounding.
    """
    windows = sorted(windows)
    spans = [s for s in spans if s.end is not None]
    segments = _self_segments(spans)
    main_busy = [(a, b) for a, b, _, _, thread in segments if thread == main_thread]
    segments += [(a, b, UNATTRIBUTED, False, main_thread) for a, b in _gaps(main_busy, windows)]
    # Event kinds sort ends (0) before window edges (1) before starts (2).
    events: list[tuple[float, int, int]] = []
    for idx, (a, b, *_rest) in enumerate(segments):
        events.append((a, 2, idx))
        events.append((b, 0, idx))
    for idx, (w0, w1) in enumerate(windows):
        events.append((w0, 1, idx))
        events.append((w1, 1, -1 - idx))
    events.sort()
    totals: dict[str, float] = defaultdict(float)
    active: dict[int, Segment] = {}
    inside = False
    prev = windows[0][0] if windows else 0.0
    for t, kind, idx in events:
        if inside and t > prev and active:
            busy = [s for s in active.values() if not s[3]] or list(active.values())
            share = (t - prev) / len(busy)
            for s in busy:
                totals[s[2]] += share
        prev = t
        if kind == 2:
            active[idx] = segments[idx]
        elif kind == 0:
            active.pop(idx, None)
        else:
            inside = idx >= 0
    return dict(totals)
