"""Per-layer metrics of a traced run: counts, self times, bytes, fsyncs.

Every metric here is computed over the timed loop's spans only (run ids
``op*``), normalised per completed run (``/run``) or per call
(``/call``), except the set-up metrics (compile, plan, engine contexts),
which cover the set-ups too.  ``BENCHMARK.json`` lists each metric with
its unit and better-direction; ``perfbench/README.md`` says which
end-to-end metric each one should move, and on which workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable, Mapping

from tracer import LAYERS, UNATTRIBUTED, Span, Tracer, ledger, self_times

KIB = 1024.0


class NameStats:
    """Calls, inclusive seconds and self seconds per span name."""

    def __init__(self, spans: Iterable[Span]):
        spans = list(spans)
        own = self_times(spans)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.values: dict[str, int] = defaultdict(int)
        for s in spans:
            self.calls[s.name] += 1
            self.total[s.name] += s.duration
            self.self_s[s.name] += own[s.id]
            self.layer_self[s.layer] += own[s.id]
            self.values[s.name] += s.value or 0

    def n(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def mean(self, *names: str, scale: float = 1.0, own: bool = False) -> float:
        """Mean seconds per call (inclusive, or self with ``own``) times ``scale``."""
        table = self.self_s if own else self.total
        return _per(sum(table.get(name, 0.0) for name in names) * scale, self.n(*names))


def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _queue_waits_ms(spans: list[Span], main_thread: int) -> list[float]:
    """Client submit (main thread) to server-side lease, per job."""
    submit: dict[str, float] = {}
    lease: dict[str, float] = {}
    for s in spans:
        if s.name == "client.RemoteClient.submit" and s.thread == main_thread:
            submit.setdefault(s.run, s.start)
        elif s.name == "queue.DurableJobQueue.lease" and s.thread != main_thread:
            lease.setdefault(s.run, s.start)
    return [(lease[r] - submit[r]) * 1e3 for r in lease if r in submit]


def per_layer(tracer: Tracer, info: Mapping[str, Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """The per-layer metrics plus the ledger document of one traced run.

    ``info`` carries what the workload measured itself: completed loop
    ``runs``, ``setups``, the loop ``windows``/``loop_ids`` and
    ``setup_windows``, ``attempted``/``failed``, telemetry
    ``jsonl_bytes``, the cache-tally and tier-hit deltas over the loop,
    and the serve counters (``shed``, ``retries``, ``fallbacks``).
    """
    runs = float(info["runs"])
    loop_ids = set(info["loop_ids"])
    main = tracer.main_thread
    loop = [s for s in tracer.spans if s.run in loop_ids]
    setup = [s for s in tracer.spans if str(s.run).startswith("setup")]
    every = NameStats(tracer.spans)
    ls = NameStats(loop)
    ss = NameStats(setup)

    loop_fsyncs: dict[tuple[str, str], int] = defaultdict(int)
    for (run, layer, kind), n in tracer.fsyncs.items():
        if run in loop_ids:
            loop_fsyncs[(layer, kind)] += n

    def fsyncs(layer: str, kinds: tuple[str, ...] = ("file", "dir")) -> float:
        return _per(sum(loop_fsyncs.get((layer, kind), 0) for kind in kinds), runs)

    def written(prefix: str, in_loop: bool = True) -> float:
        return sum(
            n for (run, kind), n in tracer.written.items()
            if (run in loop_ids or not in_loop) and kind.startswith(prefix)
        )

    cache_delta = info.get("cache_delta", {})
    probes = cache_delta.get("hit", 0) + cache_delta.get("miss", 0)
    tier_delta = info.get("tier_delta", {})
    jsonl = float(info.get("jsonl_bytes", 0))
    storage = written("write:") + written("checkpoint") + written("cache_entry") + jsonl
    client_recv = [s.duration for s in loop if s.name == "protocol.recv_frame" and s.thread == main]
    waits = _queue_waits_ms(loop, main)

    metrics: dict[str, float] = {
        "scenario.compile_ms": every.mean("compile.compile_scenario", scale=1e3),
        "methodology.plan_ms": every.mean("plan.ExperimentPlan.build", scale=1e3),
        "service.context_builds": _per(ss.n("service.build_context"), info["setups"]),
        "service.context_build_ms": every.mean("service.build_context", scale=1e3),
        "service.run_self_ms": _per(ls.layer_self.get("service", 0.0) * 1e3, runs),
        "engine.prepare_ms": ls.mean("base.EngineBase.prepare", scale=1e3),
        "engine.codec_encode_us": ls.mean("result.result_to_jsonable", scale=1e6),
        "engine.codec_decode_us": ls.mean("result.result_from_jsonable", scale=1e6),
        "engine.codec_calls": _per(ls.n("result.result_to_jsonable", "result.result_from_jsonable"), runs),
        "des.run_self_ms": ls.mean("des_runner.DESEngine.run", scale=1e3, own=True),
        "netsim.fluid_run_ms": ls.mean("fluid.FluidSimulation.run", scale=1e3, own=True),
        "netsim.segments_per_run": _per(ls.values.get("fluid.FluidSimulation.run", 0), runs),
        "netsim.solve_calls": _per(ls.n("maxmin.MaxMinSolver.solve"), runs),
        "netsim.solve_us": ls.mean("maxmin.MaxMinSolver.solve", scale=1e6),
        "netsim.solve_batch_calls": _per(ls.n("maxmin.MaxMinSolver.solve_batch"), runs),
        "netsim.solve_batch_us": ls.mean("maxmin.MaxMinSolver.solve_batch", scale=1e6),
        "netsim.maxmin_oneshot_calls": _per(ls.n("maxmin.max_min_rates"), runs),
        "netsim.maxmin_oneshot_us": ls.mean("maxmin.max_min_rates", scale=1e6),
        "cache.lookup_us": ls.mean("tiered.TieredCache.lookup", scale=1e6),
        "cache.lookup_many_ms": ls.mean("tiered.TieredCache.lookup_many", scale=1e3),
        "cache.disk_load_calls_per_run": _per(ls.n("disk.ResultCache.load"), runs),
        "cache.store_ms": every.mean("tiered.TieredCache.store", scale=1e3),
        "cache.hit_ratio": _per(cache_delta.get("hit", 0), probes),
        "cache.tier_hits.memory": _per(tier_delta.get("memory", 0), runs),
        "cache.tier_hits.disk": _per(tier_delta.get("disk", 0), runs),
        "cache.entry_kib": _per(written("cache_entry", in_loop=False) / KIB, every.n("disk.ResultCache.store_entry")),
        "cache.fsyncs_per_run": fsyncs("cache"),
        "cache.dir_fsyncs_per_run": fsyncs("cache", ("dir",)),
        "orchestrator.lease_us": ls.mean("queue.DurableJobQueue.lease", "queue.DurableJobQueue.lease_many", scale=1e6),
        "orchestrator.finish_us": ls.mean("queue.DurableJobQueue.mark_done", "queue.DurableJobQueue.mark_failed", scale=1e6),
        "orchestrator.enqueue_ms": ls.mean("queue.DurableJobQueue.enqueue", "queue.DurableJobQueue.enqueue_many", scale=1e3),
        "orchestrator.journal_kib_per_run": _per(written("write:orchestrator") / KIB, runs),
        "orchestrator.fsyncs_per_run": fsyncs("orchestrator"),
        "orchestrator.dir_fsyncs_per_run": fsyncs("orchestrator", ("dir",)),
        "methodology.prefetch_ms": ls.mean("service.ServiceExecutor.prefetch", scale=1e3),
        "methodology.checkpoint_ms": ls.mean("records.RecordStore.write_json", scale=1e3),
        "methodology.checkpoints": _per(ls.n("records.RecordStore.write_json"), runs),
        "methodology.checkpoint_kib": _per(written("checkpoint") / KIB, ls.n("records.RecordStore.write_json")),
        "methodology.record_us": ls.mean("records.RunRecord.from_run_result", scale=1e6),
        "methodology.fsyncs_per_run": fsyncs("methodology"),
        "methodology.dir_fsyncs_per_run": fsyncs("methodology", ("dir",)),
        "server.fsyncs_per_run": fsyncs("server"),
        "server.frame_send_us": ls.mean("protocol.send_frame", scale=1e6),
        "server.frame_recv_us": _per(sum(client_recv) * 1e6, len(client_recv)),
        "server.frames_per_job": _per(ls.n("protocol.send_frame"), runs),
        "server.frame_kib_per_job": _per(written("send:server") / KIB, runs),
        "server.queue_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "server.shed": float(info.get("shed", 0)),
        "client.retries": float(info.get("retries", 0)),
        "client.fallbacks": float(info.get("fallbacks", 0)),
        "telemetry.events_per_run": _per(ls.n("bus.EventBus.emit"), runs),
        "telemetry.emit_us": ls.mean("bus.EventBus.emit", scale=1e6),
        "telemetry.jsonl_kib_per_run": _per(jsonl / KIB, runs),
        "written_kib_per_run": _per(storage / KIB, runs),
        "failed_frac": _per(info["failed"], info["attempted"]),
    }

    windows = info["windows"]
    wall = sum(b - a for a, b in windows)
    loop_ledger = ledger(loop, windows, main)
    for layer in LAYERS:
        metrics[f"ledger.{layer}_frac"] = _per(loop_ledger.get(layer, 0.0), wall)
    metrics["unattributed_frac"] = _per(loop_ledger.get(UNATTRIBUTED, 0.0), wall)

    setup_windows = info["setup_windows"]
    document = {
        "loop": {
            "wall_s": wall,
            "runs": runs,
            "layers_s": loop_ledger,
            "layers_sum_s": sum(loop_ledger.values()),
            "self_s_by_name": dict(ls.self_s),
            "calls_by_name": dict(ls.calls),
            "fsyncs_by_layer": {f"{layer}.{kind}": n for (layer, kind), n in sorted(loop_fsyncs.items())},
        },
        "setup": {
            "wall_s": sum(b - a for a, b in setup_windows),
            "layers_s": ledger(setup, setup_windows, main),
            "calls_by_name": dict(ss.calls),
        },
    }
    return metrics, document
