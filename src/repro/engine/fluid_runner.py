"""The fluid engine: applications -> flows -> timed run results.

For every application the engine creates its files through the real
BeeGFS metadata path (so the directory's stripe configuration and the
deployment's chooser decide the targets, exactly as in production),
derives one fluid flow per (compute node, storage target) with the
exact byte volume striping sends that way, wires up the calibrated
capacity providers, and integrates the fluid simulation.

Resource chain of a flow from node ``n`` to target ``t`` on host ``s``:

    client:n -> link(n, switch) -> fabric -> link(switch, s)
      -> ingest:s -> backplane:s -> ost:t

A run produces one :class:`~repro.engine.result.RunResult`; experiment
protocols call :meth:`FluidEngine.run` once per repetition with a fresh
``rep`` index (fresh file system, fresh chooser cursor, fresh noise).
"""

from __future__ import annotations

import math

from ..errors import FlowError, SimulationError
from ..netsim.fluid import FluidResult, FluidSimulation
from ..telemetry.profiling import get_profiler
from ..workload.application import Application
from .base import EngineBase, EngineOptions, PreparedRun, _metadata_overheads
from .result import ApplicationResult, RunResult

__all__ = ["EngineOptions", "FluidEngine"]


class FluidEngine(EngineBase):
    """The production engine: fluid integration of the prepared flows."""

    def run(self, apps: list[Application] | tuple[Application, ...], rep: int = 0) -> RunResult:
        """Execute one repetition of the given concurrent applications."""
        prepared = self.prepare(apps, rep)
        sim = self._simulation(prepared, rep)
        observe = (
            tuple(f"ingest:{h.host}" for h in prepared.hosts)
            if self.options.observe_servers
            else ()
        )
        with get_profiler().span("fluid.run"):
            fluid_result = sim.run(
                rng=prepared.seeds.rng("noise"),
                observe=observe,
                breakpoints=self._breakpoints(),
            )
        return self._collect(prepared, fluid_result)

    def _simulation(self, prepared: PreparedRun, rep: int) -> FluidSimulation:
        """The prepared repetition as a :class:`FluidSimulation`, ready to run."""
        sim = FluidSimulation(
            noise=prepared.noise,
            latency=prepared.latency,
            cap_iterations=self.options.cap_iterations,
            retry=self.options.effective_retry(),
            checker=self._make_checker(rep),
        )
        for rid, provider in prepared.providers.items():
            sim.add_resource(rid, provider)
        sim.add_flows(prepared.flows)
        return sim

    def _breakpoints(self) -> tuple[float, ...]:
        """Fault transition instants become extra segment boundaries."""
        if not self.options.faults_enabled:
            return ()
        schedule = self.options.fault_schedule
        if schedule is None:  # pragma: no cover - faults_enabled implies a schedule
            raise SimulationError("faults enabled without a fault schedule")
        return schedule.boundaries()

    def explain(self, apps: list[Application] | tuple[Application, ...], rep: int = 0):
        """Run one repetition with constraint tracking.

        Returns ``(RunResult, BottleneckReport)`` — the report says for
        what share of the run each resource was the binding constraint
        (the question behind the paper's Lessons 1-6).
        """
        from ..analysis.bottleneck import attribute_bottlenecks

        prepared = self.prepare(apps, rep)
        fluid_result = self._simulation(prepared, rep).run(
            rng=prepared.seeds.rng("noise"), detail=True, breakpoints=self._breakpoints()
        )
        report = attribute_bottlenecks(fluid_result.segment_details)
        return self._collect(prepared, fluid_result), report

    def _collect(self, prepared: PreparedRun, fluid_result: FluidResult) -> RunResult:
        """The run's result, read from the final state of its flows.

        The flows are walked in the (start time, flow id) order of
        ``FluidResult.stats``, and every min, max and float sum takes its
        operands in the order the per-flow records gave them, without
        building one record per flow.
        """
        servers = [h.host for h in prepared.hosts]
        meta_draw = _metadata_overheads(self.calibration, self.options, prepared)
        flows = fluid_result.flows
        nan = math.nan
        app_results = []
        for app in prepared.apps:
            meta = meta_draw(app.app_id)
            mine = [f for f in flows if f.tags.get("app") == app.app_id]
            if not mine:
                raise FlowError("no flows to span")
            start = min([nan if f.started_at is None else f.started_at for f in mine])
            end = max([nan if f.finished_at is None else f.finished_at for f in mine])
            delivered = [
                float(f.volume_bytes) - float(f.remaining_bytes) if f.abandoned else f.volume_bytes
                for f in mine
            ]
            targets = prepared.app_targets[app.app_id]
            per_server = {s: 0 for s in servers}
            for tid in targets:
                per_server[prepared.target_host[tid]] += 1
            app_results.append(
                ApplicationResult(
                    app_id=app.app_id,
                    start_time=start,
                    end_time=end + meta,
                    volume_bytes=float(sum(delivered)),
                    num_nodes=app.num_nodes,
                    ppn=app.ppn,
                    stripe_count=prepared.app_stripe[app.app_id],
                    targets=targets,
                    placement=tuple(sorted(per_server.values())),
                )
            )
        return RunResult(
            apps=tuple(app_results),
            segments=fluid_result.segments,
            resource_series=fluid_result.resource_series,
            fault_events=tuple(e.to_dict() for e in fluid_result.trace),
            retries=sum(f.attempts for f in flows),
            abandoned_flows=sum(1 for f in flows if f.abandoned),
        )
