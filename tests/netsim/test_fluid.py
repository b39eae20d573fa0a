"""The fluid simulation engine."""

import math

import numpy as np
import pytest

from repro.errors import FlowError, SimulationError
from repro.netsim import fluid
from repro.netsim.flows import FluidFlow
from repro.netsim.fluid import (
    ConstantCapacity,
    FluidSimulation,
    NoNoise,
    ResourceContext,
)
from repro.netsim.latency import BlockingRequestModel
from repro.netsim.maxmin import MaxMinSolver
from repro.telemetry.bus import session
from repro.units import GiB, MiB


def flow(fid, resources, volume, **kw):
    return FluidFlow(flow_id=fid, resources=tuple(resources), volume_bytes=float(volume), **kw)


class TestBasics:
    def test_single_flow_timing(self):
        sim = FluidSimulation()
        sim.add_resource("link", 1024.0)  # MiB/s
        sim.add_flow(flow("f", ["link"], GiB))
        result = sim.run()
        assert result.makespan == pytest.approx(1.0)
        assert result.stats[0].mean_bandwidth_mib_s == pytest.approx(1024.0)

    def test_fair_share_two_flows(self):
        sim = FluidSimulation()
        sim.add_resource("link", 1000.0)
        sim.add_flow(flow("a", ["link"], GiB))
        sim.add_flow(flow("b", ["link"], GiB))
        result = sim.run()
        # Equal shares: both finish together at 2 * (1024/1000) s.
        assert result.makespan == pytest.approx(2.048)
        assert result.stats[0].finished_at == pytest.approx(result.stats[1].finished_at)

    def test_unbalanced_completion_phases(self):
        """The (1,3) allocation arithmetic of the paper (Section IV-C1)."""
        sim = FluidSimulation()
        sim.add_resource("linkA", 1100.0)
        sim.add_resource("linkB", 1100.0)
        sim.add_flow(flow("a", ["linkA"], 8 * GiB))
        sim.add_flow(flow("b", ["linkB"], 24 * GiB))
        result = sim.run()
        bw = 32 * 1024 / result.makespan
        assert bw == pytest.approx(1100 * 4 / 3, rel=1e-3)

    def test_staggered_arrivals(self):
        sim = FluidSimulation()
        sim.add_resource("link", 1024.0)
        sim.add_flow(flow("early", ["link"], GiB))
        sim.add_flow(flow("late", ["link"], GiB, start_time=10.0))
        result = sim.run()
        early, late = result.stats
        assert early.finished_at == pytest.approx(1.0)
        assert late.started_at == pytest.approx(10.0)
        assert late.finished_at == pytest.approx(11.0)

    def test_overlapping_arrivals_share(self):
        sim = FluidSimulation()
        sim.add_resource("link", 1024.0)
        sim.add_flow(flow("a", ["link"], 2 * GiB))
        sim.add_flow(flow("b", ["link"], GiB, start_time=1.0))
        result = sim.run()
        a, b = result.stats
        # a runs alone for 1s (1 GiB done), then shares; both need 1 GiB
        # at 512 MiB/s -> 2 more seconds.
        assert a.finished_at == pytest.approx(3.0)
        assert b.finished_at == pytest.approx(3.0)

    def test_volume_conservation(self):
        sim = FluidSimulation()
        sim.add_resource("link", 777.0)
        volumes = [GiB, 2 * GiB, GiB // 2]
        for i, v in enumerate(volumes):
            sim.add_flow(flow(f"f{i}", ["link"], v))
        result = sim.run(observe=("link",))
        series = result.resource_series["link"]
        moved = series.integrate(0.0, result.makespan)
        assert moved == pytest.approx(sum(volumes) / MiB, rel=1e-6)


class TestValidation:
    def test_unknown_resource(self):
        sim = FluidSimulation()
        with pytest.raises(FlowError):
            sim.add_flow(flow("f", ["ghost"], GiB))

    def test_duplicate_flow_id(self):
        sim = FluidSimulation()
        sim.add_resource("r", 1.0)
        sim.add_flow(flow("f", ["r"], GiB))
        with pytest.raises(FlowError):
            sim.add_flow(flow("f", ["r"], GiB))

    def test_duplicate_resource(self):
        sim = FluidSimulation()
        sim.add_resource("r", 1.0)
        with pytest.raises(FlowError):
            sim.add_resource("r", 2.0)

    def test_run_without_flows(self):
        with pytest.raises(FlowError):
            FluidSimulation().run()

    def test_observe_unknown_resource(self):
        sim = FluidSimulation()
        sim.add_resource("r", 1.0)
        sim.add_flow(flow("f", ["r"], GiB))
        with pytest.raises(FlowError):
            sim.run(observe=("ghost",))

    def test_stall_detected(self):
        sim = FluidSimulation()
        sim.add_resource("dead", 0.0)
        sim.add_flow(flow("f", ["dead"], GiB))
        with pytest.raises(SimulationError):
            sim.run()


class TestDynamicCapacity:
    def test_depth_dependent_provider(self):
        class Ramp:
            def capacity(self, ctx: ResourceContext) -> float:
                return 100.0 * ctx.depth

        sim = FluidSimulation()
        sim.add_resource("svc", Ramp())
        sim.add_flow(flow("a", ["svc"], GiB, weight=2.0))
        result = sim.run()
        assert result.makespan == pytest.approx(1024 / 200.0)

    def test_distinct_tag_counting(self):
        class PerTarget:
            distinct_tag = "target"

            def capacity(self, ctx: ResourceContext) -> float:
                return 100.0 * ctx.distinct

        sim = FluidSimulation()
        sim.add_resource("pool", PerTarget())
        sim.add_flow(flow("a", ["pool"], GiB, tags={"target": 1}))
        sim.add_flow(flow("b", ["pool"], GiB, tags={"target": 2}))
        result = sim.run()
        # 2 distinct targets -> 200 MiB/s shared -> 2 GiB in ~10.24s
        assert result.makespan == pytest.approx(2048 / 200.0)

    def test_negative_capacity_rejected(self):
        class Bad:
            def capacity(self, ctx: ResourceContext) -> float:
                return -1.0

        sim = FluidSimulation()
        sim.add_resource("bad", Bad())
        sim.add_flow(flow("f", ["bad"], GiB))
        with pytest.raises(SimulationError):
            sim.run()


class TestNoise:
    def test_epoch_noise_changes_completion(self):
        class HalfEveryOtherEpoch:
            epoch_length_s = 1.0

            def multiplier(self, rid, epoch, rng):
                return 0.5 if epoch % 2 else 1.0

        sim = FluidSimulation(noise=HalfEveryOtherEpoch())
        sim.add_resource("link", 1024.0)
        sim.add_flow(flow("f", ["link"], int(1.5 * GiB)))
        result = sim.run(rng=np.random.default_rng(0))
        # 1 GiB in the first (full-speed) second, 0.5 GiB at 512 MiB/s.
        assert result.makespan == pytest.approx(2.0)

    def test_nonoise_has_no_epochs(self):
        assert math.isinf(NoNoise().epoch_length_s)
        assert NoNoise().multiplier("x", 0, np.random.default_rng(0)) == 1.0


class TestEpochPresolve:
    """Presolving a stable population's noise epochs changes no result."""

    class Lognormal:
        epoch_length_s = 0.05

        def multiplier(self, rid, epoch, rng):
            return float(rng.lognormal(0.0, 0.3))

    def run(self):
        sim = FluidSimulation(noise=self.Lognormal(), latency=BlockingRequestModel(MiB, 2e-3))
        for i in range(3):
            sim.add_resource(f"server{i}", 900.0)
        sim.add_resource("san", 2000.0)
        for i in range(6):
            sim.add_flow(
                flow(
                    f"f{i}",
                    [f"server{i % 3}", "san"],
                    (i + 1) * 64 * MiB,
                    nprocs=4.0,
                    request_size_bytes=MiB,
                )
            )
        with session(ring=4) as bus:
            result = sim.run(
                rng=np.random.default_rng(3), observe=["san", "server0"], detail=True
            )
            iterations = bus.metrics.counter("engine.solver_iterations", engine="fluid").value
        return result, iterations

    def test_inline_solves_match_presolved(self, monkeypatch):
        batches = []
        solve_batch = MaxMinSolver.solve_batch

        def spy(solver, *args, **kwargs):
            batches.append(args[0].shape[0])
            return solve_batch(solver, *args, **kwargs)

        monkeypatch.setattr(MaxMinSolver, "solve_batch", spy)
        presolved, presolved_iterations = self.run()
        assert batches, "the default run must presolve noise epochs in batches"
        batches.clear()
        monkeypatch.setattr(fluid, "_PRESOLVE_EPOCHS", 0)
        inline, inline_iterations = self.run()
        assert not batches

        assert presolved.segments > 20
        assert inline.stats == presolved.stats
        assert inline.makespan == presolved.makespan
        assert inline.segments == presolved.segments
        assert inline.segment_details == presolved.segment_details
        assert inline_iterations == presolved_iterations
        for rid, series in presolved.resource_series.items():
            assert inline.resource_series[rid].times == series.times
            assert inline.resource_series[rid].values == series.values


class TestLatencyIntegration:
    def test_latency_slows_flow(self):
        base = FluidSimulation()
        base.add_resource("link", 1024.0)
        base.add_flow(flow("f", ["link"], GiB, nprocs=1.0))
        fast = base.run().makespan

        lat = FluidSimulation(latency=BlockingRequestModel(MiB, 1e-3))
        lat.add_resource("link", 1024.0)
        lat.add_flow(flow("f", ["link"], GiB, nprocs=1.0))
        slow = lat.run().makespan
        assert slow > fast * 1.5  # 1024 MiB/s share -> ~half efficiency


class TestResultQueries:
    def test_stats_by_tag_and_span(self):
        sim = FluidSimulation()
        sim.add_resource("r", 1024.0)
        sim.add_flow(flow("a1", ["r"], GiB, tags={"app": "a"}))
        sim.add_flow(flow("b1", ["r"], GiB, tags={"app": "b"}))
        result = sim.run()
        a_stats = result.stats_by_tag("app", "a")
        assert [s.flow_id for s in a_stats] == ["a1"]
        start, end = result.span(a_stats)
        assert start == 0.0 and end == result.makespan
        assert result.total_volume(a_stats) == pytest.approx(GiB)

    def test_constant_capacity_validation(self):
        with pytest.raises(FlowError):
            ConstantCapacity(-1.0)


class TestConservationProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        volumes=st.lists(st.integers(MiB, 4 * GiB), min_size=1, max_size=10),
        capacity=st.floats(100.0, 5000.0),
        starts=st.lists(st.floats(0.0, 5.0), min_size=10, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_flow_completes_with_exact_volume(self, volumes, capacity, starts):
        sim = FluidSimulation()
        sim.add_resource("link", capacity)
        for i, volume in enumerate(volumes):
            sim.add_flow(flow(f"f{i}", ["link"], volume, start_time=starts[i]))
        result = sim.run(observe=("link",))
        # Total bytes conserved through the observed throughput series,
        # including across idle gaps between arrivals.
        moved = result.resource_series["link"].integrate(0.0, result.makespan) * MiB
        assert moved == pytest.approx(sum(volumes), rel=1e-6)
        for s in result.stats:
            assert s.finished_at > s.started_at
        assert result.makespan >= max(starts[: len(volumes)])

    @given(
        nflows=st.integers(2, 8),
        capacity=st.floats(500.0, 3000.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_equal_flows_finish_together(self, nflows, capacity):
        sim = FluidSimulation()
        sim.add_resource("link", capacity)
        for i in range(nflows):
            sim.add_flow(flow(f"f{i}", ["link"], GiB))
        result = sim.run()
        finishes = {round(s.finished_at, 9) for s in result.stats}
        assert len(finishes) == 1
