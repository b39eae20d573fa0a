"""The fluid simulation engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

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
from repro.storage.client_model import RetryPolicy
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


class TestPopulationArrays:
    """``rebuild_population``'s array passes equal a per-membership loop."""

    class PerTarget:
        """Counts the distinct ``target`` tags of its active flows."""

        distinct_tag = "target"

        def __init__(self, noise_scaled: bool):
            self.noise_scaled = noise_scaled

        def capacity(self, ctx: ResourceContext) -> float:
            return 100.0 * ctx.distinct + ctx.depth

    @staticmethod
    def check(run) -> None:
        """Compare the rebuilt population state against the loop reference."""
        n = len(run.rids)
        depth = np.zeros(n)
        nflows = np.zeros(n, dtype=int)
        values: dict[int, set] = {}
        for f in run.active:
            for rid in f.resources:
                i = run.rid_index[rid]
                depth[i] += f.weight
                nflows[i] += 1
                tag = getattr(run.providers[i], "distinct_tag", None)
                if tag is not None:
                    values.setdefault(i, set()).add(f.tags.get(tag))
        assert_array_equal(run.depth, depth)
        assert_array_equal(run.nflows, nflows)
        assert run.nflows.dtype == nflows.dtype
        assert_array_equal(
            [run.distinct.get(i, 1) for i in range(n)],
            [len(values.get(i, ())) or 1 for i in range(n)],
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_membership_loop(self, data):
        nres = data.draw(st.integers(1, 8))
        # Per resource: a plain link (None), or a distinct-tag provider
        # that is noise-scaled (True) or evaluated per segment (False).
        kinds = st.sampled_from([None, False, True])
        tagged = data.draw(st.lists(kinds, min_size=nres, max_size=nres))
        sim = FluidSimulation()
        for i, kind in enumerate(tagged):
            sim.add_resource(f"r{i}", 500.0 if kind is None else self.PerTarget(kind))
        nflows = data.draw(st.integers(1, 12))
        for j in range(nflows):
            route = data.draw(st.permutations(range(nres)))[: data.draw(st.integers(1, nres))]
            tags = data.draw(st.sampled_from([{}, {"target": 0}, {"target": 1}, {"target": 2}]))
            weight = data.draw(st.floats(0.01, 10.0))
            sim.add_flow(flow(f"f{j}", [f"r{i}" for i in route], GiB, weight=weight, tags=tags))
        run = fluid._Run(sim, None, (), 1e7, False, (), [])
        # Any subset of the flows, in any order: retries re-admit flows
        # behind later arrivals.
        order = data.draw(st.permutations(range(nflows)))
        keep = data.draw(st.integers(1, nflows))
        run.active = [run.flows[j] for j in order[:keep]]
        run.rebuild_population()
        self.check(run)

    def test_population_readmitted_after_retry(self, monkeypatch):
        """A retried flow rejoins behind the others; every rebuild still matches."""

        class DeadUntil:
            """Zero capacity before ``t = 2``, then 100 MiB/s."""

            def capacity(self, ctx: ResourceContext) -> float:
                return 0.0 if ctx.time < 2.0 else 100.0

        orders = []
        rebuild = fluid._Run.rebuild_population

        def spy(run):
            rebuild(run)
            orders.append([f.flow_id for f in run.active])
            self.check(run)

        monkeypatch.setattr(fluid._Run, "rebuild_population", spy)
        sim = FluidSimulation(retry=RetryPolicy(timeout_s=0.5, backoff_base_s=0.5))
        sim.add_resource("flaky", DeadUntil())
        sim.add_resource("link", 1000.0)
        sim.add_resource("pool", self.PerTarget(True))
        sim.add_flow(flow("a", ["flaky", "pool"], 64 * MiB, weight=0.3, tags={"target": 1}))
        sim.add_flow(flow("b", ["link", "pool"], GiB, weight=0.7, tags={"target": 2}))
        sim.add_flow(flow("c", ["link", "pool"], GiB, weight=1.1, tags={"target": 2}))
        result = sim.run(breakpoints=[2.0])
        assert [e.action for e in result.trace][:1] == ["retry"]
        assert orders[0] == ["a", "b", "c"]
        assert ["b", "c", "a"] in orders
        assert all(s.finished_at is not None for s in result.stats)


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
