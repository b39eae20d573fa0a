"""The fluid engine end to end: paper anchors on the calibrated model."""

import numpy as np
import pytest

from repro.engine.base import EngineOptions
from repro.engine.fluid_runner import FluidEngine
from repro.errors import ExperimentError
from repro.units import GiB
from repro.workload.generator import concurrent_applications, single_application

from ..conftest import make_engine


class TestScenario1Anchors:
    """Network-bound anchors from Figures 4a, 6a and 8."""

    def test_single_node_is_client_bound(self, calib_s1, topo_s1):
        engine = make_engine(calib_s1, topo_s1)
        result = engine.run([single_application(topo_s1, 1, ppn=8)], rep=0)
        assert result.single.bandwidth_mib_s == pytest.approx(880, rel=0.08)

    def test_plateau_near_1460(self, calib_s1, topo_s1):
        engine = make_engine(calib_s1, topo_s1)
        result = engine.run([single_application(topo_s1, 8, ppn=8)], rep=0)
        assert result.single.bandwidth_mib_s == pytest.approx(1460, rel=0.05)
        assert result.single.placement == (1, 3)

    def test_balanced_peak_near_2200(self, calib_s1, topo_s1):
        engine = make_engine(calib_s1, topo_s1, stripe_count=8)
        result = engine.run([single_application(topo_s1, 8, ppn=8)], rep=0)
        assert result.single.placement == (4, 4)
        assert result.single.bandwidth_mib_s == pytest.approx(2200, rel=0.07)

    def test_balance_law_ordering(self, calib_s1, topo_s1):
        """(0,k) < (1,3) < (1,2) < (3,4) < balanced (Figure 8)."""
        def bw(chooser, count):
            engine = make_engine(calib_s1, topo_s1, stripe_count=count, chooser=chooser)
            return engine.run([single_application(topo_s1, 8, ppn=8)], rep=0).single.bandwidth_mib_s

        one_server = bw("fixed:201,202", 2)       # (0,2)
        unbalanced = bw("fixed:101,201,202,203", 4)  # (1,3)
        three = bw("fixed:101,201,202", 3)        # (1,2)
        seven = bw("fixed:101,102,103,201,202,203,204", 7)  # (3,4)
        balanced = bw("fixed:101,201", 2)         # (1,1)
        assert one_server < unbalanced < three < seven < balanced

    def test_target_count_irrelevant_when_single_server(self, calib_s1, topo_s1):
        """(0,1) ~ (0,2) ~ (0,3): Lesson 4's count-independence."""
        values = []
        for chooser, count in (("fixed:201", 1), ("fixed:201,202", 2), ("fixed:201,202,203", 3)):
            engine = make_engine(calib_s1, topo_s1, stripe_count=count, chooser=chooser)
            values.append(
                engine.run([single_application(topo_s1, 8, ppn=8)], rep=0).single.bandwidth_mib_s
            )
        assert max(values) - min(values) < 0.03 * max(values)


class TestScenario2Anchors:
    """Storage-bound anchors from Figures 4b, 6b, 10 and 11."""

    def test_single_node_is_client_bound(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2)
        result = engine.run([single_application(topo_s2, 1, ppn=8)], rep=0)
        assert result.single.bandwidth_mib_s == pytest.approx(1630, rel=0.08)

    def test_stripe1_near_1764(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2, stripe_count=1)
        result = engine.run([single_application(topo_s2, 32, ppn=8)], rep=0)
        assert result.single.bandwidth_mib_s == pytest.approx(1764, rel=0.05)

    def test_stripe8_near_8064(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2, stripe_count=8)
        result = engine.run([single_application(topo_s2, 32, ppn=8)], rep=0)
        assert result.single.bandwidth_mib_s == pytest.approx(8064, rel=0.08)

    def test_bandwidth_grows_with_stripe_count(self, calib_s2, topo_s2):
        means = []
        for k in (1, 2, 4, 8):
            engine = make_engine(calib_s2, topo_s2, stripe_count=k)
            result = engine.run([single_application(topo_s2, 32, ppn=8)], rep=0)
            means.append(result.single.bandwidth_mib_s)
        assert means == sorted(means)
        assert means[-1] / means[0] > 3.5  # paper: >350%

    def test_balanced_beats_unbalanced_same_count(self, calib_s2, topo_s2):
        """(3,3) ~10% above (2,4), Figure 10."""
        def bw(chooser):
            engine = make_engine(calib_s2, topo_s2, stripe_count=6, chooser=chooser)
            return engine.run([single_application(topo_s2, 32, ppn=8)], rep=0).single.bandwidth_mib_s

        balanced = bw("fixed:101,102,103,201,202,203")
        unbalanced = bw("fixed:101,102,201,202,203,204")
        assert 1.03 < balanced / unbalanced < 1.30


class TestEngineMechanics:
    def test_reproducible_per_rep(self, engine_s1, topo_s1):
        app = single_application(topo_s1, 4, ppn=8)
        a = engine_s1.run([app], rep=7).single.bandwidth_mib_s
        b = engine_s1.run([app], rep=7).single.bandwidth_mib_s
        assert a == b

    def test_noise_varies_across_reps(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2, noise_enabled=True)
        app = single_application(topo_s2, 16, ppn=8)
        values = {round(engine.run([app], rep=r).single.bandwidth_mib_s, 3) for r in range(5)}
        assert len(values) > 1

    def test_metadata_overhead_toggle(self, calib_s1, topo_s1):
        app = single_application(topo_s1, 4, ppn=8)
        with_meta = make_engine(calib_s1, topo_s1, noise_enabled=False).run([app], rep=0)
        without = make_engine(
            calib_s1, topo_s1, noise_enabled=False, include_metadata_overhead=False
        ).run([app], rep=0)
        assert with_meta.single.duration > without.single.duration

    def test_volume_accounted_exactly(self, engine_s1, topo_s1):
        app = single_application(topo_s1, 4, ppn=8)
        result = engine_s1.run([app], rep=0)
        assert result.single.volume_bytes == pytest.approx(32 * GiB, rel=1e-9)

    def test_node_sharing_rejected(self, calib_s1, topo_s1, quiet_options):
        engine = FluidEngine(
            calib_s1, topo_s1, calib_s1.deployment(), seed=0, options=quiet_options
        )
        a = single_application(topo_s1, 2, ppn=8, app_id="a")
        b = single_application(topo_s1, 2, ppn=8, app_id="b")  # same first nodes
        with pytest.raises(ExperimentError):
            engine.run([a, b], rep=0)

    def test_empty_run_rejected(self, engine_s1):
        with pytest.raises(ExperimentError):
            engine_s1.run([], rep=0)

    def test_observe_servers_yields_series(self, calib_s1, topo_s1):
        engine = make_engine(calib_s1, topo_s1, noise_enabled=False, observe_servers=True)
        result = engine.run([single_application(topo_s1, 4, ppn=8)], rep=0)
        assert set(result.resource_series) == {"ingest:storage1", "ingest:storage2"}

    def test_provider_sets_are_built_once_per_node_map(self, calib_s2, topo_s2):
        """One provider set per (node, ppn) map, reused by every repetition."""
        engine = make_engine(calib_s2, topo_s2, noise_enabled=True)
        eight = [single_application(topo_s2, 4, ppn=8)]
        sixteen = [single_application(topo_s2, 4, ppn=16)]
        first, again = engine.prepare(eight, rep=0), engine.prepare(eight, rep=1)
        other = engine.prepare(sixteen, rep=0)
        later = engine.prepare(eight, rep=2)
        assert len(engine._provider_cache) == 2
        # Reused: the same providers in the same order, in a dict of its own.
        for prepared in (again, later):
            assert list(prepared.providers) == list(first.providers)
            assert all(prepared.providers[r] is p for r, p in first.providers.items())
            assert prepared.providers is not first.providers
        first.providers.clear()
        assert len(engine.prepare(eight, rep=3).providers) == len(again.providers)
        # Distinct: the client nodes' capacities follow each map's ppn.
        client = f"client:{eight[0].nodes[0]}"
        assert list(other.providers) == list(again.providers)
        assert other.providers[client] != again.providers[client]
        assert other.providers["ost:101"] is not again.providers["ost:101"]

    def test_ppn16_slightly_below_ppn8(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2)
        bw8 = engine.run([single_application(topo_s2, 1, ppn=8)], rep=0).single.bandwidth_mib_s
        bw16 = engine.run([single_application(topo_s2, 1, ppn=16)], rep=1).single.bandwidth_mib_s
        assert 0.9 < bw16 / bw8 < 1.0


class TestConcurrentRuns:
    def test_aggregate_matches_scaled_single(self, calib_s2, topo_s2):
        """Lesson 7's core: 2 apps x 8 OSTs aggregate ~ 1 app x 16 nodes."""
        engine = make_engine(calib_s2, topo_s2, stripe_count=8)
        apps = concurrent_applications(topo_s2, 2, nodes_per_app=8)
        concurrent = engine.run(apps, rep=0)
        single = engine.run([single_application(topo_s2, 16, ppn=8)], rep=0)
        ratio = concurrent.aggregate_bandwidth_mib_s / single.single.bandwidth_mib_s
        assert 0.9 < ratio < 1.2

    def test_individual_slowdown_from_sharing_bandwidth(self, calib_s2, topo_s2):
        engine = make_engine(calib_s2, topo_s2, stripe_count=8)
        apps = concurrent_applications(topo_s2, 2, nodes_per_app=8)
        concurrent = engine.run(apps, rep=0)
        alone = engine.run([single_application(topo_s2, 8, ppn=8)], rep=0)
        for app in concurrent.apps:
            assert app.bandwidth_mib_s < alone.single.bandwidth_mib_s

    def test_interleaved_creations_mixture(self, calib_s2, topo_s2):
        """With gaps of {0,1,2} background files, two stripe-4 apps
        share all targets in about one third of runs (Section IV-D)."""
        engine = make_engine(
            calib_s2, topo_s2, stripe_count=4, noise_enabled=True,
            interleaved_creations=(0, 1, 2),
        )
        shared = 0
        reps = 45
        for rep in range(reps):
            apps = concurrent_applications(topo_s2, 2, nodes_per_app=8)
            result = engine.run(apps, rep=rep)
            n = len(result.shared_targets())
            assert n in (0, 4)
            shared += n == 4
        assert 0.15 < shared / reps < 0.55
