"""Request-level DES engine."""

import json
from collections import Counter

import pytest

import repro.engine.des_runner as des_runner
from repro.engine.des_runner import DESEngine
from repro.engine.base import EngineOptions
from repro.errors import ExperimentError
from repro.faults.inject import FaultyCapacity
from repro.netsim.maxmin import MaxMinSolver
from repro.scenario.compile import compile_scenario
from repro.service import SimulationService
from repro.units import GiB, MiB
from repro.verify.replay import result_fingerprint
from repro.workload.generator import concurrent_applications, single_application
from tests.verify.test_engine_fingerprints import CORPUS, GOLDEN, REPS, SEED


def des(calib, topo, stripe_count=4, **opts):
    options = EngineOptions(noise_enabled=False, **opts)
    return DESEngine(calib, topo, calib.deployment(stripe_count=stripe_count), seed=0, options=options)


class TestBasics:
    def test_small_run_completes(self, calib_s1, topo_s1):
        engine = des(calib_s1, topo_s1)
        app = single_application(topo_s1, 2, ppn=2, total_bytes=64 * MiB)
        result = engine.run([app], rep=0)
        assert result.single.volume_bytes == 64 * MiB
        assert result.single.duration > 0
        assert result.segments > 0

    def test_reproducible(self, calib_s1, topo_s1):
        engine = des(calib_s1, topo_s1)
        app = single_application(topo_s1, 2, ppn=2, total_bytes=32 * MiB)
        a = engine.run([app], rep=3).single.bandwidth_mib_s
        b = engine.run([app], rep=3).single.bandwidth_mib_s
        assert a == b

    def test_request_budget_guard(self, calib_s1, topo_s1):
        engine = des(calib_s1, topo_s1)
        app = single_application(topo_s1, 8, ppn=8, total_bytes=200 * GiB)
        with pytest.raises(ExperimentError):
            engine.run([app], rep=0)

    def test_concurrent_apps(self, calib_s2, topo_s2):
        engine = des(calib_s2, topo_s2, stripe_count=8)
        apps = concurrent_applications(topo_s2, 2, nodes_per_app=2, ppn=2, total_bytes_each=64 * MiB)
        result = engine.run(apps, rep=0)
        assert len(result.apps) == 2
        assert result.aggregate_bandwidth_mib_s > 0

    def test_balanced_beats_single_server_des(self, calib_s1, topo_s1):
        """The Figure 9 effect reproduced at request level."""

        def run(chooser):
            options = EngineOptions(noise_enabled=False, include_metadata_overhead=False)
            engine = DESEngine(
                calib_s1, topo_s1,
                calib_s1.deployment(stripe_count=2, chooser=chooser),
                seed=0, options=options,
            )
            app = single_application(topo_s1, 4, ppn=4, total_bytes=256 * MiB)
            return engine.run([app], rep=0).single.bandwidth_mib_s

        assert run("fixed:101,201") > 1.6 * run("fixed:201,202")


class TestDESWithNoise:
    def test_noisy_run_completes_and_varies(self, calib_s2, topo_s2):
        options = EngineOptions(noise_enabled=True)
        engine = DESEngine(
            calib_s2, topo_s2, calib_s2.deployment(stripe_count=4), seed=0, options=options
        )
        app = single_application(topo_s2, 2, ppn=2, total_bytes=128 * MiB)
        values = {round(engine.run([app], rep=r).single.bandwidth_mib_s, 2) for r in range(3)}
        assert len(values) > 1
        assert all(v > 100 for v in values)


def _golden_case(name):
    """A DES case of the engine-fingerprint golden, compiled, and its pinned fingerprints."""
    case = next(c for c in CORPUS if c.name == name)
    scenario = compile_scenario(
        case.spec, seed=SEED, options=case.options, max_nodes=case.max_nodes, engine=case.engine
    )
    return scenario, json.loads(GOLDEN.read_text())["cases"][name]


@pytest.fixture
def solves(monkeypatch):
    """The ``MaxMinSolver.solve`` calls made while the test runs, one entry each."""
    calls = []
    solve = MaxMinSolver.solve
    monkeypatch.setattr(MaxMinSolver, "solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


class TestPerRunMemo:
    """An event pays only for what changed since an earlier event of its run."""

    def test_events_that_repeat_a_pair_reuse_its_solve(self, solves):
        # The perfbench des-run shape: scenario 1, 2 nodes x 4 ppn, stripe 4, 64 MiB.
        scenario, golden = _golden_case("des-s1-n2-stripe4")
        for rep in REPS:
            solves.clear()
            result = SimulationService().run(scenario, rep, cache=False)
            assert 0 < len(solves) < result.segments
            assert result_fingerprint(result) == golden[str(rep)]

    def test_a_full_memo_starts_over(self, solves, monkeypatch):
        scenario, golden = _golden_case("des-s1-n2-stripe4")
        SimulationService().run(scenario, 0, cache=False)
        unbounded = len(solves)
        monkeypatch.setattr(des_runner, "_SOLVED_LIMIT", 4)
        solves.clear()
        result = SimulationService().run(scenario, 0, cache=False)
        assert unbounded < len(solves) < result.segments
        assert result_fingerprint(result) == golden["0"]

    def test_fault_wrapped_providers_are_called_every_segment(self, monkeypatch):
        scenario, golden = _golden_case("des-faults-outage-retry")
        calls = Counter()
        capacity = FaultyCapacity.capacity

        def counted(self, ctx):
            calls[self.resource_id] += 1
            return capacity(self, ctx)

        monkeypatch.setattr(FaultyCapacity, "capacity", counted)
        for rep in REPS:
            calls.clear()
            result = SimulationService().run(scenario, rep, cache=False)
            assert calls and set(calls.values()) == {result.segments}
            assert result_fingerprint(result) == golden[str(rep)]
