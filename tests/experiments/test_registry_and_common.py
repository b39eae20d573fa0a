"""Experiment registry, common machinery, and figure rendering."""

import pytest

from repro.cli import main
from repro.errors import ExperimentError, WorkloadError
from repro.experiments import get_experiment, list_experiments
from repro.experiments.common import default_apps_builder
from repro.methodology.plan import ExperimentSpec
from repro.methodology.runner import ProtocolRunner
from repro.scenario.compile import compile_scenario
from repro.service import ServiceExecutor, SimulationService
from repro.topology.builders import plafrim_omnipath
from repro.units import GiB


EXPECTED_IDS = {
    "fig2", "fig3", "fig4", "fig5", "fig6", "fig9", "fig11", "fig12", "fig13",
    "choosers", "lessons", "read", "patterns", "scaleout", "metadata", "chunksize", "interference",
    "faults",
}


class TestRegistry:
    def test_every_figure_registered(self):
        assert {info.exp_id for info in list_experiments()} == EXPECTED_IDS

    def test_lookup(self):
        info = get_experiment("fig6")
        assert "stripe count" in info.title
        assert info.default_repetitions == 100

    def test_unknown(self):
        with pytest.raises(ExperimentError):
            get_experiment("fig99")

    def test_infos_have_paper_refs(self):
        for info in list_experiments():
            assert info.paper_ref
            assert callable(info.run)

    def test_fig13_reports_progress(self):
        messages = []
        get_experiment("fig13").run(repetitions=2, seed=0, progress=messages.append)
        assert messages


SWEEPS = sorted(info.exp_id for info in list_experiments() if info.specs is not None)


class _Planned(Exception):
    """Stops a campaign once its runner has the plan and the scenarios."""


def _planned_fingerprints(monkeypatch, launch):
    """The scenario fingerprints a campaign would execute, in plan order."""
    seen = []

    def capture(self, plan, progress=None):
        seen.extend(self.executor.scenarios[run.spec.key].fingerprint for run in plan)
        raise _Planned

    monkeypatch.setattr(ProtocolRunner, "run", capture)
    with pytest.raises(_Planned):
        launch()
    return seen


class TestOneCampaignDefinition:
    """``repro submit`` compiles the scenarios ``repro run`` executes."""

    @pytest.mark.parametrize("exp_id", SWEEPS)
    def test_submit_plans_the_scenarios_run_sends(self, monkeypatch, exp_id):
        args = ["--reps", "2", "--seed", "3", "--quiet"]
        local = _planned_fingerprints(monkeypatch, lambda: main(["run", exp_id, *args]))
        remote = _planned_fingerprints(
            monkeypatch,
            lambda: main(["submit", exp_id, "--remote", "127.0.0.1:9", "--no-fallback", *args]),
        )
        assert local and remote == local


class TestDefaultAppsBuilder:
    def test_single_app_from_factors(self):
        topo = plafrim_omnipath(8)
        apps = default_apps_builder(topo, {"num_nodes": 4, "ppn": 8, "total_gib": 16})
        assert len(apps) == 1
        assert apps[0].num_nodes == 4
        assert apps[0].total_bytes == 16 * GiB

    def test_concurrent_apps_from_factors(self):
        topo = plafrim_omnipath(32)
        apps = default_apps_builder(topo, {"num_apps": 3, "nodes_per_app": 8, "ppn": 8})
        assert len(apps) == 3
        nodes = [n for a in apps for n in a.nodes]
        assert len(set(nodes)) == 24

    def test_unknown_pattern_rejected(self):
        topo = plafrim_omnipath(4)
        with pytest.raises(WorkloadError, match="n1-contiguous"):
            default_apps_builder(topo, {"pattern": "zigzag"})


class TestServiceExecution:
    """Planned specs compile once and run cache-off through the service."""

    @staticmethod
    def _executor(spec):
        return ServiceExecutor(scenarios={spec.key: compile_scenario(spec, seed=1)}, cache=False)

    def test_one_context_per_spec(self):
        spec = ExperimentSpec("e", "scenario1", {"stripe_count": 2, "num_nodes": 2, "total_gib": 1})
        other = ExperimentSpec("e", "scenario1", {"stripe_count": 4, "num_nodes": 2, "total_gib": 1})
        service = SimulationService()
        context = service.context(compile_scenario(spec, seed=1))
        assert service.context(compile_scenario(spec, seed=1)) is context
        assert service.context(compile_scenario(other, seed=1)) is not context

    def test_executes_and_varies_with_rep(self):
        spec = ExperimentSpec("e", "scenario2", {"stripe_count": 4, "num_nodes": 2, "total_gib": 2})
        executor = self._executor(spec)
        a = executor(spec, 0).single.bandwidth_mib_s
        b = executor(spec, 1).single.bandwidth_mib_s
        assert a != b

    def test_chooser_factor_respected(self):
        spec = ExperimentSpec(
            "e",
            "scenario1",
            {"stripe_count": 2, "chooser": "fixed:201,202", "num_nodes": 2, "total_gib": 1},
        )
        result = self._executor(spec)(spec, 0)
        assert result.single.targets == (201, 202)
        assert result.single.placement == (0, 2)
