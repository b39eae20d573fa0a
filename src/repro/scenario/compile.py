"""Lowering entry-point configurations into the scenario IR.

:func:`compile_scenario` is the single pass every caller goes through:
an :class:`~repro.methodology.plan.ExperimentSpec` (the sweep tables'
unit) plus the campaign-level knobs (seed, engine options, platform
size, deployment builder) become one frozen
:class:`~repro.scenario.spec.ScenarioSpec`.  The factor vocabulary the
paper's experiments sweep lives here too, as
:func:`default_apps_builder` — the standard interpretation of a factor
dict as IOR applications on a topology.  :func:`compile_campaign` is
the campaign-level pass: the plan plus one scenario per spec, shared by
local (``run_specs``) and remote (``remote_run_specs``) campaigns.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..engine.base import EngineOptions
from ..methodology.plan import ExperimentPlan, ExperimentSpec
from ..methodology.protocol import ProtocolConfig
from ..topology.graph import Topology
from ..units import GiB, MiB
from ..workload.application import Application
from ..workload.generator import concurrent_applications, single_application
from ..workload.patterns import pattern_by_name
from .spec import ScenarioSpec

__all__ = ["compile_campaign", "compile_scenario", "default_apps_builder"]


def default_apps_builder(topology: Topology, factors: Mapping[str, Any]) -> list[Application]:
    """Build the applications a factor dict describes.

    ==================  =========================================================
    factor              meaning (default)
    ==================  =========================================================
    ``num_nodes``       compute nodes of the application (8)
    ``ppn``             processes per node (8)
    ``total_gib``       total data volume in GiB (32)
    ``transfer_mib``    IOR transfer size in MiB (1)
    ``pattern``         access pattern name (``n1-contiguous``)
    ``operation``       ``write`` (default) or ``read``
    ``num_apps``        concurrent applications on disjoint node sets (1)
    ``nodes_per_app``   nodes of each concurrent application (``num_nodes``)
    ==================  =========================================================

    (``stripe_count``, ``chooser`` and ``chunk_kib`` are deployment
    factors, consumed by the scenario builders instead.)
    """
    num_nodes = int(factors.get("num_nodes", 8))
    ppn = int(factors.get("ppn", 8))
    total_bytes = int(float(factors.get("total_gib", 32)) * GiB)
    transfer = int(float(factors.get("transfer_mib", 1)) * MiB)
    pattern = pattern_by_name(str(factors.get("pattern", "n1-contiguous")))
    operation = str(factors.get("operation", "write"))
    num_apps = int(factors.get("num_apps", 1))
    if num_apps == 1:
        return [
            single_application(
                topology,
                num_nodes,
                ppn=ppn,
                total_bytes=total_bytes,
                transfer_size=transfer,
                pattern=pattern,
                operation=operation,
            )
        ]
    nodes_per_app = int(factors.get("nodes_per_app", num_nodes))
    return concurrent_applications(
        topology,
        num_apps,
        nodes_per_app=nodes_per_app,
        ppn=ppn,
        total_bytes_each=total_bytes,
        transfer_size=transfer,
        pattern=pattern,
    )


def compile_scenario(
    spec: ExperimentSpec,
    *,
    seed: int = 0,
    options: EngineOptions = EngineOptions(),
    max_nodes: int = 32,
    engine: str = "fluid",
    builder: str = "standard",
) -> ScenarioSpec:
    """Lower an experiment-level spec plus campaign knobs to the IR."""
    return ScenarioSpec(
        exp_id=spec.exp_id,
        scenario=spec.scenario,
        factors=dict(spec.factors),
        engine=engine,
        builder=builder,
        seed=int(seed),
        max_nodes=int(max_nodes),
        options=options,
    )


def compile_campaign(
    specs: Sequence[ExperimentSpec],
    repetitions: int,
    *,
    seed: int = 0,
    options: EngineOptions = EngineOptions(),
    max_nodes: int = 32,
    builder: str = "standard",
) -> tuple[ExperimentPlan, dict[str, ScenarioSpec]]:
    """A sweep's protocol plan and its compiled scenarios, keyed by spec.

    The plan follows :meth:`ProtocolConfig.for_repetitions`; every spec
    is lowered once with the same campaign knobs.
    """
    plan = ExperimentPlan.build(specs, ProtocolConfig.for_repetitions(repetitions), seed=seed)
    scenarios = {
        spec.key: compile_scenario(
            spec, seed=seed, options=options, max_nodes=max_nodes, builder=builder
        )
        for spec in specs
    }
    return plan, scenarios
