"""Extension — larger file system deployments (future work).

"Future work directions include testing their validity in larger scale
systems, especially with larger file system deployments" (Section VI).
This experiment scales the deployment from 2 to 8 storage hosts (4
targets each, same per-host hardware; the system-wide ramp base scales
with the host count — a documented assumption) and asks whether the
paper's recommendations survive:

* does "use the maximum stripe count" still win as the target pool
  grows to 32?
* does the balanced chooser still dominate round-robin at partial
  stripe counts?
* does the node count needed for peak keep growing with deployment
  size (the Lesson 1/6 generalisation)?
"""

from __future__ import annotations

from dataclasses import replace

from ..beegfs.filesystem import BeeGFSDeploymentSpec
from ..beegfs.meta import DirectoryConfig
from ..calibration.plafrim import Calibration, scenario2
from ..figures.ascii import render_table
from ..methodology.plan import ExperimentSpec
from ..methodology.records import RecordStore
from ..scenario import ScenarioSpec
from ..service import BuiltScenario, register_builder
from ..stats.summary import describe
from ..topology.builders import build_platform, plafrim_spec
from ..workload.generator import single_application
from .common import sweep
from .registry import ExperimentInfo, register

EXP_ID = "scaleout"
TITLE = "Deployment scale-out: 2 to 8 storage hosts"
PAPER_REF = "Section VI (future work: larger deployments)"

NUM_HOSTS = (2, 4, 8)
NUM_NODES = 32
PPN = 8


def scaled_deployment(num_hosts: int, stripe_count: int, chooser: str) -> BeeGFSDeploymentSpec:
    """A PlaFRIM-style deployment with ``num_hosts`` x 4 targets."""
    servers = tuple(
        (f"storage{i + 1}", tuple(100 * (i + 1) + t for t in range(1, 5)))
        for i in range(num_hosts)
    )
    # The interleaved ordering generalises PlaFRIM's: first target of
    # each host, then the remaining targets host-major.
    ordering = [servers[0][1][0]]
    for host, tids in servers[1:]:
        ordering.extend(tids)
    ordering.extend(servers[0][1][1:])
    return BeeGFSDeploymentSpec(
        servers=servers,
        default_config=DirectoryConfig(stripe_count=stripe_count),
        default_chooser=chooser,
        target_ordering=tuple(ordering),
        keep_data=False,
    )


def scaled_calibration(num_hosts: int) -> Calibration:
    """Scenario 2 with the system ramp scaled to the host count."""
    base = scenario2()
    scale = num_hosts / 2.0
    return base.with_overrides(
        name=f"scenario2-{num_hosts}hosts",
        san=replace(base.san, base_mib_s=base.san.base_mib_s * scale),
    )


def _build_scaleout(scenario: ScenarioSpec) -> BuiltScenario:
    """Service builder for the scaled deployments (bespoke platform)."""
    from ..engine.des_runner import DESEngine
    from ..engine.fluid_runner import FluidEngine

    hosts = int(scenario.factor("num_hosts"))
    calib = scaled_calibration(hosts)
    platform_spec = replace(
        plafrim_spec(calib.network, NUM_NODES), num_storage_hosts=hosts
    )
    topology = build_platform(platform_spec)
    deployment = scaled_deployment(
        hosts, int(scenario.factor("stripe_count")), str(scenario.factor("chooser"))
    )
    engine_cls = {"fluid": FluidEngine, "des": DESEngine}[scenario.engine]
    engine = engine_cls(
        calib, topology, deployment, seed=scenario.seed, options=scenario.options
    )
    return BuiltScenario(
        engine=engine,
        topology=topology,
        make_apps=lambda: [single_application(topology, NUM_NODES, ppn=PPN)],
    )


register_builder("scaleout", _build_scaleout)


def specs() -> list[ExperimentSpec]:
    out: list[ExperimentSpec] = []
    for hosts in NUM_HOSTS:
        max_stripe = 4 * hosts
        out += sweep(
            EXP_ID,
            scenario="scenario2",
            num_hosts=hosts,
            stripe_count=tuple(sorted({1, 4, max_stripe // 2, max_stripe})),
            chooser=("roundrobin", "balanced"),
        )
    return out


def render(records: RecordStore) -> str:
    parts = []
    for hosts in NUM_HOSTS:
        sub = records.filter(num_hosts=hosts)
        if len(sub) == 0:
            continue
        rows = []
        for k in sorted(sub.factor_values("stripe_count")):
            rr = describe(sub.filter(stripe_count=k, chooser="roundrobin").bandwidths())
            bal = describe(sub.filter(stripe_count=k, chooser="balanced").bandwidths())
            rows.append([k, f"{rr.mean:.0f}+-{rr.std:.0f}", f"{bal.mean:.0f}+-{bal.std:.0f}"])
        parts.append(
            render_table(
                ["stripe", "roundrobin MiB/s", "balanced MiB/s"],
                rows,
                f"{hosts} storage hosts ({4 * hosts} targets), {NUM_NODES} nodes x {PPN} ppn",
            )
        )
    return "\n\n".join(parts)


register(
    ExperimentInfo(
        EXP_ID,
        TITLE,
        PAPER_REF,
        default_repetitions=40,
        specs=specs,
        render=render,
        builder="scaleout",
        notes="The maximum stripe count should win at every deployment size; "
        "balanced >= round-robin at partial counts; with 32 fixed nodes the "
        "biggest deployment is increasingly node-starved (Lesson 1 at scale).",
    )
)
