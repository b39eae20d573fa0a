"""Per-(node, target) flow volumes, depth weights and process shares.

``EngineBase.prepare`` sums each node's ranks once per file geometry and
maps the sums onto the repetition's placement.  The reference here is
the per-rank loop it replaced: every rank walks its own regions and
adds bytes, ``e/k`` and ``1/k`` to each (node, target) it touches, in
rank order.  The two must agree bit for bit.  An independent oracle
checks the volumes against the files' striping.
"""

from __future__ import annotations

import pytest

from repro.engine.base import _EXACT_REGION_LIMIT, EngineOptions
from repro.engine.fluid_runner import FluidEngine
from repro.experiments import list_experiments
from repro.scenario.compile import compile_scenario
from repro.service import SimulationService
from repro.units import GiB, KiB, MiB
from repro.workload.application import Application, allocate_nodes
from repro.workload.generator import concurrent_applications, single_application
from repro.workload.patterns import AccessPattern, IORConfig

NODES = 4
TOTAL = 3 * GiB // 2


def regions_per_rank(config: IORConfig) -> int:
    per_segment = config.transfers_per_block if config.pattern is AccessPattern.N1_STRIDED else 1
    return config.segments * per_segment


def per_target_volume(app: Application, rank: int, inode) -> dict[int, float]:
    """Bytes of ``rank``'s writes on each target of its file."""
    pattern = inode.pattern
    if regions_per_rank(app.config) > _EXACT_REGION_LIMIT:
        share = app.config.bytes_per_process / pattern.stripe_count
        return {t: share for t in pattern.targets}
    out: dict[int, float] = {}
    for region in app.config.regions(rank, app.nprocs):
        for t, n in pattern.bytes_per_target(region.length, region.offset).items():
            if n:
                out[t] = out.get(t, 0.0) + n
    return out


def reference_flows(prepared, calibration) -> dict[str, tuple[str, str, str]]:
    """``{flow id: (volume, weight, nprocs)}`` as ``float.hex``, from the per-rank loop."""
    out = {}
    for app in prepared.apps:
        inodes = prepared.inodes[app.app_id]
        volumes: dict[tuple[str, int], float] = {}
        weights: dict[tuple[str, int], float] = {}
        nprocs_w: dict[tuple[str, int], float] = {}
        for node in app.nodes:
            for rank in app.ranks_of_node(node):
                inode = inodes[None] if None in inodes else inodes[rank]
                k = inode.pattern.stripe_count
                e = max(1, app.config.transfer_size // inode.pattern.chunk_size)
                for tid, nbytes in per_target_volume(app, rank, inode).items():
                    volumes[(node, tid)] = volumes.get((node, tid), 0.0) + nbytes
                    weights[(node, tid)] = weights.get((node, tid), 0.0) + e / k
                    nprocs_w[(node, tid)] = nprocs_w.get((node, tid), 0.0) + 1.0 / k
        slot_cap = calibration.client.max_inflight_requests / prepared.app_stripe[app.app_id]
        for (node, tid), volume in volumes.items():
            out[f"{app.app_id}:{node}:{tid}"] = (
                volume.hex(),
                min(weights[(node, tid)], slot_cap).hex(),
                nprocs_w[(node, tid)].hex(),
            )
    return out


def prepared_flows(prepared) -> dict[str, tuple[str, str, str]]:
    return {
        f.flow_id: (float(f.volume_bytes).hex(), float(f.weight).hex(), float(f.nprocs).hex())
        for f in prepared.flows
    }


def make_engine(calib, topo, stripe_count=4, chunk_size=512 * KiB, **options) -> FluidEngine:
    deployment = calib.deployment(stripe_count=stripe_count, chunk_size=chunk_size)
    return FluidEngine(calib, topo, deployment, seed=11, options=EngineOptions(**options))


def assert_matches_reference(engine, apps, reps=(0, 1)) -> None:
    # The second repetition places the files anew but reuses the sums.
    for rep in reps:
        prepared = engine.prepare(apps, rep)
        assert prepared_flows(prepared) == reference_flows(prepared, engine.calibration)


PATTERNS = (AccessPattern.N1_CONTIGUOUS, AccessPattern.N1_STRIDED, AccessPattern.NN)
CHUNKS = (128 * KiB, 512 * KiB, MiB)


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.value)
@pytest.mark.parametrize("chunk_size", CHUNKS, ids=lambda c: f"{c // KiB}k")
@pytest.mark.parametrize("stripe_count", range(1, 9))
@pytest.mark.parametrize("ppn", (1, 3, 8))
def test_node_sums_match_per_rank_loop(calib_s2, topo_s2, pattern, chunk_size, stripe_count, ppn):
    engine = make_engine(calib_s2, topo_s2, stripe_count, chunk_size)
    app = single_application(topo_s2, NODES, ppn=ppn, total_bytes=TOTAL, pattern=pattern)
    assert regions_per_rank(app.config) <= _EXACT_REGION_LIMIT
    assert_matches_reference(engine, [app])


@pytest.mark.parametrize(
    "config",
    [
        IORConfig(block_size=MiB, segments=_EXACT_REGION_LIMIT + 1),
        IORConfig(
            block_size=(_EXACT_REGION_LIMIT + 1) * 64 * KiB,
            transfer_size=64 * KiB,
            pattern=AccessPattern.N1_STRIDED,
        ),
        IORConfig(block_size=MiB, segments=_EXACT_REGION_LIMIT + 1, pattern=AccessPattern.NN),
    ],
    ids=["contiguous", "strided", "file-per-process"],
)
def test_uniform_approximation_beyond_region_limit(calib_s2, topo_s2, config):
    assert regions_per_rank(config) > _EXACT_REGION_LIMIT
    engine = make_engine(calib_s2, topo_s2, stripe_count=3)
    app = Application("big", allocate_nodes(topo_s2, 2), ppn=3, config=config)
    assert_matches_reference(engine, [app])
    # Every rank puts an equal share on each of its file's targets, so
    # a flow carries a whole number of shares (a region walk would not).
    share = config.bytes_per_process / 3
    for flow in engine.prepare([app], 0).flows:
        shares = flow.volume_bytes / share
        assert shares >= 1 and shares == pytest.approx(round(shares), rel=1e-9)


def test_two_apps_with_interleaved_creations(calib_s2, topo_s2):
    engine = make_engine(calib_s2, topo_s2, stripe_count=3, interleaved_creations=(0, 1, 2))
    apps = concurrent_applications(topo_s2, 2, nodes_per_app=NODES, ppn=3, total_bytes_each=TOTAL)
    assert_matches_reference(engine, apps, reps=range(6))


def _declarative_specs():
    for info in list_experiments():
        if info.specs is None:
            continue
        for spec in info.specs():
            yield spec, info.builder


def test_volume_per_target_is_the_files_striping():
    """Summed over nodes, each app's volume on a target is what its files stripe there."""
    service = SimulationService()
    checked = 0
    for spec, builder in _declarative_specs():
        ctx = service.context(compile_scenario(spec, builder=builder))
        apps = ctx.make_apps()
        if any(regions_per_rank(app.config) > _EXACT_REGION_LIMIT for app in apps):
            continue
        prepared = ctx.engine.prepare(apps, 0)
        got: dict[tuple[str, int], float] = {}
        for flow in prepared.flows:
            key = (flow.tags["app"], flow.tags["target"])
            got[key] = got.get(key, 0.0) + flow.volume_bytes
        expected: dict[tuple[str, int], int] = {}
        for app in prepared.apps:
            file_size = app.config.file_size(app.nprocs)
            for inode in prepared.inodes[app.app_id].values():
                for tid, nbytes in inode.pattern.bytes_per_target(file_size).items():
                    expected[(app.app_id, tid)] = expected.get((app.app_id, tid), 0) + nbytes
        assert got == {key: float(n) for key, n in expected.items() if n}, spec.key
        checked += 1
    assert checked > 100
