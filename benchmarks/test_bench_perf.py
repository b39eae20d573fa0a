"""Benchmarks of the optimized hot paths and the parallel runner.

These cover what ``repro bench`` tracks in ``BENCH_<rev>.json``, but as
pytest-benchmark cases so regressions show up in the same harness as the
figure benches: the persistent max-min solver (incidence reuse), the
vectorized fairness certificate, the fluid engine's per-run hot path
with its engines built once, and a reduced serial-vs-parallel campaign
whose stores must stay byte-identical.  Runs compile their specs with
``compile_scenario`` and execute through the simulation service with the
result cache off, so every timed run executes.
"""

import json

import numpy as np

from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.runner import ProtocolRunner
from repro.methodology.parallel import ParallelProtocolRunner
from repro.netsim.maxmin import MaxMinSolver, fairness_violations, max_min_rates
from repro.scenario.compile import compile_scenario
from repro.service import ServiceExecutor, get_service

_NFLOWS, _NRES = 256, 60


def _solver_problem():
    rng = np.random.default_rng(0)
    memberships = [
        sorted(int(r) for r in rng.choice(_NRES, size=7, replace=False))
        for _ in range(_NFLOWS)
    ]
    return memberships, rng.uniform(500.0, 12000.0, _NRES)


def test_bench_solver_persistent(benchmark):
    """Repeated solves over one incidence matrix (the fluid segment loop)."""
    memberships, capacities = _solver_problem()
    solver = MaxMinSolver(memberships, _NRES)
    varied = [capacities * (1.0 + 0.001 * i) for i in range(64)]
    state = {"i": 0}

    def solve_next():
        state["i"] += 1
        return solver.solve(varied[state["i"] % len(varied)])

    rates = benchmark(solve_next)
    assert rates.shape == (_NFLOWS,)
    np.testing.assert_allclose(
        solver.solve(capacities), max_min_rates(memberships, capacities)
    )


def test_bench_fairness_certificate(benchmark):
    """The vectorized max-min witness over a solved allocation."""
    memberships, capacities = _solver_problem()
    rates = max_min_rates(memberships, capacities)
    violations = benchmark(lambda: fairness_violations(memberships, capacities, rates))
    assert violations == []


def test_bench_fluid_hot_path(benchmark):
    """Warm-engine fluid runs at paper scale (32 nodes x 8 ppn, stripe 8)."""
    spec = compile_scenario(
        ExperimentSpec(
            exp_id="bench",
            scenario="scenario1",
            factors={"num_nodes": 32, "ppn": 8, "stripe_count": 8},
        ),
        seed=7,
    )
    service = get_service()
    service.run(spec, 0, cache=False)  # engine construction + cold caches out of the timing
    state = {"rep": 0}

    def run_next():
        state["rep"] += 1
        return service.run(spec, state["rep"], cache=False)

    result = benchmark(run_next)
    assert result.aggregate_bandwidth_mib_s > 1000


_CAMPAIGN_SPECS = [
    ExperimentSpec(
        exp_id="bench",
        scenario="scenario1",
        factors={"num_nodes": 32, "ppn": 8, "stripe_count": s},
    )
    for s in (4, 8)
]


def _campaign_plan():
    return ExperimentPlan.build(_CAMPAIGN_SPECS, ProtocolConfig(repetitions=5), seed=7)


def _executor():
    return ServiceExecutor(
        scenarios={spec.key: compile_scenario(spec, seed=7) for spec in _CAMPAIGN_SPECS},
        cache=False,
        seed=7,
    )


def test_bench_campaign_serial(benchmark):
    """A reduced 2-spec x 5-rep protocol campaign, serial."""
    plan = _campaign_plan()
    executor = _executor()
    store = benchmark.pedantic(
        lambda: ProtocolRunner(executor).run(plan), rounds=3, iterations=1
    )
    assert len(store) == 10


def test_bench_campaign_parallel_equivalence(benchmark, tmp_path):
    """Parallel execution must stay byte-identical to serial, and is timed."""
    plan = _campaign_plan()
    serial = ProtocolRunner(_executor()).run(plan)

    def parallel_run():
        return ParallelProtocolRunner(_executor(), n_workers=2).run(plan)

    store = benchmark.pedantic(parallel_run, rounds=1, iterations=1)
    a, b = tmp_path / "serial.json", tmp_path / "parallel.json"
    serial.write_json(a)
    store.write_json(b)
    assert json.loads(a.read_text()) == json.loads(b.read_text())
