"""Max-min fairness: exactness on known cases plus invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.netsim.maxmin import (
    MaxMinSolver,
    fairness_violations,
    max_min_rates,
    solve_with_caps,
)


class TestKnownAllocations:
    def test_single_resource_equal_split(self):
        rates = max_min_rates([[0], [0], [0]], [90.0])
        assert rates.tolist() == [30.0, 30.0, 30.0]

    def test_classic_three_flow_example(self):
        # Two links of 10; flow A crosses both, B only link0, C only link1.
        rates = max_min_rates([[0, 1], [0], [1]], [10.0, 10.0])
        assert rates.tolist() == [5.0, 5.0, 5.0]

    def test_bottleneck_freeing(self):
        # link0 tight (10), link1 loose (100): the shared flow is stuck
        # at 5, the private flow on link1 gets the rest.
        rates = max_min_rates([[0, 1], [0], [1]], [10.0, 100.0])
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(95.0)

    def test_unbalanced_server_links(self):
        # The paper's (1,3) story: 4 flows, one to server A, three to
        # server B, both server links 1100.
        rates = max_min_rates([[0], [1], [1], [1]], [1100.0, 1100.0])
        assert rates[0] == pytest.approx(1100.0)
        assert rates[1:].sum() == pytest.approx(1100.0)

    def test_zero_capacity_resource(self):
        rates = max_min_rates([[0], [1]], [0.0, 10.0])
        assert rates.tolist() == [0.0, 10.0]

    def test_flow_caps_respected(self):
        rates = max_min_rates([[0], [0]], [100.0], flow_caps=[10.0, np.inf])
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(90.0)

    def test_no_flows(self):
        assert max_min_rates([], [10.0]).size == 0

    def test_unbounded_rejected(self):
        with pytest.raises(FlowError):
            max_min_rates([[0]], [np.inf])

    def test_flow_without_resources_rejected(self):
        with pytest.raises(FlowError):
            max_min_rates([[]], [10.0])

    def test_bad_resource_index(self):
        with pytest.raises(FlowError):
            max_min_rates([[5]], [10.0])

    def test_negative_capacity_rejected(self):
        with pytest.raises(FlowError):
            max_min_rates([[0]], [-1.0])


@st.composite
def maxmin_problem(draw):
    nres = draw(st.integers(1, 6))
    nflows = draw(st.integers(1, 12))
    caps = draw(
        st.lists(st.floats(0.5, 1000.0), min_size=nres, max_size=nres)
    )
    memberships = [
        draw(st.sets(st.integers(0, nres - 1), min_size=1, max_size=nres))
        for _ in range(nflows)
    ]
    return [sorted(m) for m in memberships], np.array(caps)


class TestInvariants:
    @given(maxmin_problem())
    @settings(max_examples=80, deadline=None)
    def test_feasibility_and_saturation(self, problem):
        memberships, caps = problem
        rates = max_min_rates(memberships, caps)
        # Feasibility: no resource over capacity.
        usage = np.zeros(len(caps))
        for m, r in zip(memberships, rates):
            for i in m:
                usage[i] += r
        assert np.all(usage <= caps * (1 + 1e-6) + 1e-6)
        # Max-min property: every flow crosses at least one saturated
        # resource (otherwise it could be raised).
        for m, r in zip(memberships, rates):
            assert any(usage[i] >= caps[i] - 1e-5 for i in m), (m, r, usage, caps)

    @given(maxmin_problem())
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, problem):
        """Flows with identical memberships get identical rates."""
        memberships, caps = problem
        rates = max_min_rates(memberships, caps)
        seen = {}
        for m, r in zip(memberships, rates):
            key = tuple(m)
            if key in seen:
                assert r == pytest.approx(seen[key], rel=1e-6, abs=1e-6)
            seen[key] = r

    @given(maxmin_problem())
    @settings(max_examples=50, deadline=None)
    def test_scaling_invariance(self, problem):
        """Doubling all capacities doubles all rates."""
        memberships, caps = problem
        r1 = max_min_rates(memberships, caps)
        r2 = max_min_rates(memberships, caps * 2.0)
        assert np.allclose(r2, 2.0 * r1, rtol=1e-6, atol=1e-6)

    @given(maxmin_problem())
    @settings(max_examples=80, deadline=None)
    def test_conservation(self, problem):
        """Per-resource conservation: usage is exactly the summed member rates,
        and total delivered rate never exceeds what any cut of saturated
        resources admits."""
        memberships, caps = problem
        rates = max_min_rates(memberships, caps)
        assert np.all(rates >= 0.0)
        usage = np.zeros(len(caps))
        for m, r in zip(memberships, rates):
            for i in m:
                usage[i] += r
        # Every flow's rate is counted once per resource it crosses —
        # re-deriving usage from scratch must agree bit-for-bit.
        usage2 = np.zeros(len(caps))
        for m, r in zip(memberships, rates):
            usage2[list(m)] += r
        assert np.allclose(usage, usage2, rtol=0, atol=1e-9)
        assert np.all(usage <= caps * (1 + 1e-6) + 1e-6)

    @given(maxmin_problem())
    @settings(max_examples=80, deadline=None)
    def test_fairness_certificate(self, problem):
        """The machine-checkable certificate the runtime checker uses:
        no flow can be raised without breaking a constraint."""
        memberships, caps = problem
        rates = max_min_rates(memberships, caps)
        assert fairness_violations(memberships, caps, rates) == []

    @given(maxmin_problem(), st.lists(st.floats(0.1, 500.0), min_size=1, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_fairness_certificate_with_flow_caps(self, problem, raw_caps):
        memberships, caps = problem
        flow_caps = np.array(
            [raw_caps[i % len(raw_caps)] for i in range(len(memberships))]
        )
        rates = max_min_rates(memberships, caps, flow_caps=flow_caps)
        assert np.all(rates <= flow_caps * (1 + 1e-9) + 1e-9)
        assert fairness_violations(memberships, caps, rates, flow_caps) == []

    def test_fairness_certificate_flags_underallocation(self):
        """An allocation that leaves headroom for some flow must be flagged."""
        memberships = [[0], [0]]
        caps = np.array([100.0])
        assert fairness_violations(memberships, caps, np.array([20.0, 20.0])) == [0, 1]
        assert fairness_violations(memberships, caps, np.array([50.0, 50.0])) == []


class TestSolveWithCaps:
    def test_none_cap_fn(self):
        rates = solve_with_caps([[0]], [10.0], None)
        assert rates[0] == 10.0

    def test_shrinking_cap_converges_not_to_zero(self):
        """The blocking-request-style cap must not spiral downward."""

        def cap_fn(rates):
            # achieved(r) = r * 1 / (1 + 0.1 r): strictly below r.
            return rates / (1.0 + 0.1 * rates)

        rates = solve_with_caps([[0], [0]], [100.0], cap_fn, iterations=10)
        # Offered share is 50 each -> achieved cap = 50/6 each; a naive
        # fixpoint on its own output would collapse toward 0.
        assert np.all(rates > 8.0)
        assert np.all(rates <= 50.0 / (1 + 0.1 * 50.0) + 1e-9)

    def test_freed_capacity_redistributes(self):
        def cap_fn(rates):
            # Cap the first flow hard; the second is uncapped.
            return np.array([5.0, np.inf])

        rates = solve_with_caps([[0], [0]], [100.0], cap_fn)
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(95.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(FlowError):
            solve_with_caps([[0]], [10.0], lambda r: np.ones(3))

    def test_non_converging_cap_fn_terminates(self):
        """A cap_fn that keeps raising its answer never reaches the
        fixpoint tolerance; the loop must still stop at ``iterations``
        and return a feasible allocation."""
        calls = {"n": 0}

        def cap_fn(rates):
            calls["n"] += 1
            # Strictly rising caps on every evaluation: no fixpoint.
            return rates + calls["n"]

        rates = solve_with_caps([[0], [0]], [100.0], cap_fn, iterations=3)
        # Seed evaluation + one per iteration, no runaway.
        assert calls["n"] <= 4
        assert rates.sum() <= 100.0 * (1 + 1e-6) + 1e-6
        assert np.all(rates >= 0.0)

    def test_zero_capacity_resource_with_caps(self):
        """A flow pinned to a dead resource stays at zero even when the
        cap_fn offers it headroom, and doesn't poison the live flow."""

        def cap_fn(rates):
            return np.array([50.0, 50.0])

        rates = solve_with_caps([[0], [1]], [0.0, 80.0], cap_fn, iterations=5)
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(50.0)
        # The certificate accepts the allocation: flow 0 saturates the
        # dead resource, flow 1 its own cap.
        assert fairness_violations([[0], [1]], np.array([0.0, 80.0]), rates, np.array([50.0, 50.0])) == []

    def test_all_flows_on_zero_capacity(self):
        rates = solve_with_caps([[0], [0]], [0.0], lambda r: r + 1.0, iterations=4)
        assert rates.tolist() == [0.0, 0.0]


class TestMaxMinSolver:
    """The persistent solver: incidence reuse, batched lanes, equivalence."""

    def problem(self, seed=0, nflows=24, nres=8):
        rng = np.random.default_rng(seed)
        memberships = [
            sorted(int(r) for r in rng.choice(nres, size=3, replace=False))
            for _ in range(nflows)
        ]
        return memberships, rng.uniform(10.0, 1000.0, nres)

    def test_matches_one_shot_solver(self):
        memberships, caps = self.problem()
        solver = MaxMinSolver(memberships, caps.shape[0])
        for scale in (1.0, 0.5, 2.0):
            np.testing.assert_array_equal(
                solver.solve(caps * scale), max_min_rates(memberships, caps * scale)
            )

    def test_matches_one_shot_with_flow_caps(self):
        memberships, caps = self.problem()
        flow_caps = np.linspace(1.0, 200.0, len(memberships))
        solver = MaxMinSolver(memberships, caps.shape[0])
        np.testing.assert_array_equal(
            solver.solve(caps, flow_caps),
            max_min_rates(memberships, caps, flow_caps),
        )

    def test_results_are_read_only(self):
        """The incidence matrix is shared by every solve of the population."""
        memberships, caps = self.problem()
        solver = MaxMinSolver(memberships, caps.shape[0])
        assert solver.incidence.flags.writeable is False

    def test_wrong_capacity_shape_rejected(self):
        memberships, caps = self.problem()
        solver = MaxMinSolver(memberships, caps.shape[0])
        with pytest.raises(FlowError):
            solver.solve(caps[:-1])

    def test_wrong_flow_caps_shape_rejected(self):
        memberships, caps = self.problem()
        solver = MaxMinSolver(memberships, caps.shape[0])
        with pytest.raises(FlowError):
            solver.solve(caps, np.ones(3))

    def test_construction_validates_memberships(self):
        with pytest.raises(FlowError):
            MaxMinSolver([[0], []], 2)
        with pytest.raises(FlowError):
            MaxMinSolver([[7]], 2)

    @given(maxmin_problem())
    @settings(max_examples=50, deadline=None)
    def test_property_equivalence(self, problem):
        memberships, caps = problem
        solver = MaxMinSolver(memberships, len(caps))
        np.testing.assert_array_equal(
            solver.solve(caps), max_min_rates(memberships, caps)
        )
        # Each lane of a stacked solve is bit-identical to a scalar
        # solve of that lane, uncapped and under per-flow caps.
        lanes = np.stack([caps * scale for scale in (1.0, 0.37, 2.5, 1e-3)])
        flow_caps = np.stack(
            [np.linspace(0.1, 300.0, len(memberships)) * (b + 1) for b in range(len(lanes))]
        )
        flow_caps[1, ::2] = np.inf
        np.testing.assert_array_equal(
            solver.solve_batch(lanes), np.stack([solver.solve(row) for row in lanes])
        )
        np.testing.assert_array_equal(
            solver.solve_batch(lanes, flow_caps),
            np.stack([solver.solve(row, fc) for row, fc in zip(lanes, flow_caps)]),
        )


class TestVectorizedCertificate:
    """Edge semantics of the vectorized fairness_violations."""

    def test_empty_problem(self):
        assert fairness_violations([], np.zeros(0), np.zeros(0)) == []

    def test_wrong_rates_length_rejected(self):
        with pytest.raises(FlowError):
            fairness_violations([[0]], [10.0], [1.0, 2.0])

    def test_wrong_flow_caps_length_rejected(self):
        with pytest.raises(FlowError):
            fairness_violations([[0]], [10.0], [10.0], flow_caps=[1.0, 2.0])

    def test_infinite_flow_caps_do_not_hold_flows(self):
        # inf caps never count as a binding constraint.
        violations = fairness_violations(
            [[0], [0]], [100.0], [20.0, 20.0], flow_caps=[np.inf, np.inf]
        )
        assert violations == [0, 1]

    def test_duplicate_resource_memberships_count_per_occurrence(self):
        # A flow listed twice on one resource contributes its rate twice,
        # matching the scalar accumulation it replaced.
        violations = fairness_violations([[0, 0]], [100.0], [50.0])
        assert violations == []

    def test_zero_capacity_resource_counts_as_saturated(self):
        assert fairness_violations([[0]], [0.0], [0.0]) == []
