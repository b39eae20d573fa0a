"""Experiment plans: the Section III-C protocol mechanics."""

import pytest

from repro.errors import ExperimentError
from repro.methodology.plan import ExperimentPlan, ExperimentSpec, PlannedRun
from repro.methodology.protocol import ProtocolConfig


def specs(n=3):
    return [
        ExperimentSpec("fig6", "scenario1", {"stripe_count": k + 1}) for k in range(n)
    ]


class TestSpec:
    def test_key_is_stable_and_sorted(self):
        a = ExperimentSpec("e", "s", {"b": 2, "a": 1})
        b = ExperimentSpec("e", "s", {"a": 1, "b": 2})
        assert a.key == b.key
        assert "a=1" in a.key and a.key.index("a=1") < a.key.index("b=2")

    def test_empty_id_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec("", "s")

    def test_negative_rep_rejected(self):
        with pytest.raises(ExperimentError):
            PlannedRun(ExperimentSpec("e", "s"), rep=-1)


class TestPlanBuild:
    def test_paper_protocol_structure(self):
        """100 reps in blocks of 10 -> 10 blocks per configuration."""
        protocol = ProtocolConfig()  # the paper's defaults
        plan = ExperimentPlan.build(specs(2), protocol, seed=1)
        assert plan.num_runs == 200
        assert len(plan.blocks) == 20
        assert all(len(b) == 10 for b in plan.blocks)

    def test_blocks_are_homogeneous(self):
        plan = ExperimentPlan.build(specs(3), ProtocolConfig(repetitions=20), seed=1)
        for block in plan.blocks:
            assert len({run.spec.key for run in block}) == 1

    def test_every_repetition_present_exactly_once(self):
        plan = ExperimentPlan.build(specs(2), ProtocolConfig(repetitions=30), seed=5)
        for spec in specs(2):
            reps = sorted(r.rep for r in plan.runs_of(spec))
            assert reps == list(range(30))

    def test_shuffling_is_seeded(self):
        p1 = ExperimentPlan.build(specs(3), ProtocolConfig(repetitions=20), seed=7)
        p2 = ExperimentPlan.build(specs(3), ProtocolConfig(repetitions=20), seed=7)
        p3 = ExperimentPlan.build(specs(3), ProtocolConfig(repetitions=20), seed=8)
        keys = lambda p: [b[0].spec.key for b in p.blocks]
        assert keys(p1) == keys(p2)
        assert keys(p1) != keys(p3)

    def test_shuffle_actually_interleaves(self):
        plan = ExperimentPlan.build(specs(3), ProtocolConfig(repetitions=50), seed=2)
        order = [b[0].spec.key for b in plan.blocks]
        # Not all blocks of one spec contiguous.
        first_spec = order[0]
        positions = [i for i, k in enumerate(order) if k == first_spec]
        assert positions[-1] - positions[0] >= len(positions)

    def test_waits_in_paper_range(self):
        plan = ExperimentPlan.build(specs(1), ProtocolConfig(), seed=0)
        assert all(60.0 <= w <= 1800.0 for w in plan.waits_s)
        assert plan.total_wait_s() > 0

    def test_protocol_for_repetitions(self):
        plan = ExperimentPlan.build(specs(1), ProtocolConfig.for_repetitions(6), seed=0)
        assert plan.total_wait_s() == 0.0
        assert plan.num_runs == 6
        plan = ExperimentPlan.build(specs(2), ProtocolConfig.for_repetitions(20), seed=0)
        assert plan.total_wait_s() > 0
        assert all(60.0 <= w <= 1800.0 for w in plan.waits_s)
        assert [len(block) for block in plan.blocks] == [10] * 4

    def test_duplicate_specs_rejected(self):
        s = specs(1)
        with pytest.raises(ExperimentError):
            ExperimentPlan.build(s + s, ProtocolConfig(repetitions=5))

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentPlan.build([], ProtocolConfig())

    def test_repeated_run_rejected(self):
        # A hand-built plan may not schedule one (spec, rep) twice, not
        # even in different blocks.
        spec = specs(1)[0]
        with pytest.raises(ExperimentError, match="planned twice"):
            ExperimentPlan(
                blocks=[
                    [PlannedRun(spec, 0), PlannedRun(spec, 1)],
                    [PlannedRun(spec, 2), PlannedRun(spec, 0)],
                ],
                waits_s=[0.0, 0.0],
                protocol=ProtocolConfig(repetitions=4),
            )

    def test_block_of(self):
        plan = ExperimentPlan.build(specs(1), ProtocolConfig(repetitions=10), seed=0)
        run = plan.blocks[0][0]
        assert plan.block_of(run) == 0


class TestProtocolConfig:
    def test_defaults_match_paper(self):
        protocol = ProtocolConfig()
        assert protocol.repetitions == 100
        assert protocol.block_size == 10
        assert protocol.min_wait_s == 60.0  # 1 minute
        assert protocol.max_wait_s == 1800.0  # 30 minutes

    def test_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ProtocolConfig(repetitions=0)
        with pytest.raises(ConfigError):
            ProtocolConfig(min_wait_s=100, max_wait_s=10)
