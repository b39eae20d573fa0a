"""The verify suite orchestrator: quarantine, injections, exit codes."""

import pytest

from repro.errors import ConfigError, ExperimentError, InvariantViolation
from repro.methodology.plan import ExperimentPlan, ExperimentSpec
from repro.methodology.protocol import ProtocolConfig
from repro.methodology.runner import ProtocolRunner
from repro.verify.level import ValidationLevel
from repro.verify.suite import SuiteReport, run_invariants_suite, run_suite

from ..methodology.test_runner import fake_result


def tiny_plan():
    return ExperimentPlan.build(
        [ExperimentSpec("e", "s")],
        ProtocolConfig(repetitions=2, block_size=2, min_wait_s=0, max_wait_s=0),
        seed=0,
    )


class TestViolationQuarantine:
    def test_violation_quarantined_even_under_fail(self):
        def executor(spec, rep):
            if rep == 0:
                raise InvariantViolation("capacity broke")
            return fake_result()

        store = ProtocolRunner(executor, on_error="fail").run(tiny_plan())
        assert len(store) == 1
        assert [f.error_type for f in store.failures] == ["InvariantViolation"]

    def test_on_violation_fail_reraises(self):
        def executor(spec, rep):
            raise InvariantViolation("capacity broke")

        runner = ProtocolRunner(executor, on_error="skip", on_violation="fail")
        with pytest.raises(InvariantViolation):
            runner.run(tiny_plan())

    def test_plain_crash_still_follows_on_error(self):
        def executor(spec, rep):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ProtocolRunner(executor, on_error="fail").run(tiny_plan())
        store = ProtocolRunner(executor, on_error="skip").run(tiny_plan())
        assert [f.error_type for f in store.failures] == ["RuntimeError"] * 2

    def test_bad_on_violation_rejected(self):
        with pytest.raises(ExperimentError):
            ProtocolRunner(lambda s, r: fake_result(), on_violation="explode")


class TestSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(suite="vibes")

    def test_unknown_injection_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(suite="invariants", inject="bit-flip")

    def test_level_off_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(suite="invariants", level="off")

    def test_invariants_faults_sweep_passes(self):
        report = SuiteReport(suite="invariants", level=ValidationLevel.PARANOID)
        run_invariants_suite(
            report, ValidationLevel.PARANOID, experiments=("faults",), reps=1
        )
        assert report.ok
        assert report.exit_code() == 0
        assert any("invariants:faults" in p for p in report.passed)

    def test_injection_detected_exits_1(self):
        report = run_suite(
            suite="invariants",
            experiments=("faults",),
            reps=1,
            inject="over-capacity",
        )
        assert report.injection_detected
        assert report.exit_code() == 1

    def test_missed_injection_exits_2(self):
        # byte-loss is only detectable by the PARANOID per-resource
        # integral; at BASIC the verifier must confess it saw nothing.
        report = run_suite(
            suite="invariants",
            level="basic",
            experiments=("faults",),
            reps=1,
            inject="byte-loss",
        )
        assert not report.injection_detected
        assert report.exit_code() == 2

    def test_report_lines_render(self):
        report = SuiteReport(suite="all", level=ValidationLevel.BASIC)
        report.passed.append("something")
        report.failed.append("other thing")
        text = "\n".join(report.lines())
        assert "pass: something" in text
        assert "FAIL: other thing" in text
        assert report.exit_code() == 1


class TestReplayFingerprints:
    """The replay cases' full fingerprints, pinned.

    Replay compares a case with itself, so a case that stops simulating
    what it names (a lost fault schedule, another seed, the wrong
    engine) would still replay and pass; these values would not.
    """

    SEED0 = {
        "fluid+noise": "f0149fb88bb1838f8cd4acd63e6eea25e380701d2e380aa958729b72bb6e1382",
        "fluid+outage+retry": "6ae7babf6c3bbc49a674f7fa391238cf7ea9444d75ff154ac40ac5a0d37e9263",
        "des": "b85c6fd25851a938c4a8748bfb55499546840214240e4bb4e9bb490adc952e93",
    }
    SEED1 = {
        "fluid+noise": "5b4b87a0a90219bcfe80e4f07e84fec1d3b8e79ca4156a0d8dbd79b0167a94b1",
        "fluid+outage+retry": "6ae7babf6c3bbc49a674f7fa391238cf7ea9444d75ff154ac40ac5a0d37e9263",
        "des": "9c112470e2fba9afbea0913b24f112ba5fb79c46f56d2561f3f8bcd6cb69d4c8",
    }

    @staticmethod
    def _fingerprints(monkeypatch, seed):
        from repro.verify import suite

        seen = {}
        check_replay = suite.check_replay

        def recording(factory, runs=2, context=""):
            seen[context] = check_replay(factory, runs=runs, context=context)
            return seen[context]

        monkeypatch.setattr(suite, "check_replay", recording)
        report = SuiteReport(suite="replay", level=ValidationLevel.PARANOID)
        suite.run_replay_suite(report, seed=seed)
        assert report.ok and not report.failed
        assert [line.split("fingerprint ")[1][:12] for line in report.passed] == [
            fingerprint[:12] for fingerprint in seen.values()
        ]
        return seen

    def test_seed_0_fingerprints(self, monkeypatch):
        assert self._fingerprints(monkeypatch, 0) == self.SEED0

    def test_seed_1_moves_the_seeded_cases(self, monkeypatch):
        seen = self._fingerprints(monkeypatch, 1)
        assert seen == self.SEED1
        assert seen["fluid+noise"] != self.SEED0["fluid+noise"]
        assert seen["des"] != self.SEED0["des"]
