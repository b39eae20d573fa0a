"""The runtime invariant checker, in isolation and inside the engines."""

import numpy as np
import pytest

from repro.engine.base import EngineOptions
from repro.engine.des_runner import DESEngine
from repro.engine.fluid_runner import FluidEngine
from repro.errors import ConfigError, InvariantViolation
from repro.units import MiB
from repro.verify import ValidationLevel, forced_injection, make_checker
from repro.verify.invariants import RuntimeChecker
from repro.workload.generator import single_application


def checker(level=ValidationLevel.PARANOID, **kwargs):
    c = RuntimeChecker(level, context="test", **kwargs)
    c.bind_resources(["link:a", "ost:1"])
    return c


def clean_segment(c, now=0.0, dt=1.0):
    # Two flows, both through both resources, well under capacity and
    # both saturating their flow caps (so the fairness certificate holds).
    c.on_segment(
        now,
        dt,
        capacities=np.array([100.0, 100.0]),
        memberships=[[0, 1], [0, 1]],
        rates_mib_s=np.array([30.0, 30.0]),
        flow_caps=np.array([30.0, 30.0]),
        flow_labels=["f0", "f1"],
    )


class TestLevel:
    def test_parse(self):
        assert ValidationLevel.parse("paranoid") is ValidationLevel.PARANOID
        assert ValidationLevel.parse("off") is ValidationLevel.OFF
        assert ValidationLevel.parse(None) is ValidationLevel.OFF
        assert ValidationLevel.parse(ValidationLevel.BASIC) is ValidationLevel.BASIC

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            ValidationLevel.parse("extreme")

    def test_ordering(self):
        assert ValidationLevel.PARANOID >= ValidationLevel.BASIC
        assert not ValidationLevel.OFF.enabled
        assert ValidationLevel.PARANOID.paranoid
        assert not ValidationLevel.BASIC.paranoid

    def test_make_checker_off_is_none(self):
        assert make_checker(ValidationLevel.OFF) is None
        assert make_checker("off") is None
        assert make_checker("basic") is not None


class TestSegmentChecks:
    def test_clean_segment_passes(self):
        c = checker()
        clean_segment(c)
        assert c.segments_checked == 1

    def test_capacity_violation_raises(self):
        c = checker()
        with pytest.raises(InvariantViolation, match="over capacity"):
            c.on_segment(
                0.0,
                1.0,
                capacities=np.array([100.0, 100.0]),
                memberships=[[0], [0]],
                rates_mib_s=np.array([80.0, 80.0]),
            )

    def test_time_going_backwards_raises(self):
        c = checker()
        clean_segment(c, now=5.0)
        with pytest.raises(InvariantViolation, match="backwards"):
            clean_segment(c, now=4.0)

    def test_negative_rate_raises(self):
        c = checker()
        with pytest.raises(InvariantViolation, match="negative rate"):
            c.on_segment(
                0.0,
                1.0,
                capacities=np.array([100.0, 100.0]),
                memberships=[[0], [1]],
                rates_mib_s=np.array([-1.0, 10.0]),
            )

    def test_fairness_violation_raises_at_paranoid(self):
        c = checker()
        with pytest.raises(InvariantViolation, match="fairness|saturates no"):
            c.on_segment(
                0.0,
                1.0,
                capacities=np.array([100.0, 100.0]),
                memberships=[[0], [1]],
                rates_mib_s=np.array([10.0, 10.0]),  # both could be raised
            )

    def test_basic_skips_fairness(self):
        c = checker(level=ValidationLevel.BASIC)
        c.on_segment(
            0.0,
            1.0,
            capacities=np.array([100.0, 100.0]),
            memberships=[[0], [1]],
            rates_mib_s=np.array([10.0, 10.0]),
        )
        assert c.segments_checked == 1


class TestConservation:
    def test_flow_over_delivery_raises(self):
        c = checker()
        with pytest.raises(InvariantViolation, match="over-delivered"):
            c.flow_complete("f", volume_bytes=MiB, remaining_bytes=-2 * MiB, abandoned=False)

    def test_flow_under_delivery_raises_unless_abandoned(self):
        c = checker()
        with pytest.raises(InvariantViolation, match="undelivered"):
            c.flow_complete("f", volume_bytes=MiB, remaining_bytes=MiB / 2, abandoned=False)
        c.flow_complete("f", volume_bytes=MiB, remaining_bytes=MiB / 2, abandoned=True)

    def test_per_resource_conservation(self):
        c = checker()
        c.expect_bytes([0, 1], 60.0 * MiB)  # one 60 MiB flow over both
        c.on_segment(
            0.0,
            1.0,
            capacities=np.array([100.0, 100.0]),
            memberships=[[0, 1]],
            rates_mib_s=np.array([60.0]),
            flow_caps=np.array([60.0]),
        )
        c.finish()  # integral == expectation

    def test_per_resource_mismatch_raises(self):
        c = checker()
        c.expect_bytes([0, 1], 60.0 * MiB)
        c.on_segment(
            0.0,
            0.5,  # only half the bytes actually move
            capacities=np.array([100.0, 100.0]),
            memberships=[[0, 1]],
            rates_mib_s=np.array([60.0]),
            flow_caps=np.array([60.0]),
        )
        with pytest.raises(InvariantViolation, match="conservation"):
            c.finish()

    def test_retract_balances_abandoned_flows(self):
        c = checker()
        c.expect_bytes([0, 1], 60.0 * MiB)
        c.on_segment(
            0.0,
            0.5,
            capacities=np.array([100.0, 100.0]),
            memberships=[[0, 1]],
            rates_mib_s=np.array([60.0]),
            flow_caps=np.array([60.0]),
        )
        c.retract_bytes([0, 1], 30.0 * MiB)  # the abandoned remainder
        c.finish()


class TestInjection:
    def test_over_capacity_fires_on_clean_segment(self):
        c = checker(inject="over-capacity")
        with pytest.raises(InvariantViolation, match="over capacity"):
            clean_segment(c)

    def test_byte_loss_fires_at_finish(self):
        c = checker(inject="byte-loss")
        c.expect_bytes([0, 1], 60.0 * MiB)
        c.on_segment(
            0.0,
            1.0,
            capacities=np.array([100.0, 100.0]),
            memberships=[[0, 1]],
            rates_mib_s=np.array([60.0]),
            flow_caps=np.array([60.0]),
        )
        with pytest.raises(InvariantViolation, match="conservation"):
            c.finish()

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError):
            RuntimeChecker(ValidationLevel.PARANOID, inject="bit-flip")

    def test_forced_injection_scopes_make_checker(self):
        with forced_injection("byte-loss"):
            c = make_checker("paranoid")
            assert c.inject == "byte-loss"
        assert make_checker("paranoid").inject is None

    def test_forced_injection_rejects_unknown(self):
        with pytest.raises(ValueError):
            with forced_injection("bit-flip"):
                pass  # pragma: no cover


class TestEngineIntegration:
    @pytest.mark.parametrize("level", ["basic", "paranoid"])
    def test_fluid_run_validates_clean(self, calib_s1, topo_s1, level):
        options = EngineOptions(noise_enabled=False, validation=ValidationLevel.parse(level))
        engine = FluidEngine(calib_s1, topo_s1, calib_s1.deployment(stripe_count=4), seed=0, options=options)
        app = single_application(topo_s1, 2, ppn=4, total_bytes=128 * MiB)
        result = engine.run([app], rep=0)
        assert result.single.bandwidth_mib_s > 0

    def test_des_run_validates_clean(self, calib_s1, topo_s1):
        options = EngineOptions(noise_enabled=False, validation=ValidationLevel.PARANOID)
        engine = DESEngine(calib_s1, topo_s1, calib_s1.deployment(stripe_count=4), seed=0, options=options)
        app = single_application(topo_s1, 2, ppn=2, total_bytes=64 * MiB)
        result = engine.run([app], rep=0)
        assert result.single.bandwidth_mib_s > 0

    @pytest.mark.parametrize("engine_cls", [FluidEngine, DESEngine], ids=["fluid", "des"])
    def test_validation_off_is_default_and_identical(self, calib_s1, topo_s1, engine_cls):
        def bw(validation):
            options = EngineOptions(noise_enabled=False, validation=validation)
            engine = engine_cls(
                calib_s1, topo_s1, calib_s1.deployment(stripe_count=4), seed=0, options=options
            )
            app = single_application(topo_s1, 2, ppn=4, total_bytes=128 * MiB)
            return engine.run([app], rep=0).single.bandwidth_mib_s

        assert EngineOptions().validation is ValidationLevel.OFF
        assert bw(ValidationLevel.OFF) == bw(ValidationLevel.PARANOID)

    @pytest.mark.parametrize(
        "engine_cls, injection",
        [
            (FluidEngine, "over-capacity"),
            (DESEngine, "over-capacity"),
            (DESEngine, "byte-loss"),
        ],
        ids=["fluid-over-capacity", "des-over-capacity", "des-byte-loss"],
    )
    def test_injected_engine_run_trips(self, calib_s1, topo_s1, engine_cls, injection):
        options = EngineOptions(noise_enabled=False, validation=ValidationLevel.PARANOID)
        engine = engine_cls(
            calib_s1, topo_s1, calib_s1.deployment(stripe_count=4), seed=0, options=options
        )
        app = single_application(topo_s1, 2, ppn=4, total_bytes=128 * MiB)
        with forced_injection(injection):
            with pytest.raises(InvariantViolation):
                engine.run([app], rep=0)
