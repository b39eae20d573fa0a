"""Shared fixtures: calibrated platforms, deployments and engines."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.beegfs.filesystem import BeeGFS, plafrim_deployment
from repro.calibration.plafrim import scenario1, scenario2
from repro.engine.base import EngineOptions
from repro.engine.fluid_runner import FluidEngine

# The CI verify job's long property sweeps (``--hypothesis-profile=verify``):
# reproducible, unhurried, and at least 200 examples per property.  Tier-1
# runs keep Hypothesis's default profile.
settings.register_profile("verify", derandomize=True, deadline=None, max_examples=300)


@pytest.hookimpl(trylast=True)
def pytest_sessionstart(session):
    """Build Hypothesis's Unicode tables before any test draws text.

    A checkout without ``.hypothesis/unicode_data`` builds the category
    map and the UTF-8 codec table on the first ``st.text()`` draw, which
    scans every code point (about 2 s) and trips the ``too_slow`` health
    check inside whichever test draws first.  Warmed here, after
    Hypothesis's own ``pytest_sessionstart`` ends its start-up phase (a
    warm-up before that raises ``HypothesisSideeffectWarning``).
    """
    from hypothesis.internal.charmap import charmap, intervals_from_codec

    charmap()
    intervals_from_codec("utf-8")


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the result cache at a per-session tmp dir, never ~/.cache."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def calib_s1():
    return scenario1()


@pytest.fixture(scope="session")
def calib_s2():
    return scenario2()


@pytest.fixture(scope="session")
def topo_s1(calib_s1):
    return calib_s1.platform(32)


@pytest.fixture(scope="session")
def topo_s2(calib_s2):
    return calib_s2.platform(32)


@pytest.fixture
def deployment():
    """A data-keeping PlaFRIM deployment (correctness tests)."""
    return plafrim_deployment(keep_data=True)


@pytest.fixture
def fs(deployment):
    return BeeGFS(deployment, seed=1)


@pytest.fixture
def quiet_options():
    """Engine options for deterministic (noise-free) runs."""
    return EngineOptions(noise_enabled=False)


def make_engine(calib, topo, stripe_count=4, chooser=None, seed=0, **opts):
    """Helper used across engine tests."""
    kwargs = {"stripe_count": stripe_count}
    if chooser is not None:
        kwargs["chooser"] = chooser
    options = EngineOptions(**opts) if opts else EngineOptions(noise_enabled=False)
    return FluidEngine(calib, topo, calib.deployment(**kwargs), seed=seed, options=options)


@pytest.fixture
def engine_s1(calib_s1, topo_s1):
    return make_engine(calib_s1, topo_s1)


@pytest.fixture
def engine_s2(calib_s2, topo_s2):
    return make_engine(calib_s2, topo_s2)
