"""Shared fixtures: small, fast simulated clouds."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.streaming.runtime import GeoStreamRuntime

# CI replays one fixed example sequence per test, so a property that is
# red is red on every run (and prints the blob that reproduces it);
# local runs stay random and keep finding new examples.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def stable_env() -> CloudEnvironment:
    """A cloud with variability switched off — deterministic link rates."""
    return CloudEnvironment(
        seed=1234,
        variability_sigma=0.0,
        diurnal_amplitude=0.0,
        glitches=False,
    )


@pytest.fixture
def noisy_env() -> CloudEnvironment:
    """A cloud with the standard variability stack."""
    return CloudEnvironment(seed=1234)


@pytest.fixture
def small_engine(noisy_env) -> SageEngine:
    """Warmed-up engine over a 4-region deployment (noisy cloud)."""
    engine = SageEngine(
        noisy_env,
        deployment_spec={"NEU": 4, "WEU": 3, "EUS": 3, "NUS": 4},
    )
    engine.start(learning_phase=120.0)
    return engine


@pytest.fixture
def stable_engine(stable_env) -> SageEngine:
    """Warmed-up engine over a 4-region deployment (stable cloud)."""
    engine = SageEngine(
        stable_env,
        deployment_spec={"NEU": 4, "WEU": 3, "EUS": 3, "NUS": 4},
    )
    engine.start(learning_phase=120.0)
    return engine


@pytest.fixture
def stopped_runtimes(monkeypatch) -> list[GeoStreamRuntime]:
    """Every runtime whose ``stop()`` ran during the test, in order — the
    handle scenario tests use to look inside a run they did not build."""
    runtimes: list[GeoStreamRuntime] = []
    stop = GeoStreamRuntime.stop
    monkeypatch.setattr(
        GeoStreamRuntime, "stop", lambda self: (runtimes.append(self), stop(self))
    )
    return runtimes
