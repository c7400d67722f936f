"""Unit tests for the SageEngine composition root."""

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.monitor.agent import MonitorConfig


def test_engine_provisions_deployment():
    env = CloudEnvironment(seed=1, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 3, "NUS": 2})
    assert env.deployment.size() == 5
    assert sorted(env.deployment.regions()) == ["NEU", "NUS"]


def test_engine_learning_phase_warms_link_map():
    env = CloudEnvironment(seed=2, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    assert not engine.monitor.link_map.estimate("NEU", "NUS").known
    engine.start(learning_phase=300.0)
    est = engine.monitor.link_map.estimate("NEU", "NUS")
    assert est.known and est.samples >= 5
    assert env.now == 300.0


def test_engine_zero_learning_phase():
    env = CloudEnvironment(seed=3, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=0.0)
    # One immediate round ran, nothing more.
    assert env.now == 0.0
    engine.stop()


def test_engine_single_region_skips_link_watching():
    env = CloudEnvironment(seed=4, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 3})
    engine.start(learning_phase=60.0)
    assert engine.monitor.link_map.pairs() == []


def test_engine_custom_monitor_config():
    env = CloudEnvironment(seed=5, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env,
        deployment_spec={"NEU": 2, "NUS": 2},
        monitor_config=MonitorConfig(interval=10.0, strategy="LSI"),
    )
    engine.start(learning_phase=100.0)
    est = engine.monitor.link_map.estimator("NEU", "NUS")
    assert est.name == "LSI"
    assert est.samples_seen >= 9


def test_engine_shortcuts():
    env = CloudEnvironment(seed=6, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 1})
    assert engine.sim is env.sim
    assert engine.deployment is env.deployment
    engine.run_until(42.0)
    assert env.now == 42.0
