"""Tests for samplers and the Monitoring Agent."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.monitor.agent import MonitorConfig, MonitoringAgent
from repro.monitor.samplers import CpuSampler, PassiveLinkSampler
from repro.simulation.units import MB


@pytest.fixture
def env():
    return CloudEnvironment(seed=21, variability_sigma=0.0, glitches=False)


def deployed(env, spec={"NEU": 2, "NUS": 2}):
    for region, n in spec.items():
        env.provision(region, "Small", n)
    return env


# ----------------------------------------------------------------------
# Samplers
# ----------------------------------------------------------------------
def test_passive_sampler_close_to_truth(env):
    deployed(env)
    src = env.deployment.vms("NEU")[0]
    dst = env.deployment.vms("NUS")[0]
    sampler = PassiveLinkSampler(env.network, src, dst, streams=4, noise_cv=0.05)
    values = []
    sampler.sample(lambda t, v: values.append(v))
    truth = env.network.isolated_rate([src, dst], streams=4)
    assert values and values[0] == pytest.approx(truth, rel=0.25)


def test_cpu_sampler_reflects_load_and_health(env):
    deployed(env)
    vm = env.deployment.vms("NEU")[0]
    sampler = CpuSampler(vm, env.network, noise_cv=0.0)
    out = []
    sampler.sample(lambda t, v: out.append(v))
    assert out[0] == pytest.approx(1.0)
    vm.cpu_load = 0.6
    vm.degrade(0.5)
    sampler.sample(lambda t, v: out.append(v))
    assert out[1] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Agent
# ----------------------------------------------------------------------
def test_agent_builds_link_map(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment, MonitorConfig(interval=30))
    agent.watch_all_links()
    agent.start()
    env.sim.run_until(300.0)
    est = agent.link_map.estimate("NEU", "NUS")
    assert est.known
    assert est.samples >= 5
    truth = env.network.isolated_rate(
        [env.deployment.vms("NEU")[0], env.deployment.vms("NUS")[0]], streams=4
    )
    assert est.mean == pytest.approx(truth, rel=0.2)


def test_agent_watch_requires_vms(env):
    env.provision("NEU", "Small", 1)
    agent = MonitoringAgent(env.network, env.deployment)
    with pytest.raises(ValueError):
        agent.watch_link("NEU", "NUS")


def test_agent_records_histories(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment, MonitorConfig(interval=30))
    agent.watch_link("NEU", "NUS")
    agent.start()
    env.sim.run_until(120.0)
    hist = agent.history("thr/NEU->NUS")
    assert len(hist) >= 3


def test_agent_suspends_during_application_transfer(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment, MonitorConfig(interval=10))
    agent.watch_link("NEU", "NUS")
    agent.start()
    env.sim.run_until(50.0)
    taken_before = agent.samples_taken
    flow = Flow(
        [env.deployment.vms("NEU")[1], env.deployment.vms("NUS")[1]],
        500 * MB,
        streams=4,
        label="app-transfer",
    )
    env.network.start_flow(flow)
    env.sim.run_until(env.now + 50.0)
    assert agent.samples_suspended > 0
    assert agent.samples_taken - taken_before <= 1  # at most one race


def test_agent_cpu_threshold_suspends(env):
    deployed(env)
    cfg = MonitorConfig(interval=10, cpu_threshold=0.5)
    agent = MonitoringAgent(env.network, env.deployment, cfg)
    agent.watch_link("NEU", "NUS")
    env.deployment.vms("NEU")[0].cpu_load = 0.9
    agent.start()
    env.sim.run_until(60.0)
    assert agent.samples_taken == 0
    assert agent.samples_suspended > 0


def test_agent_ingest_external_observation(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment)
    agent.watch_link("NEU", "NUS")
    agent.ingest("NEU", "NUS", 0.0, 5 * MB)
    assert agent.estimated_throughput("NEU", "NUS") == pytest.approx(5 * MB)


def test_agent_double_start_rejected(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment)
    agent.start()
    with pytest.raises(RuntimeError):
        agent.start()
    agent.stop()
    agent.stop()  # idempotent


def test_node_health_measurement(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment)
    vm = env.deployment.vms("NEU")[0]
    assert agent.node_health(vm) == pytest.approx(1.0, abs=0.1)
    vm.degrade(0.3)
    assert agent.node_health(vm) == pytest.approx(0.3, abs=0.05)


def test_linkmap_matrix_rows(env):
    deployed(env)
    agent = MonitoringAgent(env.network, env.deployment, MonitorConfig(interval=30))
    agent.watch_all_links()
    agent.start()
    env.sim.run_until(120.0)
    rows = agent.link_map.matrix_rows()
    assert rows[0][0] == "from\\to"
    assert len(rows) == 3  # header + two regions
    flat = " ".join(" ".join(r) for r in rows)
    assert "?" not in flat  # every watched pair has an estimate
