"""Tests for the fluid flow network — the heart of the substrate."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow, Topology
from repro.simulation.units import GB, MB


def make_env(**kwargs):
    defaults = dict(
        seed=77, variability_sigma=0.0, diurnal_amplitude=0.0, glitches=False
    )
    defaults.update(kwargs)
    return CloudEnvironment(**defaults)


def run_flow(env, path, size, **kwargs):
    done = []
    flow = Flow(path, size, on_complete=lambda f: done.append(env.now), **kwargs)
    env.network.start_flow(flow)
    env.sim.run_until(env.now + 50_000)
    assert done, f"flow did not complete: {flow!r}"
    return done[0], flow


# ----------------------------------------------------------------------
# Construction / validation
# ----------------------------------------------------------------------
def test_flow_validation():
    env = make_env()
    vm = env.provision("NEU", "Small")[0]
    vm2 = env.provision("NUS", "Small")[0]
    with pytest.raises(ValueError):
        Flow([vm], 1.0)
    with pytest.raises(ValueError):
        Flow([vm, vm2], 0.0)
    with pytest.raises(ValueError):
        Flow([vm, vm2], 1.0, streams=0)
    with pytest.raises(ValueError):
        Flow([vm, vm2], 1.0, intrusiveness=0.0)
    with pytest.raises(ValueError):
        Flow([vm, vm2], 1.0, rate_cap=0.0)


def test_topology_default_mesh():
    topo = Topology.build()
    assert len(topo.links) == 30
    link = topo.link("NEU", "NUS")
    assert link.capacity(0.0) > 0
    with pytest.raises(KeyError):
        topo.link("NEU", "XXX")


def test_same_continent_faster_than_cross():
    topo = Topology.build()
    eu = topo.link("NEU", "WEU").base_capacity
    cross = topo.link("NEU", "NUS").base_capacity
    assert eu > cross


# ----------------------------------------------------------------------
# Single-flow behaviour
# ----------------------------------------------------------------------
def test_intra_dc_flow_is_nic_bound():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    t, flow = run_flow(env, [a, b], 100 * MB)
    nic = a.size.nic_bytes_per_s
    assert 100 * MB / t == pytest.approx(nic, rel=0.01)


def test_wan_single_stream_is_tcp_window_bound():
    env = make_env()
    a = env.provision("NEU", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    t, flow = run_flow(env, [a, b], 50 * MB, streams=1)
    rtt = env.topology.rtt("NEU", "NUS")
    expected = env.network.tcp_window / rtt
    assert 50 * MB / t == pytest.approx(expected, rel=0.02)


def test_parallel_streams_raise_throughput_until_nic():
    env = make_env()
    a = env.provision("NEU", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    t1, _ = run_flow(env, [a, b], 50 * MB, streams=1)
    env2 = make_env()
    a2 = env2.provision("NEU", "Small")[0]
    b2 = env2.provision("NUS", "Small")[0]
    t4, _ = run_flow(env2, [a2, b2], 50 * MB, streams=4)
    assert t4 < t1 / 3.0  # 4 streams ≈ 4× where NIC/WAN allow
    env3 = make_env()
    a3 = env3.provision("NEU", "Small")[0]
    b3 = env3.provision("NUS", "Small")[0]
    t64, _ = run_flow(env3, [a3, b3], 50 * MB, streams=64)
    nic_time = 50 * MB / a3.size.nic_bytes_per_s
    assert t64 == pytest.approx(nic_time, rel=0.02)  # NIC is the ceiling


def test_intrusiveness_caps_rate():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    t_full, _ = run_flow(env, [a, b], 50 * MB, intrusiveness=1.0)
    env2 = make_env()
    a2, b2 = env2.provision("NEU", "Small", 2)
    t_tenth, _ = run_flow(env2, [a2, b2], 50 * MB, intrusiveness=0.1)
    assert t_tenth == pytest.approx(10 * t_full, rel=0.05)


def test_rate_cap_respected():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    t, _ = run_flow(env, [a, b], 50 * MB, rate_cap=1 * MB)
    assert 50 * MB / t == pytest.approx(1 * MB, rel=0.02)


def test_degraded_vm_slows_flow():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    a.degrade(0.5)
    t, _ = run_flow(env, [a, b], 50 * MB)
    assert 50 * MB / t == pytest.approx(0.5 * a.size.nic_bytes_per_s, rel=0.02)


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------
def test_two_flows_share_one_nic_fairly():
    env = make_env()
    a, b, c = env.provision("NEU", "Small", 3)
    done = {}
    f1 = Flow([a, b], 50 * MB, on_complete=lambda f: done.setdefault(1, env.now))
    f2 = Flow([a, c], 50 * MB, on_complete=lambda f: done.setdefault(2, env.now))
    env.network.start_flow(f1)
    env.network.start_flow(f2)
    assert f1.rate == pytest.approx(f2.rate)
    assert f1.rate == pytest.approx(a.size.nic_bytes_per_s / 2, rel=0.01)
    env.sim.run_until(10_000)
    assert done[1] == pytest.approx(done[2], rel=0.01)


def test_wan_capacity_shared_across_vm_pairs():
    env = make_env()
    senders = env.provision("NEU", "Small", 12)
    receivers = env.provision("NUS", "Small", 12)
    flows = []
    for s, r in zip(senders, receivers):
        f = Flow([s, r], 1 * GB, streams=8)
        env.network.start_flow(f)
        flows.append(f)
    total = sum(f.rate for f in flows)
    cap = env.topology.link("NEU", "NUS").capacity(env.now)
    assert total == pytest.approx(cap, rel=0.01)  # WAN link saturated
    per_flow_nic = senders[0].size.nic_bytes_per_s
    assert all(f.rate < per_flow_nic for f in flows)


def test_freed_capacity_is_reallocated():
    env = make_env()
    a, b, c = env.provision("NEU", "Small", 3)
    f1 = Flow([a, b], 10 * MB)
    f2 = Flow([a, c], 200 * MB)
    env.network.start_flow(f1)
    env.network.start_flow(f2)
    half = a.size.nic_bytes_per_s / 2
    assert f2.rate == pytest.approx(half, rel=0.01)
    env.sim.run_until(10 * MB / half + 1.0)  # f1 finished by now
    assert f1.done
    assert f2.rate == pytest.approx(a.size.nic_bytes_per_s, rel=0.01)


def test_cancel_flow_releases_bandwidth():
    env = make_env()
    a, b, c = env.provision("NEU", "Small", 3)
    f1 = Flow([a, b], 1 * GB)
    f2 = Flow([a, c], 1 * GB)
    env.network.start_flow(f1)
    env.network.start_flow(f2)
    env.sim.run_until(5.0)
    env.network.cancel_flow(f1)
    assert f1.cancelled
    assert f2.rate == pytest.approx(a.size.nic_bytes_per_s, rel=0.01)
    assert f1.transferred > 0  # progress up to the cancel is kept


# ----------------------------------------------------------------------
# Multi-hop
# ----------------------------------------------------------------------
def test_multi_hop_bottleneck_is_slowest_hop():
    env = make_env()
    a = env.provision("NEU", "Small")[0]
    relay = env.provision("EUS", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    t, flow = run_flow(env, [a, relay, b], 50 * MB, streams=2)
    rtts = [env.topology.rtt("NEU", "EUS"), env.topology.rtt("EUS", "NUS")]
    per_hop = [2 * env.network.tcp_window / r for r in rtts]
    expected = min(per_hop) * env.network.relay_efficiency
    assert 50 * MB / t == pytest.approx(expected, rel=0.03)


def test_relay_with_short_hops_beats_long_direct_rtt():
    """Splitting a long-RTT path at a midpoint raises the TCP ceiling —
    the physical effect multi-datacenter routing exploits."""
    env = make_env()
    a = env.provision("NEU", "Small")[0]
    relay = env.provision("EUS", "Small")[0]
    b = env.provision("SUS", "Small")[0]
    t_direct, _ = run_flow(env, [a, b], 20 * MB, streams=1)
    env2 = make_env()
    a2 = env2.provision("NEU", "Small")[0]
    relay2 = env2.provision("EUS", "Small")[0]
    b2 = env2.provision("SUS", "Small")[0]
    t_relay, _ = run_flow(env2, [a2, relay2, b2], 20 * MB, streams=1)
    assert t_relay < t_direct


# ----------------------------------------------------------------------
# Accounting and invariants
# ----------------------------------------------------------------------
def test_flow_bookkeeping():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    t, flow = run_flow(env, [a, b], 10 * MB)
    assert flow.done
    assert flow.transferred == pytest.approx(10 * MB)
    assert flow.mean_throughput(env.now) > 0
    assert env.network.flows_completed == 1
    assert env.network.bytes_completed == pytest.approx(10 * MB)


def test_double_start_rejected():
    env = make_env()
    a, b = env.provision("NEU", "Small", 2)
    f = Flow([a, b], 1 * MB)
    env.network.start_flow(f)
    with pytest.raises(ValueError):
        env.network.start_flow(f)


def test_isolated_rate_matches_actual_single_flow():
    env = make_env()
    a = env.provision("NEU", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    iso = env.network.isolated_rate([a, b], streams=4)
    t, _ = run_flow(env, [a, b], 50 * MB, streams=4)
    assert 50 * MB / t == pytest.approx(iso, rel=0.02)


def test_variable_capacity_changes_completion():
    """With variability on, link capacity drifts and rates follow."""
    env = CloudEnvironment(seed=3, variability_sigma=0.4, glitches=False)
    senders = env.provision("NEU", "Small", 8)
    receivers = env.provision("NUS", "Small", 8)
    flows = []
    for s, r in zip(senders, receivers):
        f = Flow([s, r], 5 * GB, streams=8)
        env.network.start_flow(f)
        flows.append(f)
    rates = []
    for _ in range(30):
        env.sim.run_until(env.now + 60)
        rates.append(sum(f.rate for f in flows))
    alive = [r for r in rates if r > 0]
    assert max(alive) / min(alive) > 1.15  # the saturated rate drifted
