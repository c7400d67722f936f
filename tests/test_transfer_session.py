"""Tests for transfer sessions and the transfer service."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.monitor.agent import MonitoringAgent
from repro.simulation.units import GB, MB
from repro.transfer.plan import RouteAssignment, TransferPlan
from repro.transfer.service import TransferService
from repro.transfer.session import CHUNK_METADATA_BYTES, TransferSession


@pytest.fixture
def env():
    return CloudEnvironment(seed=31, variability_sigma=0.0, glitches=False)


def setup_vms(env):
    src = env.provision("NEU", "Small", 3)
    dst = env.provision("NUS", "Small", 3)
    return src, dst


def run_session(env, service, plan, size, **kwargs):
    done = []
    session = service.execute(
        plan, size, on_complete=lambda s: done.append(env.now), **kwargs
    )
    env.sim.run_until(env.now + 100_000)
    assert done, "session did not complete"
    return session, done[0]


def test_direct_session_completes_and_charges(env):
    src, dst = setup_vms(env)
    service = TransferService(env)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    before = env.meter.snapshot()
    session, t = run_session(env, service, plan, 100 * MB)
    assert session.done
    assert session.elapsed > 0
    spent = env.meter.snapshot() - before
    assert spent.egress_bytes == pytest.approx(session.bytes_on_wire, rel=1e-6)
    assert spent.egress_usd > 0


def test_multi_route_session_splits_by_weight(env):
    src, dst = setup_vms(env)
    service = TransferService(env)
    plan = TransferPlan(
        [
            RouteAssignment([src[0], dst[0]], weight=1.0, streams=4),
            RouteAssignment([src[1], dst[1]], weight=3.0, streams=4),
        ]
    )
    session, _ = run_session(env, service, plan, 100 * MB)
    f1, f2 = session.flows
    assert f2.size == pytest.approx(3 * f1.size, rel=0.01)


def test_session_ack_overhead_adds_final_rtt(env):
    src, dst = setup_vms(env)
    service = TransferService(env, ack_overhead=True)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    session, t_end = run_session(env, service, plan, 10 * MB)
    flow_done = session.flows[0].completed_at
    rtt = env.topology.rtt("NEU", "NUS")
    assert session.completed_at == pytest.approx(flow_done + rtt, abs=1e-6)


def test_session_metadata_overhead_on_wire(env):
    src, dst = setup_vms(env)
    service = TransferService(env, chunk_size=1 * MB)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    session, _ = run_session(env, service, plan, 10 * MB)
    assert session.bytes_on_wire == pytest.approx(
        10 * MB + 10 * CHUNK_METADATA_BYTES
    )
    assert session.chunks_total == 10
    assert session.acks_received == 10


def test_session_progress_view(env):
    src, dst = setup_vms(env)
    service = TransferService(env)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    session = service.execute(plan, 1 * GB)
    env.sim.run_until(10.0)
    assert 0 < session.transferred < session.bytes_on_wire
    assert session.current_throughput() > 0
    assert 0 < session.eta() < float("inf")
    desc, transferred, rate = session.route_progress()[0]
    assert desc == "NEU->NUS"
    assert transferred > 0


def test_session_cancel_charges_partial_egress(env):
    src, dst = setup_vms(env)
    service = TransferService(env)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    session = service.execute(plan, 1 * GB)
    env.sim.run_until(20.0)
    before = env.meter.snapshot()
    moved = session.flows[0].transferred
    undelivered = session.cancel()
    assert undelivered == pytest.approx(session.bytes_on_wire - moved, rel=0.01)
    spent = env.meter.snapshot() - before
    assert spent.egress_bytes == pytest.approx(moved, rel=0.01)
    env.sim.run_until(1000.0)
    assert not session.done  # cancelled sessions never complete


def test_relay_route_double_egress(env):
    src, dst = setup_vms(env)
    relay = env.provision("EUS", "Small")[0]
    service = TransferService(env)
    plan = TransferPlan(
        [RouteAssignment([src[0], relay, dst[0]], streams=4)]
    )
    before = env.meter.snapshot()
    session, _ = run_session(env, service, plan, 50 * MB)
    spent = env.meter.snapshot() - before
    assert spent.egress_bytes == pytest.approx(2 * session.bytes_on_wire, rel=1e-6)


def test_service_feeds_monitor(env):
    src, dst = setup_vms(env)
    monitor = MonitoringAgent(env.network, env.deployment)
    monitor.watch_link("NEU", "NUS")
    service = TransferService(env, monitor=monitor)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    run_session(env, service, plan, 100 * MB)
    est = monitor.link_map.estimate("NEU", "NUS")
    assert est.known  # achieved throughput was ingested for free


def test_session_validates_size(env):
    src, dst = setup_vms(env)
    plan = TransferPlan.direct(src[0], dst[0])
    with pytest.raises(ValueError):
        TransferSession(env.network, plan, 0.0, chunk_size=MB)


def test_finished_and_cancelled_sessions_release_their_callbacks(env):
    src, dst = setup_vms(env)
    service = TransferService(env)
    plan = TransferPlan.direct(src[0], dst[0], streams=4)
    completions = []
    finished = service.execute(plan, 64 * MB, on_complete=completions.append)
    cancelled = service.execute(plan, 1 * GB, on_complete=completions.append)
    env.sim.run_until(5.0)
    cancelled.cancel()
    env.sim.run_until(1000.0)
    assert completions == [finished]
    for session in (finished, cancelled):
        assert session.on_complete is None
        assert session.on_flow_complete is None
        assert all(flow.on_complete is None for flow in session.flows)
    assert finished.elapsed > 0 and finished.transferred > 0


def test_cancel_during_the_final_ack_still_completes(env):
    # Every flow is done and only the ack round-trip is pending: a
    # cancel at that point has always let the completion through.
    src, dst = setup_vms(env)
    service = TransferService(env, ack_overhead=True)
    completions = []
    session = service.execute(
        TransferPlan.direct(src[0], dst[0], streams=4),
        64 * MB,
        on_complete=completions.append,
    )
    while not all(flow.done for flow in session.flows):
        env.sim.run_until(env.sim.now + 0.01)
    assert not session.done
    session.cancel()
    env.sim.run_until(env.sim.now + 5.0)
    assert completions == [session]
    assert session.on_complete is None
