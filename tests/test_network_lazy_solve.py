"""The fluid network solves once per simulated instant.

Every network event (flow start, cancel, completion, capacity change)
settles progress and marks the rates stale; one end-of-instant event
solves the sharing system after everything else that happens at that
timestamp. Whoever reads a rate earlier forces the solve and sees what
an eager solver would have shown.
"""

from __future__ import annotations

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.simulation import END_OF_INSTANT
from repro.simulation.units import GB
from tests._fluid_oracle import reference_rates


@pytest.fixture
def env():
    return CloudEnvironment(
        seed=5, variability_sigma=0.0, diurnal_amplitude=0.0, glitches=False
    )


def make_flows(env, n, size=1 * GB):
    src = env.provision("NEU", "Small", count=n)
    dst = env.provision("NUS", "Small", count=n)
    return [Flow([a, b], size, streams=4) for a, b in zip(src, dst)]


def oracle(net, flows):
    rates = reference_rates(net)
    return [rates.get(f.flow_id, 0.0) for f in flows]


def test_one_solve_for_all_flows_started_at_one_timestamp(env):
    net = env.network
    flows = make_flows(env, 6)
    env.sim.run_until(10.0)
    for f in flows:
        net.start_flow(f)
    assert net.recomputes == len(flows)
    assert net.solves == 0 and net.allocations == 0
    env.sim.run_until(10.5)
    assert net.solves == 1 and net.allocations == 1
    rates = [f.rate for f in flows]
    assert rates == oracle(net, flows)
    net.notify_change()  # settles: the one allocation moved the bytes
    assert [f.transferred for f in flows] == [r * 0.5 for r in rates]


def test_reads_between_two_starts_force_exactly_one_solve(env):
    net = env.network
    flows = make_flows(env, 4)
    net.start_flow(flows[0])
    net.start_flow(flows[1])
    expected = oracle(net, flows)
    assert expected[0] > 0 and expected[2] == 0.0

    assert flows[0].rate == expected[0]
    assert net.solves == 1
    # A second read, through any reader, finds the rates up to date.
    assert [net.throughput(f) for f in flows] == expected
    assert net.link_utilization("NEU", "NUS") == expected[0] + expected[1]
    assert net.stalled_flows(0.0) == []
    assert net.solves == 1

    # Each reader forces the solve on its own.
    for read in (
        lambda: net.throughput(flows[1]),
        lambda: net.link_utilization("NEU", "NUS"),
        lambda: net.stalled_flows(),
    ):
        net.cancel_flow(flows[1])
        flows[1] = make_flows(env, 1)[0]
        net.start_flow(flows[1])
        before = net.solves
        read()
        assert net.solves == before + 1
        assert [f.rate for f in flows] == oracle(net, flows)
        assert net.solves == before + 1

    # The armed end-of-instant event finds nothing left to do.
    solves = net.solves
    env.sim.run_until(0.001)
    assert net.solves == solves


def test_end_of_instant_runs_after_events_scheduled_during_the_instant(env):
    net, sim = env.network, env.sim
    first, second, third = make_flows(env, 3)

    def opener():
        net.start_flow(first)  # arms the end-of-instant event ...
        # ... and only then schedules a same-timestamp event that starts
        # another flow: it must still run before the solve.
        sim.schedule(0.0, net.start_flow, second)
        # An event that itself waits for the end of the instant runs
        # after the solve (it was scheduled later) and gets one more
        # solve, not none.
        sim.schedule(0.0, net.start_flow, third, priority=END_OF_INSTANT)

    sim.schedule(1.0, opener)
    sim.run_until(1.0)
    assert net.recomputes == 3
    assert net.solves == 2
    assert not net._stale
    assert [f.rate for f in (first, second, third)] == oracle(
        net, (first, second, third)
    )
    assert third.rate > 0


def test_zero_rate_at_end_of_instant_starts_the_stall_clock(env):
    net, sim = env.network, env.sim
    stalls = []
    net.on_stall = stalls.append
    (flow,) = make_flows(env, 1)
    env.topology.link("NEU", "NUS").set_down()
    sim.run_until(5.0)
    net.start_flow(flow)
    assert flow.stalled_since is None  # nothing solved yet
    sim.run_until(5.0)
    assert flow.rate == 0.0
    assert flow.stalled_since == 5.0
    sim.run_until(5.0 + net.stall_timeout - 1.0)
    assert stalls == []
    sim.run_until(5.0 + 3 * net.stall_timeout)
    assert stalls == [flow]


def test_stall_clock_ignores_capacity_that_came_and_went_within_an_instant(env):
    # The one trace the allocations between two actions of an instant
    # left under the eager solver: a stalled flow that got a rate and
    # lost it again at one timestamp restarted its stall clock although
    # it never moved a byte. Solved once, at the end, the clock runs on.
    net, sim = env.network, env.sim
    link = env.topology.link("NEU", "NUS")
    (flow,) = make_flows(env, 1)
    link.set_down()
    net.start_flow(flow)
    sim.run_until(12.0)
    assert flow.stalled_since == 0.0
    link.set_up()
    net.notify_change()
    link.set_down()
    net.notify_change()
    sim.run_until(13.0)
    assert flow.stalled_since == 0.0
    assert flow.transferred == 0.0


def test_clock_never_advances_over_stale_rates(env):
    net, sim = env.network, env.sim
    (flow,) = make_flows(env, 1)
    net.start_flow(flow)
    assert net._stale
    sim.now += 1.0  # what the end-of-instant event makes impossible
    with pytest.raises(AssertionError, match="stale"):
        net._settle()
