"""Equivalence of the lazy fluid solver with the eager reference oracle.

``FluidNetwork`` solves the max-min sharing system once per simulated
instant (or earlier, when somebody reads a rate) with interned resource
entries, incrementally maintained incidence and an early-out when no
input changed. ``tests/_fluid_oracle.py`` holds what it replaced: the
original dict-based water-fill, run eagerly on every recompute. The
production solver is required to be *bit-identical* to it, not merely
close: randomized churn with several actions per instant, weather
variability, glitches, link outages, UDP/TCP mixes and relays must show
the same rate at every read and end in exactly the same per-flow state.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow, FluidNetwork
from repro.simulation.units import MB
from tests._fluid_oracle import (
    EagerReferenceNetwork,
    reference_flow_cap,
    reference_rates,
)


def churn(network_cls, seed, read_share, steps=120):
    """Random bursts of start/cancel actions and link outages on one network.

    Returns ``(reads, stalls, outcomes)``: every flow's rate at each
    mid-instant read (a ``read_share`` of the actions is followed by
    one), the ``on_stall`` deliveries, and each flow's final state.
    """
    env = CloudEnvironment(seed=seed, variability_sigma=0.15, glitches=True)
    net = network_cls(env.sim, env.topology)
    vms = []
    for region in env.topology.region_codes()[:4]:
        vms.extend(env.provision(region, "Small", count=3))
    links = sorted(env.topology.links)
    rng = random.Random(seed)
    all_flows: list[Flow] = []
    reads = []
    stalls = []
    net.on_stall = lambda f: stalls.append((net.sim.now, all_flows.index(f)))
    t = 0.0
    for _ in range(steps):
        t += rng.expovariate(1.0)
        net.sim.run_until(t)
        if rng.random() < 0.15:
            # An outage toggle gets an instant of its own. Stall clocks
            # are the one place where the allocations between two
            # actions of an instant left a trace under the eager solver
            # (pinned in test_network_lazy_solve.py), and only a
            # capacity change can flip a rate between zero and non-zero.
            link = env.topology.links[rng.choice(links)]
            link.set_up() if not link.up else link.set_down()
            net.notify_change()
            continue
        for _ in range(rng.choice([1, 1, 2, 4, 8])):
            if rng.random() < 0.7 or not all_flows:
                path = rng.sample(vms, rng.randint(2, 4))
                f = net.start_flow(
                    Flow(
                        path,
                        size=rng.uniform(5, 80) * MB,
                        streams=rng.randint(1, 8),
                        intrusiveness=rng.choice([0.5, 1.0]),
                        transport=rng.choice(["tcp", "tcp", "udp"]),
                    )
                )
                all_flows.append(f)
            else:
                f = rng.choice(all_flows)
                if f not in net.flows:
                    continue
                net.cancel_flow(f)
            if rng.random() < read_share:
                reads.append([f.rate for f in all_flows])
                if network_cls is FluidNetwork:
                    rates = reference_rates(net)
                    assert reads[-1] == [
                        rates.get(f.flow_id, 0.0) for f in all_flows
                    ]
    net.sim.run_until(t + 1.0)
    for key in links:
        env.topology.links[key].set_up()
    net.notify_change()
    net.sim.run_until(t + 500.0)
    outcomes = [(f.transferred, f.completed_at, f.cancelled) for f in all_flows]
    return reads, stalls, outcomes


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_fast_allocator_bit_identical_to_reference(seed):
    # No reads: every instant is solved exactly once, at its end.
    _, ref_stalls, ref = churn(EagerReferenceNetwork, seed, read_share=0.0)
    _, stalls, fast = churn(FluidNetwork, seed, read_share=0.0)
    assert fast == ref
    assert stalls == ref_stalls
    done = sum(1 for _, completed_at, _ in ref if completed_at is not None)
    assert done > 0, "churn never completed a flow; test is vacuous"


@pytest.mark.parametrize("read_share", [0.3, 1.0])
@pytest.mark.parametrize("seed", [7, 21])
def test_mid_instant_reads_bit_identical_to_reference(seed, read_share):
    # Reads between the actions of one instant force a solve; they must
    # show what the eager oracle shows, and leave the outcome unchanged.
    ref_reads, ref_stalls, ref = churn(EagerReferenceNetwork, seed, read_share)
    reads, stalls, fast = churn(FluidNetwork, seed, read_share)
    assert reads == ref_reads
    assert len(reads) > 50
    assert fast == ref
    assert stalls == ref_stalls


def test_churn_exercises_contention_and_stalls():
    # Guard against the churn above going vacuous.
    reads, stalls, outcomes = churn(FluidNetwork, 7, read_share=1.0)
    assert max(sum(1 for r in rates if r > 0) for rates in reads) >= 8
    assert stalls
    assert any(cancelled for _, _, cancelled in outcomes)


def test_steady_state_reallocation_early_out():
    # In a frozen environment (no weather, no glitches) periodic refresh
    # ticks change nothing: the allocator must skip the water-fill.
    env = CloudEnvironment(
        seed=3, variability_sigma=0.0, diurnal_amplitude=0.0, glitches=False
    )
    net = env.network
    a = env.provision("NEU", "Small", count=2)
    b = env.provision("NUS", "Small", count=2)
    big = 1e12  # never completes within the observation window
    net.start_flow(Flow([a[0], b[0]], size=big, streams=4))
    net.start_flow(Flow([a[1], b[1]], size=big, streams=4))
    skips_before = net.alloc_skips
    env.sim.run_until(env.sim.now + 200.0)
    assert net.alloc_skips > skips_before
    assert all(f.rate > 0 for f in net.flows)


def test_flow_cap_equals_the_oracle_walk_bit_for_bit():
    # Every private-ceiling input in turn: transport, 1-3 WAN hops (the
    # relay factor), a same-region hop, rate_cap, intrusiveness, a
    # degraded VM, and the weather at several instants (clipped at 1).
    env = CloudEnvironment(seed=5, variability_sigma=0.3, glitches=True)
    net = env.network
    regions = env.topology.region_codes()[:4]
    vms = {r: env.provision(r, "Small", count=2) for r in regions}
    vms[regions[0]][1].degrade(0.3)
    weather = []
    for t in (0.0, 900.0, 7_200.0, 50_000.0):
        env.sim.run_until(t)
        for transport, n_wan, rate_cap, intr, vm_i, local_hop in itertools.product(
            ("tcp", "udp"), (1, 2, 3), (None, 2 * MB), (0.25, 1.0), (0, 1),
            (False, True),
        ):
            path = [vms[r][vm_i] for r in regions[: n_wan + 1]]
            if local_hop:
                path.insert(1, vms[regions[0]][1 - vm_i])
            flow = Flow(path, 1.0, streams=1 + n_wan, intrusiveness=intr,
                        rate_cap=rate_cap, transport=transport)
            assert net.flow_cap(flow) == reference_flow_cap(net, flow)
        weather.extend(
            env.topology.link(a, b).process.factor(t)
            for a, b in zip(regions, regions[1:])
        )
    assert min(weather) < 1.0 < max(weather)  # both sides of the clip
