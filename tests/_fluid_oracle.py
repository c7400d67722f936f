"""The original pure-Python max-min allocator, kept as the test oracle.

``FluidNetwork`` solves the sharing system lazily (once per simulated
instant) with incrementally maintained incidence and a scalar/numpy
water-fill. This module is what it has to agree with *bit for bit*:

* :func:`reference_rates` — the dict-based water-fill the repository
  started with, as a pure function of the network's current state
  (active flows, capacities at ``sim.now``). It shares no code with the
  production solver: resources are re-derived from the paths, private
  caps by an uncached per-hop walk.
* :class:`EagerReferenceNetwork` — a network that solves on every
  recompute, with the oracle's rates: the behaviour before the solve
  became lazy. Driving it and a plain ``FluidNetwork`` through the same
  script must end in identical per-flow state.
"""

from __future__ import annotations

from repro.cloud.network import _EPS, Flow, FluidNetwork


def reference_flow_cap(network: FluidNetwork, flow: Flow) -> float:
    """Private ceiling of one flow by a per-hop walk with no caching."""
    cap = flow.rate_cap if flow.rate_cap is not None else float("inf")
    now = network.sim.now
    n_wan = 0
    for a, b in zip(flow.path[:-1], flow.path[1:]):
        if a.region_code != b.region_code:
            n_wan += 1
            if flow.transport == "udp":
                continue  # no congestion window: NICs and shares bind
            link = network.topology.link(a.region_code, b.region_code)
            weather = min(1.0, link.process.factor(now))
            cap = min(cap, flow.streams * network.tcp_window / link.rtt * weather)
    for vm in flow.path:
        cap = min(cap, flow.intrusiveness * vm.uplink_capacity)
    if n_wan > 1:
        cap *= network.relay_efficiency ** (n_wan - 1)
    return cap


def reference_rates(network: FluidNetwork) -> dict[int, float]:
    """Max-min fair rates of the network's active flows, by ``flow_id``."""
    now = network.sim.now
    flows = sorted(network.flows, key=lambda f: f.flow_id)
    if not flows:
        return {}

    # Build resource table: id -> (remaining capacity, user flows).
    remaining: dict[object, float] = {}
    users: dict[object, list[Flow]] = {}

    def add_user(res: object, cap: float, flow: Flow) -> None:
        if res not in remaining:
            remaining[res] = cap
            users[res] = []
        users[res].append(flow)

    for f in flows:
        for vm in f.path[:-1]:
            add_user(("up", vm.vm_id), vm.uplink_capacity, f)
        for vm in f.path[1:]:
            add_user(("down", vm.vm_id), vm.downlink_capacity, f)
        for a, b in zip(f.path[:-1], f.path[1:]):
            if a.region_code == b.region_code:
                add_user(
                    ("intra", a.region_code), network.topology.intra_capacity, f
                )
            else:
                key = (a.region_code, b.region_code)
                add_user(
                    ("wan", key), network.topology.link(*key).capacity(now), f
                )

    caps = {f: reference_flow_cap(network, f) for f in flows}
    alloc = {f: 0.0 for f in flows}
    active: set[Flow] = set(flows)
    live_users = {res: set(fl) for res, fl in users.items()}

    while active:
        # Largest uniform increment every active flow can take.
        inc = min(caps[f] - alloc[f] for f in active)
        for res, flows_on in live_users.items():
            n = len(flows_on & active)
            if n:
                inc = min(inc, remaining[res] / n)
        if inc < 0:
            inc = 0.0
        for f in active:
            alloc[f] += inc
        for res, flows_on in live_users.items():
            n = len(flows_on & active)
            if n:
                remaining[res] -= inc * n
        # Freeze flows at their private cap.
        newly_frozen = {f for f in active if caps[f] - alloc[f] <= _EPS}
        # Freeze flows on saturated resources.
        for res, flows_on in live_users.items():
            if remaining[res] <= _EPS:
                newly_frozen |= flows_on & active
        if not newly_frozen:
            # Numerical stall: freeze the flow closest to its cap (first
            # by creation order among ties).
            newly_frozen = {
                min(
                    sorted(active, key=lambda f: f.flow_id),
                    key=lambda f: caps[f] - alloc[f],
                )
            }
        active -= newly_frozen

    return {f.flow_id: alloc[f] for f in flows}


class EagerReferenceNetwork(FluidNetwork):
    """Solve on every recompute, with the oracle's rates."""

    def _recompute(self) -> None:
        super()._recompute()
        self._solve()

    def _allocate(self) -> None:
        rates = reference_rates(self)
        for f in self._sorted_flows:
            f._rate = rates[f.flow_id]
