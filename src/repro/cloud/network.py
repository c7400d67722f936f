"""Wide-area topology and the fluid max-min fair flow model.

Simulating every TCP packet across a week of virtual time is intractable
and unnecessary: the decisions SAGE makes depend on *rates*. We therefore
use the fluid-flow approximation standard in network simulation (SimGrid
family): each transfer is a flow with an instantaneous rate; rates are the
max-min fair allocation over shared resources; the event engine advances
flows between rate changes analytically.

Resources shared by flows:

* each VM's NIC uplink and downlink (bytes/s, degraded by VM health),
* each ordered inter-datacenter WAN link, whose deliverable capacity
  varies over time through a :mod:`repro.cloud.variability` process,
* a per-region intra-datacenter fabric (large, rarely binding).

Each flow additionally carries a private cap modelling the transport
protocol and politeness constraints:

* TCP throughput ceiling ``streams × window / RTT`` per hop — multi-hop
  relays re-terminate TCP per hop, so a long fat path relayed through an
  intermediate datacenter can beat the direct path's RTT ceiling, which is
  precisely the phenomenon the multi-datacenter path strategy exploits;
* the *intrusiveness* fraction: a transfer allowed to use only 10 % of a
  VM's resources is capped at 10 % of that VM's NIC on every hop.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Callable

from repro.cloud.regions import RegionCatalog, default_catalog, pair_bias
from repro.cloud.variability import (
    CapacityProcess,
    ConstantProcess,
    default_wan_process,
)
from repro.cloud.vm import VM
from repro.simulation.engine import Simulator
from repro.simulation.events import END_OF_INSTANT, Event
from repro.simulation.units import KB, MB, MINUTE

_EPS = 1e-9
#: Smallest completion delay _schedule_next will arm. An eta below the
#: float resolution of ``sim.now`` would re-enter ``_recompute`` at the
#: same instant (settle sees dt == 0, nothing progresses) and spin the
#: event loop forever; one nanosecond of simulated time is enough for
#: settle to push any such near-finished flow past its remaining bytes.
_MIN_ETA = 1e-9

#: Baseline per-tenant deliverable WAN capacity by distance class, bytes/s.
SAME_CONTINENT_CAPACITY = 55 * MB
CROSS_CONTINENT_CAPACITY = 30 * MB
#: Intra-datacenter fabric available to one tenant deployment.
INTRA_CAPACITY = 2000 * MB


class WanLink:
    """One ordered inter-datacenter link with time-varying capacity.

    Besides the stochastic weather process, a link carries two *fault*
    controls used by the injector: ``up`` (False = blackhole — the link
    delivers nothing until restored) and ``fault_scale`` (a capacity
    multiplier for flapping/brownout faults).
    """

    __slots__ = ("src", "dst", "base_capacity", "process", "rtt", "up",
                 "fault_scale")

    def __init__(
        self,
        src: str,
        dst: str,
        base_capacity: float,
        rtt: float,
        process: CapacityProcess | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.base_capacity = base_capacity
        self.rtt = rtt
        self.process = process or ConstantProcess()
        self.up: bool = True
        self.fault_scale: float = 1.0

    def capacity(self, t: float) -> float:
        """Deliverable capacity (bytes/s) at virtual time ``t``."""
        if not self.up:
            return 0.0
        return self.base_capacity * self.process.factor(t) * self.fault_scale

    def set_down(self) -> None:
        """Blackhole the link: zero deliverable capacity until restored."""
        self.up = False

    def set_up(self) -> None:
        self.up = True

    def scale_capacity(self, factor: float) -> None:
        """Apply a fault multiplier (1.0 = nominal) on top of the weather."""
        if factor < 0:
            raise ValueError(f"fault scale must be >= 0, got {factor}")
        self.fault_scale = factor

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)

    def __repr__(self) -> str:
        return f"WanLink({self.src}->{self.dst}, {self.base_capacity / MB:.0f} MB/s)"


class Topology:
    """Region catalog plus the full mesh of WAN links."""

    def __init__(
        self,
        catalog: RegionCatalog,
        links: dict[tuple[str, str], WanLink],
        intra_capacity: float = INTRA_CAPACITY,
    ) -> None:
        self.catalog = catalog
        self.links = links
        self.intra_capacity = intra_capacity

    @classmethod
    def build(
        cls,
        sim: Simulator | None = None,
        catalog: RegionCatalog | None = None,
        variability_sigma: float = 0.20,
        diurnal_amplitude: float = 0.12,
        glitches: bool = True,
        capacity_scale: float = 1.0,
        epoch: float = MINUTE,
    ) -> "Topology":
        """Construct the default six-region mesh.

        Pass ``variability_sigma=0`` (with ``glitches=False`` and
        ``diurnal_amplitude=0``) for a perfectly stable cloud — useful in
        unit tests and as the control arm of variability ablations.
        """
        catalog = catalog or default_catalog()
        links: dict[tuple[str, str], WanLink] = {}
        for a, b in catalog.pairs(ordered=True):
            base = (
                SAME_CONTINENT_CAPACITY
                if a.continent == b.continent
                else CROSS_CONTINENT_CAPACITY
            )
            base *= pair_bias(a.code, b.code) * capacity_scale
            if sim is not None and (
                variability_sigma > 0 or diurnal_amplitude > 0 or glitches
            ):
                rng = sim.rngs.get(f"wan/{a.code}->{b.code}")
                process = default_wan_process(
                    rng,
                    sigma=variability_sigma,
                    diurnal_amplitude=diurnal_amplitude,
                    glitches=glitches,
                    epoch=epoch,
                )
            else:
                process = ConstantProcess()
            links[(a.code, b.code)] = WanLink(
                a.code, b.code, base, catalog.rtt(a, b), process
            )
        return cls(catalog, links)

    def link(self, src: str, dst: str) -> WanLink:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise KeyError(f"no WAN link {src}->{dst}") from None

    def rtt(self, src: str, dst: str) -> float:
        return self.catalog.rtt(src, dst)

    def region_codes(self) -> list[str]:
        return self.catalog.codes()


class Flow:
    """One fluid transfer along a VM path.

    ``path`` is the ordered VM chain ``[source, relay..., destination]``;
    consecutive VMs in different regions traverse the corresponding WAN
    link. A flow completes when ``transferred >= size``.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        path: list[VM],
        size: float,
        streams: int = 1,
        intrusiveness: float = 1.0,
        on_complete: Callable[["Flow"], None] | None = None,
        label: str = "",
        rate_cap: float | None = None,
        transport: str = "tcp",
    ) -> None:
        if len(path) < 2:
            raise ValueError("a flow needs at least source and destination")
        if size <= 0:
            raise ValueError("flow size must be positive")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        if not 0.0 < intrusiveness <= 1.0:
            raise ValueError("intrusiveness must be in (0, 1]")
        if rate_cap is not None and rate_cap <= 0:
            raise ValueError("rate_cap must be positive")
        if transport not in ("tcp", "udp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.flow_id = next(self._ids)
        #: Immutable once constructed: the WAN hop list below, the
        #: network's interned resource entries and the cap plan are all
        #: derived from it exactly once.
        self.path = list(path)
        self._wan_hops = [
            (a.region_code, b.region_code)
            for a, b in self.hops()
            if a.region_code != b.region_code
        ]
        self.size = float(size)
        self.streams = int(streams)
        self.intrusiveness = float(intrusiveness)
        self.on_complete = on_complete
        self.label = label
        self.rate_cap = rate_cap
        #: "tcp" flows are window/RTT-limited per hop; "udp" flows blast
        #: at whatever the NIC and link shares allow (delivery guarantees
        #: are then the sender's problem — see the UDP shipping backend).
        self.transport = transport
        self.transferred = 0.0
        #: Allocated rate as of the network's last solve; read it through
        #: :attr:`rate`, which brings a stale allocation up to date first.
        self._rate = 0.0
        self._net: "FluidNetwork | None" = None
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.cancelled = False
        #: Virtual time since which the flow's allocated rate has been
        #: (numerically) zero; None while the flow is moving. Stalls are
        #: the observable signature of a crashed VM or blackholed link.
        self.stalled_since: float | None = None
        self._stall_notified = False

    @property
    def src(self) -> VM:
        return self.path[0]

    @property
    def dst(self) -> VM:
        return self.path[-1]

    @property
    def remaining(self) -> float:
        return max(0.0, self.size - self.transferred)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def rate(self) -> float:
        """Instantaneous allocated rate, bytes/s (0 before start and
        after completion/cancel)."""
        net = self._net
        if net is not None and net._stale:
            net._solve()
        return self._rate

    def hops(self) -> list[tuple[VM, VM]]:
        return list(zip(self.path[:-1], self.path[1:]))

    def wan_hops(self) -> list[tuple[str, str]]:
        """Ordered region pairs of the inter-datacenter hops (shared
        list: do not mutate)."""
        return self._wan_hops

    def elapsed(self, now: float) -> float:
        if self.started_at is None:
            return 0.0
        end = self.completed_at if self.completed_at is not None else now
        return end - self.started_at

    def mean_throughput(self, now: float) -> float:
        el = self.elapsed(now)
        return self.transferred / el if el > 0 else 0.0

    def __repr__(self) -> str:
        route = "->".join(vm.region_code for vm in self.path)
        return f"Flow#{self.flow_id}({route}, {self.size / MB:.1f}MB)"


#: Resource-entry kinds (how ``_allocate`` reads each entry's capacity).
_RES_UP, _RES_DOWN, _RES_INTRA, _RES_WAN = range(4)


class _ResEntry:
    """One shared resource as seen by the allocator.

    ``epoch``/``cap``/``count``/``users``/``remaining`` are transient
    per-allocation scratch, reset by the epoch stamp; ``kind``/``obj``
    identify the resource (a VM, a WAN link, or the intra fabric).
    """

    __slots__ = (
        "kind", "obj", "cap", "weather", "weather_t", "remaining", "count",
        "live_users", "live_count", "live_pos",
    )

    def __init__(self, kind: int, obj: object) -> None:
        self.kind = kind
        self.obj = obj
        self.cap = 0.0
        #: Raw weather factor read this allocation (WAN entries only), and
        #: the virtual time it was read at. ``factor(t)`` is idempotent at
        #: fixed ``t`` for every capacity process, so repeated solves
        #: at one event time reuse the value instead of re-walking the
        #: process stack. Fault state (``up``/``fault_scale``) can change
        #: without time advancing, so the capacity itself is still
        #: recombined from the memoised factor on every allocation.
        self.weather = 1.0
        self.weather_t = -1.0
        self.remaining = 0.0
        self.count = 0
        #: Active flows crossing this resource, maintained incrementally
        #: on flow start/cancel/completion in start order (== flow_id
        #: order), so iteration is deterministic across processes.
        self.live_users: list["Flow"] = []
        self.live_count = 0
        #: Index into FluidNetwork._live_entries while live_count > 0.
        self.live_pos = -1


class FluidNetwork:
    """Event-driven fluid simulation of concurrent transfers.

    The network reacts to four kinds of events — flow start, flow cancel,
    flow completion, and the periodic capacity refresh — all of which
    funnel into :meth:`_recompute`: settle progress analytically since the
    previous event, complete what finished (callbacks fire here), and mark
    the rates *stale*.

    The sharing system is then solved **once per simulated instant**:
    marking stale arms one zero-delay event at
    :data:`~repro.simulation.END_OF_INSTANT` priority, which runs after
    every other event of that timestamp and does :meth:`_solve` —
    re-read link capacities, re-run max-min fair sharing, update the
    stall clocks, schedule the next projected completion. Rates only
    ever move bytes across a clock advance, so the allocations an eager
    solver computes between two actions of one instant are unobservable
    unless somebody reads them; every reader (:attr:`Flow.rate`,
    :meth:`throughput`, :meth:`link_utilization`, :meth:`stalled_flows`)
    therefore forces the solve first, and sees exactly what an eager
    solver would have shown it.

    A solve is *incremental*: the resource-incidence structure is
    maintained at flow start/cancel/completion, capacities of the
    resources the active flows actually touch are re-read and compared
    against the previous allocation's inputs (dirty-link tracking by
    value), and when nothing relevant changed the previous rates are
    reused outright. A full reallocation is one water-filling over the
    bottleneck sets (:meth:`_water_fill`). The original pure-Python
    allocator lives on as the test oracle (``tests/_fluid_oracle.py``);
    the fill keeps its floating-point expression trees, so rates are
    bit-identical to it.

    All flow iteration happens in ``flow_id`` (creation) order: iteration
    over the raw ``set`` would follow ``id()``-based hashes, which vary
    across processes and would break the bit-identical guarantee the
    parallel sweep runner makes for ``--jobs N`` vs serial runs.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tcp_window: float = 128 * KB,
        refresh_interval: float = 10.0,
        relay_efficiency: float = 0.95,
        stall_timeout: float = 30.0,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.tcp_window = tcp_window
        self.refresh_interval = refresh_interval
        #: Per-WAN-hop forwarding efficiency of store-and-forward relays
        #: (serialisation + copy overhead at the relay VM).
        self.relay_efficiency = relay_efficiency
        #: A flow whose allocated rate stays zero this long is *stalled*
        #: (crashed VM / blackholed link); ``on_stall`` fires once per flow.
        self.stall_timeout = stall_timeout
        self.on_stall: Callable[[Flow], None] | None = None
        self.flows: set[Flow] = set()
        self.bytes_completed = 0.0
        self.flows_completed = 0
        self._last_settle = sim.now
        self._completion_event: Event | None = None
        self._refresh_event: Event | None = None
        #: True between a recompute and the solve that follows it (at the
        #: end of the instant, or earlier when a reader asks for a rate).
        self._stale = False
        self._solve_event: Event | None = None
        # Incremental-allocation state. ``_flows_version`` bumps on every
        # start/cancel/completion; the flow-id-ordered view, the interned
        # resource entries, and the live resource-incidence structure are
        # all maintained in place at those three mutation points rather
        # than rebuilt per allocation.
        self._flows_version = 0
        self._sorted_flows: list[Flow] = []
        self._struct_version = -1
        self._res_intern: dict[object, _ResEntry] = {}
        self._live_entries: list[_ResEntry] = []
        self._last_entry_caps: list[float] | None = None
        self._last_flow_caps: list[float] | None = None
        #: Instrumentation: recomputes seen / solves they led to / full
        #: water-fillings run / solves that skipped theirs because no
        #: relevant input changed.
        self.recomputes = 0
        self.solves = 0
        self.allocations = 0
        self.alloc_skips = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def start_flow(self, flow: Flow) -> Flow:
        if flow.started_at is not None:
            raise ValueError(f"{flow!r} already started")
        flow.started_at = self.sim.now
        flow._net = self
        self.flows.add(flow)
        self._attach(flow)
        self._flows_version += 1
        self._recompute()
        return flow

    def cancel_flow(self, flow: Flow) -> None:
        if flow not in self.flows:
            return
        flow.cancelled = True
        self._settle()
        self.flows.discard(flow)
        self._detach(flow)
        self._flows_version += 1
        flow._rate = 0.0
        self._recompute()

    def _attach(self, flow: Flow) -> None:
        """Fold a starting flow into the live incidence structure."""
        sorted_flows = self._sorted_flows
        if sorted_flows and sorted_flows[-1].flow_id > flow.flow_id:
            # A flow constructed earlier but started later: keep the
            # flow-id order that the deterministic iteration relies on.
            bisect.insort(sorted_flows, flow, key=lambda f: f.flow_id)
        else:
            sorted_flows.append(flow)
        live = self._live_entries
        for e in self._flow_entries(flow):
            if e.live_count == 0:
                e.live_pos = len(live)
                live.append(e)
            e.live_users.append(flow)
            e.live_count += 1

    def _detach(self, flow: Flow) -> None:
        """Remove a cancelled/completed flow from the live incidence."""
        self._sorted_flows.remove(flow)
        live = self._live_entries
        for e in flow._net_entries:
            e.live_users.remove(flow)
            e.live_count -= 1
            if e.live_count == 0:
                last = live[-1]
                last.live_pos = e.live_pos
                live[e.live_pos] = last
                live.pop()
                e.live_pos = -1

    def throughput(self, flow: Flow) -> float:
        """Instantaneous allocated rate of a flow, bytes/s."""
        return flow.rate if flow in self.flows else 0.0

    def notify_change(self) -> None:
        """Re-allocate after an external capacity change.

        Call after crashing/restoring a VM or taking a link down/up so
        flow rates react at this instant instead of at the next refresh.
        """
        self._recompute()

    def stalled_flows(self, min_duration: float | None = None) -> list[Flow]:
        """Active flows whose rate has been zero for at least
        ``min_duration`` seconds (default: the network's stall timeout)."""
        if self._stale:
            self._solve()
        timeout = self.stall_timeout if min_duration is None else min_duration
        now = self.sim.now
        return [
            f
            for f in self._sorted_flows
            if f.stalled_since is not None and now - f.stalled_since >= timeout
        ]

    def link_utilization(self, src: str, dst: str) -> float:
        """Sum of current rates of flows crossing a WAN link."""
        if self._stale:
            self._solve()
        hop = (src, dst)
        return sum(f._rate for f in self._sorted_flows if hop in f._wan_hops)

    def flow_cap(self, flow: Flow) -> float:
        """Private ceiling of one flow (TCP windows, intrusiveness, NICs).

        The per-hop TCP ceiling is scaled by the link's current weather
        factor (clipped at 1): congestion inflates RTT and induces loss,
        so a single flow on a bad day delivers less than ``window/RTT``
        even when the aggregate link is far from saturated. This is what
        makes the cloud's variability *observable* to unsaturated probes.
        """
        cap = flow.rate_cap if flow.rate_cap is not None else float("inf")
        now = self.sim.now
        n_wan = 0
        for a, b in flow.hops():
            if a.region_code != b.region_code:
                n_wan += 1
                if flow.transport == "udp":
                    continue  # no congestion window: NICs and shares bind
                link = self.topology.link(a.region_code, b.region_code)
                weather = min(1.0, link.process.factor(now))
                cap = min(cap, flow.streams * self.tcp_window / link.rtt * weather)
        for vm in flow.path:
            cap = min(cap, flow.intrusiveness * vm.uplink_capacity)
        if n_wan > 1:
            cap *= self.relay_efficiency ** (n_wan - 1)
        return cap

    def isolated_rate(
        self,
        path: list[VM],
        streams: int = 1,
        intrusiveness: float = 1.0,
        rate_cap: float | None = None,
    ) -> float:
        """Rate a flow on ``path`` would get with no competing traffic.

        This is the quantity an iperf-style probe measures on an otherwise
        idle deployment, and the ground truth the estimator-accuracy
        experiments compare against.
        """
        probe = Flow(
            path, 1.0, streams=streams, intrusiveness=intrusiveness,
            rate_cap=rate_cap,
        )
        cap = self.flow_cap(probe)
        now = self.sim.now
        for a, b in probe.hops():
            if a.region_code != b.region_code:
                cap = min(
                    cap, self.topology.link(a.region_code, b.region_code).capacity(now)
                )
            else:
                cap = min(cap, self.topology.intra_capacity)
        return cap

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Advance every active flow by rate × elapsed since last event."""
        now = self.sim.now
        dt = now - self._last_settle
        if dt > 0:
            # The end-of-instant event solves before the clock can move.
            assert not self._stale, "clock advanced over stale flow rates"
            for f in self._sorted_flows:
                rate = f._rate
                if rate > 0:
                    done = f.transferred + rate * dt
                    f.transferred = done if done < f.size else f.size
        self._last_settle = now

    def _complete_finished(self) -> None:
        finished = None
        for f in self._sorted_flows:
            if f.size - f.transferred <= _EPS * f.size + _EPS:
                if finished is None:
                    finished = [f]
                else:
                    finished.append(f)
        if finished is None:
            return
        for f in finished:
            f.transferred = f.size
            f.completed_at = self.sim.now
            f._rate = 0.0
            self.flows.discard(f)
            self._detach(f)
            self.bytes_completed += f.size
            self.flows_completed += 1
        self._flows_version += 1
        # Callbacks run after bookkeeping so they can start follow-up flows.
        for f in finished:
            if f.on_complete is not None:
                f.on_complete(f)

    # -- allocation ----------------------------------------------------
    def _flow_entries(self, f: Flow) -> list["_ResEntry"]:
        """The interned resource entries a flow's path touches.

        Computed once per flow (paths are immutable) and cached on the
        flow, so a reallocation never re-hashes resource keys. Entries
        are shared between flows through ``_res_intern`` — identity is
        the resource, not the flow. Order matches the oracle
        allocator's first-touch order (uplinks, downlinks, hops) and is
        deduplicated, mirroring its ``live_users`` set semantics.
        """
        entries = getattr(f, "_net_entries", None)
        if entries is None:
            intern = self._res_intern
            entries = []
            seen = set()
            vm_entry: dict[str, _ResEntry] = {}

            def add(key: object, kind: int, obj: object) -> "_ResEntry":
                e = intern.get(key)
                if e is None:
                    e = intern[key] = _ResEntry(kind, obj)
                if key not in seen:
                    seen.add(key)
                    entries.append(e)
                return e

            for vm in f.path[:-1]:
                vm_entry.setdefault(
                    vm.vm_id, add(("up", vm.vm_id), _RES_UP, vm)
                )
            for vm in f.path[1:]:
                vm_entry.setdefault(
                    vm.vm_id, add(("down", vm.vm_id), _RES_DOWN, vm)
                )
            # The per-flow cap plan mirrors flow_cap() entry by entry:
            # (wan entry, window/RTT ceiling) pairs for TCP hops, one VM
            # entry per path VM (up and down NIC reads are the same
            # expression, so either entry's cap stands in for
            # uplink_capacity), and the relay factor.
            n_wan = 0
            wan_pairs: list[tuple[_ResEntry, float]] = []
            for a, b in f.hops():
                if a.region_code == b.region_code:
                    add(("intra", a.region_code), _RES_INTRA, None)
                else:
                    key = (a.region_code, b.region_code)
                    link = self.topology.link(*key)
                    e = add(("wan", key), _RES_WAN, link)
                    n_wan += 1
                    if f.transport != "udp":
                        wan_pairs.append(
                            (e, f.streams * self.tcp_window / link.rtt)
                        )
            base = f.rate_cap if f.rate_cap is not None else float("inf")
            relay = (
                self.relay_efficiency ** (n_wan - 1) if n_wan > 1 else None
            )
            f._cap_plan = (
                base,
                wan_pairs,
                [vm_entry[vm.vm_id] for vm in f.path],
                f.intrusiveness,
                relay,
            )
            f._net_entries = entries
        return entries

    def _allocate(self) -> None:
        """Max-min fair allocation with per-flow caps (water-filling)."""
        flows = self._sorted_flows
        if not flows:
            self._last_entry_caps = None
            self._last_flow_caps = None
            return
        now = self.sim.now

        # Re-read capacities of exactly the resources the active flows
        # touch. The incidence structure (which flows cross which
        # resources) is maintained incrementally on start/cancel/
        # completion, so this pass is O(resources) + O(flows), not
        # O(flows × path length). Per-flow private caps are derived from
        # the same entry-level reads (see the cap plan in _flow_entries),
        # so each resource is read exactly once per allocation no matter
        # how many flows cross it.
        entries = self._live_entries
        intra_cap = self.topology.intra_capacity
        for e in entries:
            kind = e.kind
            if kind == _RES_UP:
                e.cap = e.obj.uplink_capacity
            elif kind == _RES_DOWN:
                e.cap = e.obj.downlink_capacity
            elif kind == _RES_INTRA:
                e.cap = intra_cap
            else:
                link = e.obj
                if e.weather_t != now:
                    e.weather = link.process.factor(now)
                    e.weather_t = now
                e.cap = (
                    link.base_capacity * e.weather * link.fault_scale
                    if link.up
                    else 0.0
                )

        flow_caps: list[float] = []
        for ix, f in enumerate(flows):
            f._wf_i = ix
            base, wan_pairs, vm_entries, intr, relay = f._cap_plan
            cap = base
            for e, ceiling in wan_pairs:
                w = e.weather
                if w > 1.0:
                    w = 1.0
                hop_cap = ceiling * w
                if hop_cap < cap:
                    cap = hop_cap
            for e in vm_entries:
                vm_cap = intr * e.cap
                if vm_cap < cap:
                    cap = vm_cap
            flow_caps.append(cap * relay if relay is not None else cap)
        if len(flows) == 1:
            # A lone flow gets the min of its private cap and every
            # resource it crosses — no water-filling, and nothing to
            # compare against, so skip the early-out bookkeeping too.
            mn = flow_caps[0]
            for e in entries:
                c = e.cap
                if c < mn:
                    mn = c
            flows[0]._rate = mn
            self._struct_version = self._flows_version
            self._last_entry_caps = None
            self._last_flow_caps = None
            self.allocations += 1
            return
        entry_caps = [e.cap for e in entries]
        structure_changed = self._struct_version != self._flows_version
        if structure_changed:
            self._struct_version = self._flows_version
        elif (
            entry_caps == self._last_entry_caps
            and flow_caps == self._last_flow_caps
        ):
            # Early-out: same flows, same capacities, same private caps —
            # the previous rates are still the max-min fair allocation.
            self.alloc_skips += 1
            return
        self._last_entry_caps = entry_caps
        self._last_flow_caps = flow_caps
        self.allocations += 1

        self._water_fill(flows, entries, flow_caps)

    def _water_fill(
        self,
        flows: list[Flow],
        entries: list["_ResEntry"],
        flow_caps: list[float],
    ) -> None:
        """Progressive filling with incrementally maintained bottlenecks.

        Identical arithmetic to the oracle (same increments, same freeze
        conditions, same tie-break). Every unfrozen flow has taken every
        increment so far, so they all sit at one common ``level`` and a
        flow's rate is the level at which it froze. ``cap - level`` is
        monotone in ``cap``, so walking the flows in cap order finds the
        smallest gap and the cap-frozen flows without touching the rest;
        a round costs O(live resources + flows frozen), not O(flows).
        """
        n = len(flows)
        by_cap = sorted(range(n), key=flow_caps.__getitem__)
        active = [True] * n
        n_active = n
        for e in entries:
            e.remaining = e.cap
            e.count = e.live_count
        live = entries
        level = 0.0
        first = 0
        while n_active:
            # Largest uniform increment every active flow can take.
            while not active[by_cap[first]]:
                first += 1
            inc = flow_caps[by_cap[first]] - level
            for e in live:
                share = e.remaining / e.count
                if share < inc:
                    inc = share
            if inc < 0:
                inc = 0.0
            level += inc
            # Freeze flows at their private cap ...
            frozen = []
            for k in range(first, n):
                i = by_cap[k]
                if active[i]:
                    if flow_caps[i] - level > _EPS:
                        break
                    frozen.append(i)
            # ... and flows on saturated resources.
            for e in live:
                e.remaining -= inc * e.count
                if e.remaining <= _EPS:
                    for g in e.live_users:
                        i = g._wf_i
                        if active[i]:
                            frozen.append(i)
            if not frozen:
                # Numerical stall: freeze the flow closest to its cap
                # (first by creation order among ties).
                frozen = [
                    min(
                        (flow_caps[i] - level, i)
                        for i in range(n)
                        if active[i]
                    )[1]
                ]
            for i in frozen:
                if active[i]:
                    active[i] = False
                    n_active -= 1
                    f = flows[i]
                    f._rate = level
                    for e in f._net_entries:
                        e.count -= 1
            live = [e for e in live if e.count]

    def _recompute(self) -> None:
        """Account for a network event: progress, completions, stale rates."""
        self.recomputes += 1
        self._settle()
        self._complete_finished()
        self._stale = True
        if self._solve_event is None:
            self._solve_event = self.sim.schedule(
                0.0, self._end_of_instant, priority=END_OF_INSTANT
            )

    def _end_of_instant(self) -> None:
        self._solve_event = None
        if self._stale:
            self._solve()

    def _solve(self) -> None:
        """Bring rates, stall clocks and the next wake-up up to date."""
        self._stale = False
        self.solves += 1
        self._allocate()
        self._track_stalls()
        self._schedule_next()

    def _track_stalls(self) -> None:
        """Update per-flow stall clocks and fire ``on_stall`` once each."""
        now = self.sim.now
        timed_out: list[Flow] | None = None
        for f in self._sorted_flows:
            if f._rate > _EPS:
                f.stalled_since = None
                f._stall_notified = False
            elif f.stalled_since is None:
                f.stalled_since = now
            elif (
                not f._stall_notified
                and now - f.stalled_since >= self.stall_timeout
            ):
                f._stall_notified = True
                if timed_out is None:
                    timed_out = [f]
                else:
                    timed_out.append(f)
        if timed_out and self.on_stall is not None:
            # Deliver out-of-band: handlers may cancel flows, which would
            # re-enter the allocation we are in the middle of.
            for f in timed_out:
                self.sim.schedule(0.0, self.on_stall, f)

    def _schedule_next(self) -> None:
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if self._refresh_event is not None:
            self._refresh_event.cancel()
            self._refresh_event = None
        if not self.flows:
            return
        # Earliest projected completion at current rates.
        eta = None
        for f in self._sorted_flows:
            rate = f._rate
            if rate > 0:
                t = (f.size - f.transferred) / rate
                if eta is None or t < eta:
                    eta = t
        horizon = self.refresh_interval
        if eta is not None and eta <= horizon:
            self._completion_event = self.sim.schedule(
                max(eta, _MIN_ETA), self._recompute, priority=-1
            )
        else:
            # Either all rates are zero (wait for capacity refresh) or the
            # next completion is beyond the refresh horizon.
            self._refresh_event = self.sim.schedule(
                horizon, self._recompute, priority=-1
            )
