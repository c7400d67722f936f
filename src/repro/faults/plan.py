"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` s on the
virtual-time axis. Plans are built explicitly (scripted chaos scenarios,
unit tests) or generated from a seed by :mod:`repro.gen` — both are fully
deterministic, which is what makes fault-recovery experiments reproducible
and A/B-comparable across strategies. A network partition is no kind of
its own: it is a ``link.down`` on every directed link across the cut, which
is what :func:`repro.gen.adversity.regional_outage` emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class FaultKind:
    """Namespace of fault-event kinds (plain strings for easy logging)."""

    VM_CRASH = "vm.crash"
    VM_RESTART = "vm.restart"
    LINK_DOWN = "link.down"
    LINK_UP = "link.up"
    LINK_FLAP = "link.flap"
    BATCH_DROP = "batch.drop"
    BATCH_DUP = "batch.dup"
    LEADER_KILL = "leader.kill"

    ALL = (
        VM_CRASH, VM_RESTART, LINK_DOWN, LINK_UP, LINK_FLAP,
        BATCH_DROP, BATCH_DUP, LEADER_KILL,
    )


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a VM id for VM faults, ``"SRC->DST"`` for link faults,
    and an origin-region filter (or ``"*"``) for batch faults. ``param`` is
    the duration of windowed faults (link flap, batch drop/dup windows)
    or the capacity factor for :data:`FaultKind.LINK_FLAP` (see
    ``param2``).
    """

    time: float
    kind: str
    target: str
    param: float = 0.0
    param2: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass
class FaultPlan:
    """An ordered, deterministic schedule of fault events."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        self.events.sort()
        return self

    # -- builders ------------------------------------------------------
    def crash_vm(
        self, time: float, vm_id: str, restart_after: float | None = None
    ) -> "FaultPlan":
        """Hard-crash ``vm_id``; optionally restart it after a delay."""
        self.add(FaultEvent(time, FaultKind.VM_CRASH, vm_id))
        if restart_after is not None:
            if restart_after <= 0:
                raise ValueError("restart_after must be positive")
            self.add(
                FaultEvent(time + restart_after, FaultKind.VM_RESTART, vm_id)
            )
        return self

    def link_down(
        self, time: float, src: str, dst: str, duration: float | None = None
    ) -> "FaultPlan":
        """Blackhole the directed WAN link; optionally restore later."""
        target = f"{src}->{dst}"
        self.add(FaultEvent(time, FaultKind.LINK_DOWN, target))
        if duration is not None:
            if duration <= 0:
                raise ValueError("duration must be positive")
            self.add(FaultEvent(time + duration, FaultKind.LINK_UP, target))
        return self

    def flap_link(
        self, time: float, src: str, dst: str, scale: float, duration: float
    ) -> "FaultPlan":
        """Scale the link's capacity by ``scale`` for ``duration`` seconds."""
        if scale < 0:
            raise ValueError("scale must be >= 0")
        if duration <= 0:
            raise ValueError("duration must be positive")
        return self.add(
            FaultEvent(time, FaultKind.LINK_FLAP, f"{src}->{dst}", duration, scale)
        )

    def drop_batches(
        self,
        time: float,
        duration: float,
        origin: str = "*",
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Drop shipped batches from ``origin`` during a time window."""
        return self._batch_window(
            FaultKind.BATCH_DROP, time, duration, origin, probability
        )

    def duplicate_batches(
        self,
        time: float,
        duration: float,
        origin: str = "*",
        probability: float = 1.0,
    ) -> "FaultPlan":
        """Duplicate shipped batches from ``origin`` during a time window."""
        return self._batch_window(
            FaultKind.BATCH_DUP, time, duration, origin, probability
        )

    def kill_leader(self, time: float, recovery: float = 0.0) -> "FaultPlan":
        """Kill whichever aggregator currently holds the leader lease.

        The injector records and emits the event on the fault bus; an
        armed :class:`repro.control.ControlPlane` performs the actual
        kill and the subsequent standby promotion. ``recovery`` is the
        expected kill-to-respawn window (MTTR bound + respawn delay) —
        it widens :meth:`horizon` so runners drain after the plane has
        fully recovered, exactly like other windowed faults.
        """
        if recovery < 0:
            raise ValueError("recovery must be >= 0")
        return self.add(
            FaultEvent(time, FaultKind.LEADER_KILL, "leader", recovery)
        )

    def _batch_window(
        self, kind: str, time: float, duration: float, origin: str, p: float
    ) -> "FaultPlan":
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not 0.0 < p <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        return self.add(FaultEvent(time, kind, origin, duration, p))

    # -- views ---------------------------------------------------------
    def horizon(self) -> float:
        """Virtual time (relative to arming) when the plan is fully over.

        Windowed faults (link flaps, batch drop/dup windows) carry their
        duration in ``param``; their effect ends at ``time + param``, not
        at ``time``. A runner that wants a quiescent tail must keep the
        simulation alive past this point before draining.
        """
        end = 0.0
        windowed = (FaultKind.LINK_FLAP, FaultKind.BATCH_DROP,
                    FaultKind.BATCH_DUP, FaultKind.LEADER_KILL)
        for e in self.events:
            e_end = e.time + (e.param if e.kind in windowed else 0.0)
            end = max(end, e_end)
        return end

    def counts_by_kind(self) -> dict[str, int]:
        """Event counts keyed by :class:`FaultKind`, sorted by kind."""
        counts: dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        lines = [
            f"t={e.time:8.1f}s  {e.kind:<15} {e.target}"
            + (f"  ({e.param:.0f}s)" if e.param else "")
            for e in self.events
        ]
        return "\n".join(lines) if lines else "(empty fault plan)"


def chaos_scenario(
    sender_vm_ids: list[str],
    link: tuple[str, str],
    t_crash: float = 60.0,
    crash_outage: float = 90.0,
    t_blackhole: float = 90.0,
    blackhole_outage: float = 60.0,
    dup_window: tuple[float, float] | None = (30.0, 60.0),
) -> FaultPlan:
    """The scripted ``repro chaos`` scenario.

    Crashes two sender VMs mid-run, blackholes one inter-region link,
    and (optionally) duplicates shipped batches for a while — the three
    failure classes the recovery machinery must absorb with zero loss
    and zero double-counting.
    """
    if len(sender_vm_ids) < 2:
        raise ValueError("chaos scenario needs at least two sender VMs")
    plan = FaultPlan()
    plan.crash_vm(t_crash, sender_vm_ids[0], restart_after=crash_outage)
    plan.crash_vm(t_crash + 5.0, sender_vm_ids[1], restart_after=crash_outage)
    plan.link_down(t_blackhole, link[0], link[1], duration=blackhole_outage)
    if dup_window is not None:
        plan.duplicate_batches(dup_window[0], dup_window[1])
    return plan
