"""The fault injector: applies a :class:`~repro.faults.plan.FaultPlan`.

The injector schedules every plan event on the simulation clock and
applies it to the live environment: crashing/restoring VMs, taking WAN
links down/up, scaling link capacity, and arming batch drop/duplicate
windows that the reliable shipping layer consults through
:meth:`FaultInjector.intercept_batch`. Every applied fault lands in an
ordered :attr:`log` — with a fixed seed the log is bit-identical across
runs, which is the reproducibility contract of ``repro chaos``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs import NULL_OBSERVER


@dataclass(frozen=True)
class AppliedFault:
    """One fault as actually applied (the event-log record)."""

    time: float
    kind: str
    target: str
    param: float = 0.0


@dataclass
class _BatchWindow:
    kind: str
    origin: str
    until: float
    probability: float
    applied: int = 0


@dataclass
class RecoveryReport:
    """What :meth:`FaultInjector.report` returns: the faults applied and
    the in-flight batches dropped or duplicated.

    No CLI command or scenario prints it. Tests read it, and perfbench
    resolves ``FaultInjector.report`` as one of the ``faults`` layer's
    boundaries.
    """

    faults: list[AppliedFault] = field(default_factory=list)
    batches_dropped: int = 0
    batches_duplicated: int = 0

    def describe(self) -> str:
        lines = [f"faults applied: {len(self.faults)}"]
        for f in self.faults:
            extra = f" ({f.param:.0f})" if f.param else ""
            lines.append(f"  t={f.time:8.1f}s  {f.kind:<15} {f.target}{extra}")
        lines.append(
            f"batches dropped in flight: {self.batches_dropped}, "
            f"duplicated: {self.batches_duplicated}"
        )
        return "\n".join(lines)


class FaultInjector:
    """Applies a fault plan to a running engine's environment."""

    def __init__(self, engine, plan: FaultPlan, observer=None) -> None:
        self.engine = engine
        self.env = engine.env
        self.sim = engine.env.sim
        self.plan = plan
        self.observer = (
            observer if observer is not None
            else getattr(engine, "observer", NULL_OBSERVER)
        )
        #: Ordered log of applied faults (including batch interceptions).
        self.log: list[AppliedFault] = []
        self._windows: list[_BatchWindow] = []
        self._rng = self.sim.rngs.get("faults/batch")
        self._armed = False

    # ------------------------------------------------------------------
    def arm(self) -> "FaultInjector":
        """Schedule every plan event and register with the engine.

        Plan times are *relative to arming*: arming at t₀ applies an
        event with ``time=60`` at t₀+60. A scenario therefore means the
        same thing whether the engine warmed up for two minutes or an
        hour before the chaos starts.
        """
        if self._armed:
            raise RuntimeError("injector already armed")
        self._armed = True
        for event in self.plan:
            self.sim.schedule(event.time, self._apply, event)
        if hasattr(self.engine, "attach_faults"):
            self.engine.attach_faults(self)
        return self

    # ------------------------------------------------------------------
    def _record(self, kind: str, target: str, param: float = 0.0) -> None:
        self.log.append(AppliedFault(self.sim.now, kind, target, param))
        if self.observer.enabled:
            self.observer.counter("faults_injected_total", kind=kind).inc()

    def _emit(self, event: FaultEvent) -> None:
        emit = getattr(self.engine, "emit_fault", None)
        if emit is not None:
            emit(event.kind, event.target)

    def _find_vm(self, vm_id: str):
        for vm in self.env.deployment.vms():
            if vm.vm_id == vm_id:
                return vm
        raise KeyError(f"no deployed VM {vm_id!r}")

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind == FaultKind.VM_CRASH:
            self._find_vm(event.target).fail()
            self.env.network.notify_change()
        elif kind == FaultKind.VM_RESTART:
            self._find_vm(event.target).restore()
            self.env.network.notify_change()
        elif kind == FaultKind.LINK_DOWN:
            src, dst = event.target.split("->")
            self.env.topology.link(src, dst).set_down()
            self.env.network.notify_change()
        elif kind == FaultKind.LINK_UP:
            src, dst = event.target.split("->")
            self.env.topology.link(src, dst).set_up()
            self.env.network.notify_change()
        elif kind == FaultKind.LINK_FLAP:
            src, dst = event.target.split("->")
            link = self.env.topology.link(src, dst)
            link.scale_capacity(event.param2)
            self.env.network.notify_change()
            self.sim.schedule(event.param, self._unflap, link)
        elif kind in (FaultKind.BATCH_DROP, FaultKind.BATCH_DUP):
            self._windows.append(
                _BatchWindow(
                    kind,
                    event.target,
                    self.sim.now + event.param,
                    event.param2 or 1.0,
                )
            )
        elif kind == FaultKind.LEADER_KILL:
            # No direct environment mutation: the emit below carries the
            # event onto the fault bus, where an armed ControlPlane kills
            # whichever replica currently holds the lease and drives the
            # standby promotion. Without a control plane the event is a
            # recorded no-op by design.
            pass
        self._record(kind, event.target, event.param)
        self._emit(event)

    def _unflap(self, link) -> None:
        link.scale_capacity(1.0)
        self.env.network.notify_change()
        self._record(FaultKind.LINK_UP, f"{link.src}->{link.dst}")
        self._emit(FaultEvent(self.sim.now, FaultKind.LINK_UP,
                              f"{link.src}->{link.dst}"))

    # ------------------------------------------------------------------
    # Batch interception (consulted by ReliableShipping per attempt)
    # ------------------------------------------------------------------
    def intercept_batch(self, origin: str, seq: int) -> str:
        """Verdict for one shipped batch: deliver, drop, or duplicate."""
        now = self.sim.now
        for window in self._windows:
            if now > window.until:
                continue
            if window.origin not in ("*", origin):
                continue
            if (
                window.probability < 1.0
                and self._rng.random() >= window.probability
            ):
                continue
            window.applied += 1
            self._record(window.kind, f"{origin}:{seq}")
            return (
                "drop" if window.kind == FaultKind.BATCH_DROP else "duplicate"
            )
        return "deliver"

    # ------------------------------------------------------------------
    @property
    def batches_dropped(self) -> int:
        return sum(1 for f in self.log if f.kind == FaultKind.BATCH_DROP
                   and ":" in f.target)

    @property
    def batches_duplicated(self) -> int:
        return sum(1 for f in self.log if f.kind == FaultKind.BATCH_DUP
                   and ":" in f.target)

    def report(self) -> RecoveryReport:
        return RecoveryReport(
            faults=list(self.log),
            batches_dropped=self.batches_dropped,
            batches_duplicated=self.batches_duplicated,
        )
