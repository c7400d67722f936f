"""The discrete-event simulator.

A :class:`Simulator` owns virtual time. Components schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or :meth:`Simulator.schedule_at`
(absolute time); :meth:`Simulator.run_until` drains the event queue up to a
horizon. Periodic activities (monitoring probes, capacity re-sampling,
stream ticks) use :meth:`Simulator.add_periodic`, which reschedules itself
and can be stopped through the returned :class:`PeriodicTask` handle.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs import NULL_OBSERVER, NULL_STAGE_TIMER
from repro.simulation.events import Event, EventQueue
from repro.simulation.random import RngRegistry


class SimulationError(RuntimeError):
    """Raised for scheduling in the past or a runaway event loop."""


class Simulator:
    """Deterministic event-driven virtual-time executor."""

    def __init__(self, seed: int = 0, max_events: int = 50_000_000) -> None:
        self.now: float = 0.0
        self.rngs = RngRegistry(seed)
        self.queue = EventQueue()
        self.events_processed: int = 0
        #: Hard cap guarding against accidental infinite self-rescheduling.
        self.max_events = max_events
        self._obs_enabled = False
        self._m_events = NULL_OBSERVER.counter("sim_events_total")
        self._m_vtime = NULL_OBSERVER.gauge("sim_virtual_time_seconds")
        self._m_wall = NULL_OBSERVER.counter("sim_wall_seconds_total")
        #: ``StageProfiler.owner_timer`` while profiled; ``None`` while
        #: disabled so :meth:`step` pays one comparison instead of a no-op
        #: context manager on every dispatched event.
        self._owner_timer = None
        self._st_loop = NULL_OBSERVER.stage("sim.loop")
        self._flight = None

    def attach_observer(self, observer) -> None:
        """Register metric/profiling handles for the event loop.

        With a disabled observer the handles are shared no-ops and
        ``run_until`` skips even the wall-clock reads, so the loop stays
        at its uninstrumented cost.
        """
        self._obs_enabled = observer.enabled
        self._m_events = observer.counter("sim_events_total")
        self._m_vtime = observer.gauge("sim_virtual_time_seconds")
        self._m_wall = observer.counter("sim_wall_seconds_total")
        self._st_loop = observer.stage("sim.loop")
        self._owner_timer = (
            observer.profiler.owner_timer if observer.enabled else None
        )
        self._flight = observer.log if observer.enabled else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time} < now {self.now}")
        return self.queue.push(time, callback, args, priority)

    def add_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: float | None = None,
        priority: int = 0,
    ) -> "PeriodicTask":
        """Run ``callback(*args)`` every ``interval`` seconds until stopped.

        ``start_delay`` defaults to one full interval (i.e. the first firing
        is at ``now + interval``); pass ``0.0`` to fire immediately.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        task = PeriodicTask(self, interval, callback, args, priority)
        task._arm(interval if start_delay is None else start_delay)
        return task

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process a single event. Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue produced time travel")
        self.now = event.time
        self.events_processed += 1
        if self.events_processed > self.max_events:
            raise SimulationError(
                f"exceeded max_events={self.max_events}; "
                "likely a runaway periodic task"
            )
        if self._owner_timer is None:
            event.callback(*event.args)
        else:
            callback = event.callback
            with self._owner_stage(callback):
                self._flight.record(
                    "event",
                    fn=getattr(callback, "__qualname__", None)
                    or repr(callback),
                )
                callback(*event.args)
        return True

    def _owner_stage(self, callback: Callable[..., Any]):
        """The stage a profiled callback runs in: its owning module's.

        The kernel's own re-arming callbacks are looked through — a
        :class:`PeriodicTask` firing is its ``callback``'s work — and a
        :class:`PeriodicGroup` tick gets no stage of its own (its loop
        bills ``sim.loop``): each member entered its owner's stage when
        it joined, see :meth:`_in_owner_stage`.
        """
        owner = getattr(callback, "__self__", None)
        if type(owner) is PeriodicTask:
            callback = owner.callback
            owner = getattr(callback, "__self__", None)
        if type(owner) is PeriodicGroup:
            return NULL_STAGE_TIMER
        return self._owner_timer(callback)

    def _in_owner_stage(self, callback: Callable[[], Any]) -> Callable[[], Any]:
        """``callback`` itself, or while profiled a wrapper that runs it
        inside its owner's stage (resolved here, once per group member)."""
        if self._owner_timer is None:
            return callback
        stage = self._owner_stage(callback)

        def staged() -> None:
            with stage:
                callback()

        return staged

    def _drain(self, horizon: float) -> None:
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > horizon:
                break
            self.step()

    def run_until(self, horizon: float) -> None:
        """Process events with time ≤ horizon, then set ``now = horizon``."""
        if horizon < self.now:
            raise SimulationError(f"horizon {horizon} < now {self.now}")
        if self._obs_enabled:
            wall0 = time.perf_counter()
            events0 = self.events_processed
            # ``sim.loop`` is the outermost stage: its exclusive time is
            # pure queue management (peek/pop/heap maintenance), and it
            # opens the profiled window that every nested stage's share
            # is reported against.
            with self._st_loop:
                self._drain(horizon)
            self.now = horizon
            self._m_wall.inc(time.perf_counter() - wall0)
            self._m_events.inc(self.events_processed - events0)
            self._m_vtime.set(self.now)
        else:
            self._drain(horizon)
            self.now = horizon



class PeriodicTask:
    """Handle for a self-rescheduling periodic callback."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        priority: int,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.priority = priority
        self.fired: int = 0
        self._event: Event | None = None
        self._stopped = False

    def _arm(self, delay: float) -> None:
        if not self._stopped:
            self._event = self.sim.schedule(
                delay, self._fire, priority=self.priority
            )

    def _fire(self) -> None:
        if self._stopped:
            return
        self.fired += 1
        self.callback(*self.args)
        self._arm(self.interval)

    def stop(self) -> None:
        """Stop future firings (the currently queued one is cancelled)."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def stopped(self) -> bool:
        return self._stopped


class PeriodicGroup:
    """Many same-interval callbacks driven by ONE periodic queue event.

    Batch event scheduling for the streaming record plane: a
    site with many sources costs one event-queue entry per tick instead
    of one per source, collapsing event-dispatch volume by the fan-in
    factor. Members fire in registration order within the shared tick —
    exactly the stable same-timestamp ordering the per-event scheme
    produced for tasks armed in that same order — so simulation results
    are unchanged.

    Members join via :meth:`add`, which returns a
    :class:`GroupMember` handle compatible with :class:`PeriodicTask`
    (``stop()``, ``fired``, ``stopped``). The underlying queue event
    exists only while at least one live member remains; adding a member
    to a retired group re-arms it one full interval out, matching
    ``add_periodic`` phase.
    """

    def __init__(
        self, sim: Simulator, interval: float, priority: int = 0
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = interval
        self.priority = priority
        self._members: list[GroupMember] = []
        self._task: PeriodicTask | None = None

    def add(self, callback: Callable[[], Any]) -> "GroupMember":
        """Register ``callback`` to fire on every group tick."""
        member = GroupMember(self, self.sim._in_owner_stage(callback))
        self._members.append(member)
        if self._task is None:
            self._task = self.sim.add_periodic(
                self.interval, self._fire, priority=self.priority
            )
        return member

    def _fire(self) -> None:
        # Snapshot: members added mid-tick (e.g. by another member's
        # callback) first fire on the NEXT tick, like a freshly armed
        # PeriodicTask would.
        for member in list(self._members):
            if not member.stopped:
                member.fired += 1
                member.callback()

    def _retire(self, member: "GroupMember") -> None:
        try:
            self._members.remove(member)
        except ValueError:
            pass
        if not self._members and self._task is not None:
            self._task.stop()
            self._task = None

    @property
    def members(self) -> int:
        """Number of live members."""
        return len(self._members)


class GroupMember:
    """A :class:`PeriodicTask`-compatible handle for one group member."""

    __slots__ = ("group", "callback", "fired", "_stopped")

    def __init__(self, group: PeriodicGroup, callback: Callable[[], Any]):
        self.group = group
        self.callback = callback
        self.fired = 0
        self._stopped = False

    def stop(self) -> None:
        """Leave the group (the shared event retires with the last member)."""
        self._stopped = True
        self.group._retire(self)

    @property
    def stopped(self) -> bool:
        return self._stopped
