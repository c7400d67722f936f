"""Event objects and the priority queue driving the simulator.

Events are ordered by ``(time, priority, seq)``. The monotonically
increasing sequence number makes ordering *total* and therefore
deterministic: two events scheduled for the same instant always fire in the
order they were scheduled, regardless of heap internals.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

#: Lowest-urgency priority: a zero-delay event scheduled with it runs after
#: every other event of its timestamp, including ones scheduled while that
#: timestamp is being processed. For work that must see the instant's final
#: state, such as the fluid network's one solve per instant.
END_OF_INSTANT = 1 << 30


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`EventQueue.push` (usually via
    :meth:`repro.simulation.engine.Simulator.schedule`) and should be
    treated as opaque handles whose only user-facing operation is
    :meth:`cancel`.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it (lazy deletion)."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.6g} p={self.priority} {name}{state}>"


class EventQueue:
    """Binary-heap event queue with lazy cancellation.

    Cancelled events stay in the heap until they bubble to the top, at which
    point :meth:`pop` discards them. This keeps cancellation O(1) at the
    cost of transiently larger heaps — the right trade-off for a flow model
    that cancels and reschedules completion events on every rate change.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        priority: int = 0,
    ) -> Event:
        event = Event(time, priority, next(self._seq), callback, args)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event | None:
        """Remove and return the next live event, or ``None`` if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Time of the next live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
