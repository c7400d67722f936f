"""The event log: every span and flight entry is one timestamped record.

Instrumented layers append plain dicts ``{"t": <virtual time>, "kind":
..., **fields}`` in occurrence order — simulator event dispatch
(``"event"``), fault-bus messages (``"fault"``) and spans (``"span"``).
A span is written once, by :meth:`EventLog.record_span`, at completion,
with endpoints its caller already holds::

    {"t": ..., "kind": "span", "name": ..., "start": ..., "end": ...,
     "attrs": {...}}

The same dict is kept for two lengths of time: the **ring** holds the last
:data:`RING_CAPACITY` entries of every kind (the post-mortem window a
failed scenario dumps), and **spans** holds every span for the whole run
(``--trace``, latency reconstruction). Both are written out by the one
JSONL writer :func:`dump` and read back by :func:`read_jsonl`.

All timestamps come from the bound clock — virtual seconds when attached
to a :class:`~repro.simulation.engine.Simulator`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Iterable

#: Entries the ring keeps. Large enough that a failed scenario's dump
#: reproduces well over the last thousand events; small enough that the
#: resident ring stays a few MB even with verbose attributes.
RING_CAPACITY = 8192


class EventLog:
    """Timestamped records: a bounded ring of all kinds, every span kept."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self.ring: deque[dict[str, Any]] = deque(maxlen=RING_CAPACITY)
        self.spans: list[dict[str, Any]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Timestamp entries from a clock (normally ``sim.now``)."""
        self._clock = clock

    def record(self, kind: str, **fields: Any) -> None:
        """Append one entry stamped with the current (virtual) time."""
        entry = {"t": self._clock(), "kind": kind}
        entry.update(fields)
        self.ring.append(entry)

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:
        """Record the finished interval ``[start, end]`` as one entry."""
        entry = {
            "t": self._clock(),
            "kind": "span",
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        self.ring.append(entry)
        self.spans.append(entry)


class NullEventLog:
    """Disabled event log: records nothing and allocates nothing."""

    __slots__ = ()
    ring: tuple = ()
    #: Never appended to, so one shared list is safe.
    spans: list[dict[str, Any]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def record(self, kind: str, **fields: Any) -> None:
        pass

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:
        pass


NULL_LOG = NullEventLog()


def dump(path: str, entries: Iterable[dict[str, Any]]) -> int:
    """Write entries as JSONL (sorted keys); returns the entry count.

    Values that are not JSON are stringified rather than dropped — a
    post-mortem dump must never fail because some payload object lacked
    an encoder.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True, default=str))
            fh.write("\n")
            n += 1
    return n


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Parse a :func:`dump` back into entry dicts (skips blank lines)."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
