"""One stream event as an object, and the batches that cross the WAN.

The data plane moves records as columns
(:class:`~repro.streaming.records.RecordBatch`) and closed windows as
columns too (:class:`~repro.streaming.operators.PartialBlock`); a
:class:`Record` object exists only at the bridges ``from_records`` /
``to_records``, in hand-built batches, and inside a
:class:`~repro.streaming.operators.PerRecordAdapter`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.lineage import BatchTrace

if TYPE_CHECKING:
    from repro.streaming.operators import PartialBlock
    from repro.streaming.records import RecordBatch


@dataclass(frozen=True)
class Record:
    """One stream event.

    ``event_time`` is when the phenomenon happened (source clock);
    end-to-end latency is always measured against event time, so queueing,
    batching and WAN delays all show up in it.
    """

    event_time: float
    key: str
    value: Any
    origin: str = ""
    size_bytes: float = 200.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("record size must be positive")


@dataclass
class Batch:
    """A set of records (or partial aggregates) packed for the WAN.

    The payload ``records`` is one of three kinds:

    * a :class:`~repro.streaming.operators.PartialBlock` — a site's
      closed (window, key) partials as columns, what every site batcher
      cuts for a windowed job;
    * a :class:`~repro.streaming.records.RecordBatch` of raw records —
      what a raw-shipping job's batcher cuts;
    * a ``list[Record]`` — a hand-built batch, of raw records or of
      ``Record(PartialAggregate)`` partials; the global aggregator
      columnizes it once, at the door.

    The first two cross the WAN without a Python object per element.
    ``count`` (rows) and ``size_bytes`` are fixed once at construction —
    the batcher passes the byte total it accumulated while buffering —
    so shipping never re-walks the payload.
    """

    records: "list[Record] | RecordBatch | PartialBlock"
    origin: str
    created_at: float
    seq: int = 0
    #: Causal trace context stamped at cut time; shared across retries,
    #: duplicates, and checkpoint replay of the same batch object.
    trace: BatchTrace | None = None
    #: Payload bytes, summed left to right in record order (the same
    #: float chain the batcher's running total follows).
    size_bytes: float | None = None
    count: int = field(init=False)

    def __post_init__(self) -> None:
        payload = self.records
        self.count = len(payload)
        if not self.count:
            raise ValueError("a batch cannot be empty")
        if self.size_bytes is None:
            self.size_bytes = (
                sum(r.size_bytes for r in payload)
                if isinstance(payload, list)
                else payload.total_bytes
            )

    @property
    def oldest_event_time(self) -> float:
        payload = self.records
        if isinstance(payload, list):
            return min(r.event_time for r in payload)
        from repro.streaming.records import RecordBatch

        if isinstance(payload, RecordBatch):
            return float(payload.t.min())
        return min(payload.end)  # a partial's event time: its window's end
