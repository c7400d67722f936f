"""Hierarchical aggregation: edge sites → regional hubs → global.

With many producing sites per continent, shipping every site's partials
across the ocean wastes the most expensive links. A *regional hub* sits
between: nearby sites ship their window partials to the hub over cheap
intra-continent links; the hub merges partials per (window, key) — the
merge is associative, so hub-merged state is indistinguishable from
site state — and forwards one merged partial per window/key across the
backbone. Transcontinental volume then scales with hubs, not with sites,
at the price of one extra hold-and-merge stage of latency.

Hubs are a topology of :class:`~repro.streaming.runtime.GeoStreamRuntime`
(its ``hubs=`` argument maps site region → hub region), not a runtime of
their own: each hub runs a :class:`HubAggregator` fed by its children's
shipping backends and ships onward with its own backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import SageEngine
from repro.streaming.batching import Batcher, HybridBatchPolicy
from repro.streaming.dataflow import StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate
from repro.streaming.windows import Window
from repro.simulation.units import KB

_RAW_PAYLOAD = (
    "hierarchical aggregation requires partial-aggregate records "
    "(ship_raw_records jobs bypass hubs)"
)


@dataclass
class _HubSlot:
    """One (window, key)'s merged state, held until its hold timer fires."""

    state: object
    count: int


class HubAggregator:
    """Merges child-site partials and forwards merged partials onward."""

    def __init__(
        self,
        engine: SageEngine,
        job: StreamJob,
        hub_region: str,
        shipping,
        hold: float = 2.0,
    ) -> None:
        """``hold``: how long after the first partial of a (window, key)
        arrives the hub waits for siblings before forwarding the merge."""
        if hold < 0:
            raise ValueError("hold must be non-negative")
        self.engine = engine
        self.job = job
        self.hub_region = hub_region
        self.shipping = shipping
        self.hold = hold
        self.batcher = Batcher(
            HybridBatchPolicy(64 * KB, max(hold, 0.5)), origin=hub_region
        )
        self._slots: dict[tuple[Window, str], _HubSlot] = {}
        #: Trace IDs of child batches merged since the last onward batch
        #: was cut — stamped as ``parents`` on the outgoing trace, the
        #: cross-tier edge of the trace tree.
        self._parent_ids: list[str] = []
        #: ``(origin, seq)`` of merged child batches — at-least-once
        #: shipping from the edge may re-send; a duplicate must not be
        #: merged into the hub state twice.
        self._seen_batches: set[tuple[str, int]] = set()
        self.duplicates_dropped = 0
        self.partials_in = 0
        self.partials_out = 0
        #: Ticks the periodic flush was held because onward shipping was
        #: saturated (in-flight window full / breaker open) — hub-level
        #: backpressure: merged state keeps accumulating instead of
        #: piling batches onto a link that cannot take them.
        self.held_ticks = 0
        self._ticker = engine.sim.add_periodic(1.0, self._tick)

    def stop(self) -> None:
        self._ticker.stop()

    # ------------------------------------------------------------------
    def deliver(self, batch: Batch) -> None:
        """Receive a child site's batch (plugged as its delivery target)."""
        if not isinstance(batch.records, list):
            raise TypeError(_RAW_PAYLOAD)
        if batch.origin:
            key = (batch.origin, batch.seq)
            if key in self._seen_batches:
                self.duplicates_dropped += 1
                return
            self._seen_batches.add(key)
        if batch.trace is not None:
            self._parent_ids.append(batch.trace.trace_id)
        for record in batch.records:
            value = record.value
            if not isinstance(value, PartialAggregate):
                raise TypeError(_RAW_PAYLOAD)
            self.partials_in += 1
            slot_key = (value.window, value.key)
            slot = self._slots.get(slot_key)
            if slot is None:
                self._slots[slot_key] = _HubSlot(value.state, value.count)
                self.engine.sim.schedule(self.hold, self._flush, slot_key)
            else:
                slot.state = self.job.aggregate.merge(slot.state, value.state)
                slot.count += value.count

    def _flush(self, slot_key: tuple[Window, str]) -> None:
        slot = self._slots.pop(slot_key)
        window, key = slot_key
        merged = Record(
            event_time=window.end,
            key=key,
            value=PartialAggregate(window, key, slot.state, slot.count),
            origin=self.hub_region,
            size_bytes=120.0,
        )
        self.partials_out += 1
        out = self.batcher.offer(merged, self.engine.sim.now)
        if out is not None:
            self._ship(out)

    def _tick(self) -> None:
        if getattr(self.shipping, "saturated", False):
            self.held_ticks += 1
            return
        out = self.batcher.maybe_flush(self.engine.sim.now)
        if out is not None:
            self._ship(out)

    def _ship(self, batch: Batch) -> None:
        if batch.trace is not None and self._parent_ids:
            batch.trace.parents = tuple(self._parent_ids)
            self._parent_ids.clear()
        self.shipping.ship(batch, self._delivered)

    def _delivered(self, batch: Batch) -> None:
        self.on_delivered(batch)

    #: Set by the runtime: where forwarded batches land (global aggregator).
    on_delivered = staticmethod(lambda batch: None)

    @property
    def open_slots(self) -> int:
        """(window, key) merges still waiting for their hold timer."""
        return len(self._slots)

    @property
    def reduction_ratio(self) -> float:
        """Partials merged away by the hub (1 − out/in)."""
        if self.partials_in == 0:
            return 0.0
        return 1.0 - self.partials_out / self.partials_in
