"""Hierarchical aggregation: edge sites → regional hubs → global.

With many producing sites per continent, shipping every site's partials
across the ocean wastes the most expensive links. A *regional hub* sits
between: nearby sites ship their window partials to the hub over cheap
intra-continent links; the hub merges partials per (window, key) — the
merge is associative, so hub-merged state is indistinguishable from
site state — and forwards one merged partial per window/key across the
backbone. Transcontinental volume then scales with hubs, not with sites,
at the price of one extra hold-and-merge stage of latency.

:class:`HierarchicalRuntime` wraps the flat
:class:`~repro.streaming.runtime.GeoStreamRuntime`: sites are grouped by
an assignment of site-region → hub-region; each hub runs a
:class:`HubAggregator` fed by its children's shipping backends and ships
onward with its own backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import SageEngine
from repro.streaming.batching import Batcher, HybridBatchPolicy
from repro.streaming.dataflow import StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate
from repro.streaming.runtime import GlobalAggregator, LatencyStats, SiteRuntime
from repro.streaming.windows import Window
from repro.simulation.units import KB

_RAW_PAYLOAD = (
    "hierarchical aggregation requires partial-aggregate records "
    "(ship_raw_records jobs bypass hubs)"
)


@dataclass
class _HubSlot:
    state: object = None
    count: int = 0
    sites: set | None = None
    flush_scheduled: bool = False
    #: Virtual time the hold timer fires (checkpointed for re-arming).
    due: float = 0.0


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
            slot = self._slots.get((value.window, value.key))
            if slot is None:
                slot = self._slots[(value.window, value.key)] = _HubSlot(
                    sites=set()
                )
            if slot.state is None:
                slot.state = value.state
            else:
                slot.state = self.job.aggregate.merge(slot.state, value.state)
            slot.count += value.count
            slot.sites.add(batch.origin or "?")
            if not slot.flush_scheduled:
                slot.flush_scheduled = True
                slot.due = self.engine.sim.now + self.hold
                self.engine.sim.schedule(
                    self.hold, self._flush, (value.window, value.key)
                )

    def _flush(self, slot_key: tuple[Window, str]) -> None:
        slot = self._slots.pop(slot_key, None)
        if slot is None or slot.state is None:  # pragma: no cover
            return
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

    # -- checkpoint/restore --------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable hub state: merged slots + batch dedup set."""
        return {
            "seen": sorted([o, s] for (o, s) in self._seen_batches),
            "slots": [
                [w.start, w.end, key, s.state, s.count,
                 sorted(s.sites or ()), s.due]
                for (w, key), s in sorted(
                    self._slots.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
            ],
            "partials_in": self.partials_in,
            "partials_out": self.partials_out,
        }

    def restore(self, payload: dict) -> None:
        """Rebuild hub state; hold timers re-arm with remaining wait."""
        now = self.engine.sim.now
        self._seen_batches = {(o, s) for o, s in payload["seen"]}
        self.partials_in = payload["partials_in"]
        self.partials_out = payload["partials_out"]
        self._slots = {}
        for start, end, key, state, count, sites, due in payload["slots"]:
            slot_key = (Window(start, end), key)
            self._slots[slot_key] = _HubSlot(
                state=state,
                count=count,
                sites=set(sites),
                flush_scheduled=True,
                due=due,
            )
            self.engine.sim.schedule(
                max(0.0, due - now), self._flush, slot_key
            )

    @property
    def reduction_ratio(self) -> float:
        """Partials merged away by the hub (1 − out/in)."""
        if self.partials_in == 0:
            return 0.0
        return 1.0 - self.partials_out / self.partials_in


class HierarchicalRuntime:
    """Two-level aggregation: sites → hubs → global site.

    ``hubs`` maps each producing site region to its hub region. Hubs need
    at least one deployment VM. Sites whose region *is* a hub still route
    through the hub object (a same-region ship is an intra-DC hop).
    """

    def __init__(
        self,
        engine: SageEngine,
        job: StreamJob,
        hubs: dict[str, str],
        site_shipping_factory,
        hub_shipping_factory,
        per_vm_records_per_s: float = 5000.0,
        hub_hold: float = 2.0,
    ) -> None:
        if job.ship_raw_records:
            raise ValueError("hierarchical aggregation requires partials")
        missing = [s.region for s in job.sites if s.region not in hubs]
        if missing:
            raise ValueError(f"sites without a hub assignment: {missing}")
        self.engine = engine
        self.job = job
        agg_vms = engine.deployment.vms(job.aggregation_region)
        if not agg_vms:
            raise ValueError(
                f"no VMs in aggregation region {job.aggregation_region}"
            )
        self.aggregator = GlobalAggregator(engine, job)
        self.hub_aggregators: dict[str, HubAggregator] = {}
        for hub_region in sorted(set(hubs.values())):
            hub_vms = engine.deployment.vms(hub_region)
            if not hub_vms:
                raise ValueError(f"no VMs in hub region {hub_region}")
            backend = hub_shipping_factory(engine, hub_vms, agg_vms[0])
            hub = HubAggregator(
                engine, job, hub_region, backend, hold=hub_hold
            )
            hub.on_delivered = self.aggregator.deliver
            self.hub_aggregators[hub_region] = hub
        self.sites: dict[str, SiteRuntime] = {}
        for spec in job.sites:
            hub = self.hub_aggregators[hubs[spec.region]]
            src_vms = engine.deployment.vms(spec.region)
            hub_vm = engine.deployment.vms(hub.hub_region)[0]
            backend = site_shipping_factory(engine, src_vms, hub_vm)
            self.sites[spec.region] = SiteRuntime(
                engine,
                job,
                spec,
                backend,
                hub.deliver,
                per_vm_records_per_s=per_vm_records_per_s,
                flow=job.flow,
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        for site in self.sites.values():
            site.start()

    def stop(self) -> None:
        for site in self.sites.values():
            site.stop()
        for hub in self.hub_aggregators.values():
            hub.stop()

    def run_for(self, duration: float) -> None:
        self.start()
        self.engine.run_until(self.engine.sim.now + duration)
        self.stop()
        self.engine.run_until(
            self.engine.sim.now + self.job.finalize_grace + 30.0
        )

    # ------------------------------------------------------------------
    @property
    def results(self):
        return self.aggregator.results

    def latency_stats(self) -> LatencyStats:
        return self.aggregator.latency_stats()

    def backbone_bytes(self) -> float:
        """Bytes the hubs shipped onward (the transcontinental volume)."""
        return sum(h.shipping.bytes_shipped for h in self.hub_aggregators.values())

    def edge_bytes(self) -> float:
        """Bytes the sites shipped to their hubs."""
        return sum(s.shipping.bytes_shipped for s in self.sites.values())

    def records_ingested(self) -> int:
        return sum(s.records_ingested for s in self.sites.values())
