"""The per-partial global merge, kept as the test oracle.

Until closed windows travelled as columns, ``GlobalAggregator`` merged a
batch one ``Record(PartialAggregate)`` at a time: every (window, key)
slot was a ``(Window, key)`` dict key with a ``_PendingWindowKey`` of its
own (state, count, a set of sites, a dict of lineage legs), and finalize
emitted one slot at a time. This module keeps that logic — the partial
path of the aggregator's deliver, merge, finalize, checkpoint and
restore — sharing no merge code with ``src/`` (the ``_fluid_oracle.py``
pattern). ``tests/test_streaming_merge_columns.py`` drives it and the
columnar aggregator with the same deliveries and requires equal results,
lineage and checkpoint bytes. :class:`ReferenceRuntime` keeps the list-based
result bookkeeping the runtime had before results became one table.
"""

from __future__ import annotations

import numpy as np

from repro.obs.lineage import SiteLeg, WindowLineage
from repro.streaming.operators import PartialBlock
from repro.streaming.runtime import CHECKPOINT_VERSION, LatencyStats, WindowResult
from repro.streaming.windows import Window


class _PendingWindowKey:
    __slots__ = ("state", "count", "sites", "emit_scheduled", "due", "legs")

    def __init__(self) -> None:
        self.state = None
        self.count = 0
        self.sites: set[str] = set()
        self.emit_scheduled = False
        self.due = 0.0
        self.legs: dict[str, SiteLeg] = {}


class ReferenceAggregator:
    """The partial path of the per-partial ``GlobalAggregator``."""

    def __init__(self, engine, job) -> None:
        self.engine = engine
        self.job = job
        self.results: list[WindowResult] = []
        self.uncommitted: list[WindowResult] = []
        self.exactly_once = True
        self.crashed = False
        self.late_partials = 0
        self.late_partial_records = 0
        self.duplicates_dropped = 0
        self._pending: dict[tuple[Window, str], _PendingWindowKey] = {}
        self._emitted: set[tuple[Window, str]] = set()
        self._seen_batches: set[tuple[str, int]] = set()
        self._emitted_log: list[tuple[Window, str]] = []
        self._seen_log: list[tuple[str, int]] = []

    def deliver(self, batch) -> None:
        now = self.engine.sim.now
        if batch.origin:
            key = (batch.origin, batch.seq)
            if key in self._seen_batches:
                self.duplicates_dropped += 1
                return
            self._seen_batches.add(key)
            self._seen_log.append(key)
        records = batch.records
        if isinstance(records, PartialBlock):
            records = records.to_records()
        armed = self._merge_partials(batch, records, now)
        if armed:
            self.engine.sim.schedule(
                self.job.finalize_grace, self._finalize, armed
            )

    def _merge_partials(self, batch, records, now):
        site = batch.origin or "?"
        trace = batch.trace
        merge = self.job.aggregate.merge
        due = now + self.job.finalize_grace
        armed = []
        for record in records:
            pa = record.value
            slot = (pa.window, pa.key)
            if slot in self._emitted:
                self.late_partials += 1
                self.late_partial_records += pa.count
                continue
            pending = self._pending.get(slot)
            if pending is None:
                pending = self._pending[slot] = _PendingWindowKey()
            if pending.state is None:
                pending.state = pa.state
            else:
                pending.state = merge(pending.state, pa.state)
            pending.count += pa.count
            pending.sites.add(site)
            leg = pending.legs.get(site)
            if leg is None:
                leg = pending.legs[site] = SiteLeg(site=site)
            leg.absorb(trace, pa.count, record.size_bytes, now)
            if not pending.emit_scheduled:
                pending.emit_scheduled = True
                pending.due = due
                armed.append(slot)
        return armed

    def _finalize(self, slots) -> None:
        if self.crashed:
            return
        now = self.engine.sim.now
        for slot in slots:
            pending = self._pending.pop(slot, None)
            if pending is None or pending.state is None:
                continue
            window, key = slot
            self._finalize_now(
                window, key, pending.state, pending.count,
                len(pending.sites), now, pending.legs,
            )

    def _finalize_now(self, window, key, state, count, sites, now, legs):
        slot = (window, key)
        if slot not in self._emitted:
            self._emitted.add(slot)
            self._emitted_log.append(slot)
        lineage = WindowLineage(
            window_start=window.start,
            window_end=window.end,
            key=key,
            emitted_at=now,
            legs=tuple(legs[site] for site in sorted(legs)) if legs else (),
        )
        self.uncommitted.append(
            WindowResult(
                window=window,
                key=key,
                value=self.job.aggregate.result(state),
                record_count=count,
                sites=sites,
                emitted_at=now,
                lineage=lineage,
            )
        )

    def checkpoint(self, since=None) -> dict:
        self.results.extend(self.uncommitted)
        self.uncommitted.clear()
        if since is None:
            since = {"emitted": 0, "seen": 0}
            emitted = sorted([w.start, w.end, k] for (w, k) in self._emitted)
            seen = sorted([o, s] for (o, s) in self._seen_batches)
        else:
            emitted = [
                [w.start, w.end, k]
                for (w, k) in self._emitted_log[since["emitted"]:]
            ]
            seen = [[o, s] for (o, s) in self._seen_log[since["seen"]:]]
        return {
            "version": CHECKPOINT_VERSION,
            "since": since,
            "emitted": emitted,
            "seen": seen,
            "pending": [
                [w.start, w.end, key, p.state, p.count,
                 sorted(p.sites), p.due,
                 [p.legs[s].to_dict() for s in sorted(p.legs)]]
                for (w, key), p in sorted(
                    self._pending.items(),
                    key=lambda kv: (kv[0][0], kv[0][1]),
                )
            ],
        }

    def restore(self, payload: dict) -> None:
        now = self.engine.sim.now
        self._emitted_log = [
            (Window(s, e), k) for s, e, k in payload["emitted"]
        ]
        self._emitted = set(self._emitted_log)
        self._seen_log = [(o, q) for o, q in payload["seen"]]
        self._seen_batches = set(self._seen_log)
        counters = payload["counters"]
        self.late_partials = counters["late_partials"]
        self.late_partial_records = counters["late_partial_records"]
        self.duplicates_dropped = counters["duplicates_dropped"]
        self._pending = {}
        for start, end, key, state, count, sites, due, legs in payload["pending"]:
            pending = _PendingWindowKey()
            pending.state = state
            pending.count = count
            pending.sites = set(sites)
            pending.emit_scheduled = True
            pending.due = due
            pending.legs = {
                leg["site"]: SiteLeg.from_dict(leg) for leg in legs
            }
            slot = (Window(start, end), key)
            self._pending[slot] = pending
            self.engine.sim.schedule(
                max(0.0, due - now), self._finalize, [slot]
            )


class ReferenceRuntime:
    """``GeoStreamRuntime``'s result bookkeeping when results were lists.

    Results committed by a crashed aggregator moved to
    ``_delivered_results``; the live aggregator held its committed
    ``results`` and its ``uncommitted`` ones, and every reader walked
    ``_delivered_results + results + uncommitted`` one object at a time.
    ``tests/test_streaming_result_table.py`` holds the runtime's table
    views and column readers to these values.
    """

    def __init__(self, engine, job) -> None:
        self.engine = engine
        self.job = job
        self.aggregator = ReferenceAggregator(engine, job)
        self.up = True
        self._delivered_results: list[WindowResult] = []

    def deliver(self, batch) -> None:
        if self.up:
            self.aggregator.deliver(batch)

    def checkpoint(self) -> None:
        if self.up:
            self.aggregator.checkpoint()

    def crash(self) -> None:
        if not self.up:
            return
        self.up = False
        old = self.aggregator
        old.crashed = True
        self._delivered_results.extend(old.results)
        old.results = []

    def restart(self, payload: dict | None) -> None:
        if self.up:
            return
        self.aggregator = ReferenceAggregator(self.engine, self.job)
        if payload is not None:
            self.aggregator.restore(payload)
        self.up = True

    @property
    def results(self) -> list[WindowResult]:
        return (
            self._delivered_results
            + self.aggregator.results
            + self.aggregator.uncommitted
        )

    def results_since(self, start: int, include_uncommitted: bool = False):
        d = self._delivered_results
        r = self.aggregator.results
        nd, nr = len(d), len(r)
        out: list[WindowResult] = []
        if start < nd:
            out.extend(d[start:] if start else d)
            start = nd
        if start < nd + nr:
            out.extend(r[start - nd:])
            start = nd + nr
        if include_uncommitted:
            u = self.aggregator.uncommitted
            if start < nd + nr + len(u):
                out.extend(u[start - nd - nr:])
        return out

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_latencies(
            np.array([r.latency for r in self.results])
        )

    def lineage_stats(self) -> dict:
        results = self.results
        with_lineage = [r for r in results if r.lineage is not None]
        return {
            "results": len(results),
            "with_lineage": len(with_lineage),
            "complete": sum(1 for r in with_lineage if r.lineage.complete),
        }

    def records_in_results(self) -> int:
        return sum(r.record_count for r in self.results)
