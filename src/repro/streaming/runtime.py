"""The geo-streaming runtime: sites, shipping, global aggregation.

Execution model per site, every tick (1 s of virtual time):

1. drain the ingest backlog through the site's operator chain, limited by
   the site's processing capacity (records/s × VMs) — overload therefore
   turns into queueing latency, exactly like a real stream processor;
2. advance the event-time watermark and close finished windows into
   partial-aggregate records;
3. offer partials to the site's batcher; cut batches travel to the
   aggregation site through the configured shipping backend.

The global aggregator merges partials per (window, key) and emits each
result ``finalize_grace`` seconds after the first partial for its window
arrived, recording end-to-end latency against the window's event-time
close. Late partials are merged if the result has not been emitted yet,
and counted otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.engine import SageEngine
from repro.flow.checkpoint import Checkpointer, CheckpointStore
from repro.flow.credits import CreditGate
from repro.flow.policy import FlowConfig, make_policy
from repro.obs.lineage import SiteLeg, WindowLineage
from repro.simulation.engine import PeriodicGroup
from repro.streaming.batching import Batcher
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch
from repro.streaming.hierarchy import HubAggregator
from repro.streaming.operators import PartialAggregate, WindowedAggregator
from repro.streaming.records import ChunkedBacklog, RecordBatch
from repro.streaming.windows import Window


@dataclass(frozen=True)
class WindowResult:
    """One emitted global aggregate."""

    window: Window
    key: str
    value: object
    record_count: int
    sites: int
    emitted_at: float
    #: Causal provenance (which sites/links/attempts produced this
    #: result, with per-hop timings); ``None`` only for results built
    #: before lineage existed or by hand in tests.
    lineage: WindowLineage | None = None
    #: Leader-lease epoch the emitting aggregator served under (0 when
    #: no control plane is armed). The split-brain/exactly-once audit
    #: uses it to attribute every window to one leadership term.
    epoch: int = 0
    #: Control-plane config version active at emission (0 = the boot
    #: config). Lets the auditor attribute each window to the exact
    #: configuration it ran under across live reconfigurations.
    config_version: int = 0

    @property
    def latency(self) -> float:
        """End-to-end: window close (event time) → global emission."""
        return self.emitted_at - self.window.end


@dataclass
class LatencyStats:
    """Summary of result latencies.

    An empty summary (no results emitted) is falsy and carries NaN
    percentiles; test with ``if stats:`` or format with :meth:`describe`
    instead of printing raw fields, so ``nan`` never leaks into reports.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The no-results sentinel (falsy; all percentiles NaN)."""
        return cls(0, *[float("nan")] * 5)

    @classmethod
    def from_results(cls, results: list[WindowResult]) -> "LatencyStats":
        if not results:
            return cls.empty()
        lat = np.array([r.latency for r in results])
        if lat.size == 1:
            # Degenerate distribution: every quantile is the one sample.
            value = float(lat[0])
            return cls(1, value, value, value, value, value)
        return cls(
            count=len(lat),
            mean=float(lat.mean()),
            p50=float(np.percentile(lat, 50)),
            p95=float(np.percentile(lat, 95)),
            p99=float(np.percentile(lat, 99)),
            max=float(lat.max()),
        )

    def __bool__(self) -> bool:
        return self.count > 0

    def describe(self) -> str:
        """One-line human summary; safe on the empty sentinel."""
        if not self:
            return "latency: no results emitted"
        return (
            f"latency p50 {self.p50:.1f}s p95 {self.p95:.1f}s "
            f"p99 {self.p99:.1f}s max {self.max:.1f}s"
        )


class SiteRuntime:
    """One producing site: ingest → operators → windows → batcher → ship."""

    def __init__(
        self,
        engine: SageEngine,
        job: StreamJob,
        spec: SiteSpec,
        shipping,
        deliver: Callable[[Batch], None],
        per_vm_records_per_s: float = 5000.0,
        tick: float = 1.0,
        flow: FlowConfig | None = None,
    ) -> None:
        for op in spec.operators:
            if not hasattr(op, "process_batch"):
                raise TypeError(
                    f"{type(op).__name__} needs process_batch (see PerRecordAdapter)"
                )
        self.engine = engine
        self.job = job
        self.spec = spec
        self.shipping = shipping
        self.deliver = deliver
        self.tick = tick
        self.flow = flow
        self.policy = make_policy(flow) if flow is not None else None
        vms = engine.deployment.vms(spec.region)
        if not vms:
            raise ValueError(f"no VMs deployed in site region {spec.region}")
        self.vms = vms
        self.capacity_per_tick = per_vm_records_per_s * len(self.vms) * tick
        self.aggregator = WindowedAggregator(job.windows, job.aggregate)
        self.batcher = Batcher(job.batch_policy_factory(), origin=spec.region)
        self._backlog = ChunkedBacklog()
        self._watermark = -float("inf")
        self.records_ingested = 0
        self.records_processed = 0
        self.max_backlog = 0
        #: Overload accounting (all policies; zero when flow is off).
        self.records_shed = 0
        self.blocked_ticks = 0
        self.degraded_ticks = 0
        self.degrade_transitions = 0
        #: Batches kept for replay after an aggregator crash — enabled
        #: by the runtime when checkpointing is on, pruned per checkpoint.
        self.retain_batches = False
        self._retained: dict[int, Batch] = {}
        #: Optional ingress admission gate (token bucket) installed by
        #: the control plane; rejects records at the door *before* the
        #: overload policy spends pipeline resources on them.
        self.admission = None
        self.records_admission_rejected = 0
        #: ONE periodic queue event per tick for the site's sources and its
        #: drain, fired in registration order — the stable same-timestamp
        #: order separate events would have, at one dispatch per tick.
        self._group = PeriodicGroup(engine.sim, tick)
        self._task = None
        obs = engine.observer
        self._obs_on = obs.enabled
        site = spec.region
        #: Ingest-buffer credits: the ``block`` policy grants sources
        #: exactly the free slots; other policies leave the gate idle.
        self.credits = CreditGate(
            flow.max_backlog if flow is not None else None,
            gauge=(
                obs.gauge("flow_ingest_credits", site=site)
                if self._obs_on
                else None
            ),
        )
        self._m_ingested = obs.counter(
            "stream_records_ingested_total", site=site
        )
        self._m_processed = obs.counter(
            "stream_records_processed_total", site=site
        )
        self._m_backlog = obs.gauge("stream_backlog_depth", site=site)
        self._m_wm_lag = obs.gauge(
            "stream_watermark_lag_seconds", site=site
        )
        #: Estimated time for the current backlog to drain at capacity —
        #: the site's queueing latency contribution this tick.
        self._m_queue = obs.histogram(
            "stream_queue_latency_seconds", site=site
        )
        self._m_backlog_peak = obs.gauge("stream_backlog_peak", site=site)
        self._m_shed = obs.counter("flow_records_shed_total", site=site)
        self._m_admission = obs.counter("admission_rejected_total", site=site)
        self._m_blocked = obs.counter("flow_blocked_ticks_total", site=site)
        self._m_degraded = obs.counter("flow_degraded_ticks_total", site=site)
        self._m_degrade_active = obs.gauge("flow_degrade_active", site=site)
        #: The tick itself runs in ``streaming.runtime`` (the kernel names
        #: a callback's stage after its module); these mark where it
        #: crosses into another layer. They fire per tick or per backlog
        #: chunk — cheap even as the no-ops they are with observability off.
        self._st_window = obs.stage("streaming.windows")
        self._st_batch = obs.stage("streaming.batching")
        self._st_ship = obs.stage("streaming.shipping")
        self._op_stages = [
            # An adapter is labelled by the operator it wraps.
            (
                op,
                obs.stage(
                    "streaming.operators."
                    + type(getattr(op, "inner", op)).__name__
                ),
            )
            for op in spec.operators
        ]

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Attach and schedule every stopped source, then the drain (also
        :meth:`restart`'s path). Sources ticking with the site join its group;
        the drain registers behind them: within a tick they fire before it."""
        join = self._group.add
        joined = False
        for source in self.spec.sources:
            if not source.running:
                source.attach(self.engine.sim, self.spec.region, self.ingest)
                shares_tick = source.tick == self.tick
                source.start(schedule=join if shares_tick else None)
                joined = joined or shares_tick
        if joined and self._task is not None:
            self._task.stop()
            self._task = None
        if self._task is None:
            self._task = join(self._on_tick)

    def stop_sources(self, drain: bool = False) -> None:
        """Stop ingestion but keep the tick loop running.

        Used for clean drains: with sources quiet but ticks alive, the
        watermark keeps advancing, every open window closes, and the
        batcher flushes — so "all ingested records counted" can be
        asserted exactly (the fault-recovery experiments rely on it).
        With ``drain``, sources with deferred records (``block``) keep
        offering them until admitted instead of freezing the pending
        buffer — and with it the site watermark — in place.
        """
        for source in self.spec.sources:
            source.stop(drain=drain)

    def stop(self) -> None:
        self.stop_sources()
        if self._task is not None:
            self._task.stop()
            self._task = None

    def ingest(self, records: RecordBatch) -> int:
        """Offer records to the site; returns how many were consumed.

        Under the ``block`` policy fewer than offered may be consumed —
        sources defer the rejected tail. Without a flow config (legacy)
        or under ``shed``/``degrade`` everything is consumed (the latter
        two bound the buffer internally, counting what they drop).

        With an admission gate armed, records the token bucket rejects
        are *terminally dropped at the door* (cheap, before any pipeline
        work) and still count as consumed: ``records_ingested`` includes
        them, and ``records_admission_rejected`` explains them on the
        loss-identity side. The gate rejects the *front* of the chunk so
        whatever the overload policy then defers remains a contiguous
        tail — sources treat the return value as a consumed prefix.
        """
        rejected = 0
        if self.admission is not None and records:
            saturated = (
                self.flow is not None
                and len(self._backlog) >= self.flow.max_backlog
            )
            rejected = self.admission.admit(
                len(records), self.engine.sim.now, saturated=saturated
            )
            if rejected:
                self.records_admission_rejected += rejected
                if self._obs_on:
                    self._m_admission.inc(rejected)
                records = records[rejected:]
        if self.policy is None:
            self._backlog.extend(records)
            accepted = len(records)
        else:
            accepted = self.policy.admit(self, records)
        self.records_ingested += accepted + rejected
        if len(self._backlog) > self.max_backlog:
            self.max_backlog = len(self._backlog)
            if self._obs_on:
                self._m_backlog_peak.set(self.max_backlog)
        if self._obs_on and (accepted or rejected):
            self._m_ingested.inc(accepted + rejected)
        return accepted + rejected

    # -- overload-policy hooks (called by repro.flow.policy) -----------
    def count_shed(self, n: int) -> None:
        self.records_shed += n
        if self._obs_on:
            self._m_shed.inc(n)

    def count_blocked_tick(self) -> None:
        self.blocked_ticks += 1
        if self._obs_on:
            self._m_blocked.inc()

    def count_degraded_tick(self) -> None:
        self.degraded_ticks += 1
        if self._obs_on:
            self._m_degraded.inc()

    def count_degrade(self, active: bool) -> None:
        self.degrade_transitions += 1
        if self._obs_on:
            self._m_degrade_active.set(1 if active else 0)

    # ------------------------------------------------------------------
    def _on_tick(self) -> None:
        now = self.engine.sim.now
        budget = int(self.capacity_per_tick)
        if self.policy is not None:
            budget = self.policy.drain_budget(self, budget)
        processed = 0
        for chunk in self._backlog.pop_upto(budget):
            processed += len(chunk)
            self._process_batch(chunk, now)
        self.records_processed += processed
        if processed:
            # Freed ingest slots return to the credit pool (no-op for
            # policies that never acquire).
            self.credits.release(processed)
        # The watermark follows the *processed* stream: under overload it
        # is held back by the oldest unprocessed record, so backlog delay
        # shows up as extra window latency (windows close later).
        watermark = now - self.job.watermark_lag
        if self._backlog:
            watermark = min(watermark, self._backlog.first_event_time)
        for source in self.spec.sources:
            oldest = source.oldest_pending_time
            if oldest is not None:
                # Records deferred by admission control hold the
                # watermark exactly like backlogged ones: deferral must
                # surface as latency, never as late-drops.
                watermark = min(watermark, oldest)
        watermark = max(watermark, self._watermark)
        self._watermark = watermark
        with self._st_window:
            partials = self.aggregator.advance_watermark(watermark)
        if self._obs_on:
            self._m_processed.inc(processed)
            self._m_backlog.set(len(self._backlog))
            self._m_wm_lag.set(now - watermark)
            self._m_queue.observe(
                len(self._backlog) / self.capacity_per_tick * self.tick
            )
            engine_obs = self.engine.observer
            for partial in partials:
                pa = partial.value
                engine_obs.record_span(
                    "window.site_close",
                    pa.window.start,
                    now,
                    site=self.spec.region,
                    key=pa.key,
                    window_end=pa.window.end,
                    records=pa.count,
                )
        with self._st_batch:
            for cut in self.batcher.offer_many(partials, now):
                self._ship(cut)
            if self.policy is None or self.policy.flush_allowed(self):
                out = self.batcher.maybe_flush(now)
                if out is not None:
                    self._ship(out)

    def _process_batch(self, batch: RecordBatch, now: float) -> None:
        """One backlog chunk through the operator chain and into the
        windowed aggregator (or the batcher, for raw-record shipping
        jobs)."""
        for op, stage in self._op_stages:
            with stage:
                batch = op.process_batch(batch)
            if not len(batch):
                return
        if self.job.ship_raw_records:
            with self._st_batch:
                for cut in self.batcher.offer_many(batch, now):
                    self._ship(cut)
        else:
            with self._st_window:
                self.aggregator.process_batch(batch)

    def _ship(self, batch: Batch) -> None:
        if self.retain_batches:
            self._retained[batch.seq] = batch
        with self._st_ship:
            self.shipping.ship(batch, self.deliver)

    @property
    def backlog(self) -> int:
        return len(self._backlog)

    @property
    def retained_batches(self) -> int:
        return len(self._retained)

    # -- crash-recovery support ----------------------------------------
    def prune_retained(self, covered_seqs) -> int:
        """Forget retained batches a checkpoint just recorded as seen.

        Once the aggregator has durably recorded ``(origin, seq)`` as
        merged, this site will never be asked to replay that batch.
        """
        pop = self._retained.pop
        return sum(pop(seq, None) is not None for seq in covered_seqs)

    def replay_retained(self) -> int:
        """Re-ship every retained batch (after an aggregator restart).

        Replays overlap whatever the at-least-once layer still has in
        flight; the aggregator's ``(origin, seq)`` dedup absorbs the
        duplicates, so replaying everything unpruned is always safe.
        """
        for seq in sorted(self._retained):
            self.shipping.ship(self._retained[seq], self.deliver)
        return len(self._retained)

    @property
    def watermark(self) -> float:
        """Current event-time watermark (``-inf`` before the first tick).

        Monotonically non-decreasing by contract — the SLO auditor polls
        this to catch any regression.
        """
        return self._watermark

    # -- checkpoint/restore --------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable window state (backlog stays at the source
        of truth: retained batches + at-least-once shipping)."""
        return {
            "watermark": (
                None
                if self._watermark == -float("inf")
                else self._watermark
            ),
            "aggregator": self.aggregator.snapshot(),
        }

    def restore(self, payload: dict) -> None:
        wm = payload["watermark"]
        self._watermark = -float("inf") if wm is None else wm
        self.aggregator.restore(payload["aggregator"])

    def restart(self) -> None:
        """Resume a stopped site; peak-backlog stats start afresh."""
        self.max_backlog = len(self._backlog)
        if self._obs_on:
            self._m_backlog_peak.set(self.max_backlog)
        self.start()


#: Format version of :meth:`GlobalAggregator.checkpoint` payloads.
CHECKPOINT_VERSION = 2


class _PendingWindowKey:
    __slots__ = ("state", "count", "sites", "emit_scheduled", "due", "legs")

    def __init__(self) -> None:
        self.state = None
        self.count = 0
        self.sites: set[str] = set()
        self.emit_scheduled = False
        #: Virtual time the finalize timer fires — checkpointed so a
        #: restored aggregator re-arms the timer with the remaining wait.
        self.due = 0.0
        #: Per-origin lineage legs, folded from the traces of every
        #: batch that delivered a partial for this (window, key).
        self.legs: dict[str, SiteLeg] = {}


class GlobalAggregator:
    """Merges per-site partials into global window results."""

    def __init__(self, engine: SageEngine, job: StreamJob) -> None:
        self.engine = engine
        self.job = job
        self.results: list[WindowResult] = []
        #: Exactly-once mode: results finalized since the last checkpoint.
        #: They move to ``results`` when :meth:`checkpoint` commits them
        #: (the transactional-sink half of exactly-once); a crash in
        #: between loses them, and replay re-derives them.
        self.uncommitted: list[WindowResult] = []
        self.exactly_once = False
        #: Set by the runtime when this instance is killed, so its
        #: still-scheduled finalize timers become no-ops.
        self.crashed = False
        #: Leadership term and config version stamped onto every emitted
        #: result. Both stay 0 unless a control plane assigns them.
        self.epoch = 0
        self.config_version = 0
        self.late_partials = 0
        #: Raw records inside late partials — the exact record count the
        #: late path cost, so overload accounting can balance to zero.
        self.late_partial_records = 0
        self.raw_records = 0
        #: Batches discarded as duplicates of an already-merged delivery.
        self.duplicates_dropped = 0
        self._pending: dict[tuple[Window, str], _PendingWindowKey] = {}
        self._emitted: set[tuple[Window, str]] = set()
        #: ``(origin, seq)`` of every batch already merged — the receiver
        #: half of at-least-once delivery: a re-sent or duplicated batch
        #: must not double-count any window.
        self._seen_batches: set[tuple[str, int]] = set()
        #: The two grow-only sets again, in insertion order (the same
        #: tuple objects): a periodic checkpoint serializes only the
        #: tail the durable store does not hold yet.
        self._emitted_log: list[tuple[Window, str]] = []
        self._seen_log: list[tuple[str, int]] = []
        #: Aggregator-side windowing for jobs that ship raw records.
        self._raw_aggregator = WindowedAggregator(job.windows, job.aggregate)
        obs = engine.observer
        self._obs_on = obs.enabled
        self._m_results = obs.counter("stream_results_total")
        self._m_late = obs.counter("stream_late_partials_total")
        self._m_latency = obs.histogram("stream_window_latency_seconds")
        self._m_dups = obs.counter("agg_duplicates_dropped_total")
        self._st_merge = obs.stage("streaming.runtime.merge")
        #: Lazily created per-site / per-hop latency histograms.
        self._lat_by_site: dict[str, object] = {}
        self._hop_hists: dict[tuple[str, str], object] = {}

    def deliver(self, batch: Batch) -> None:
        with self._st_merge:
            self._deliver(batch)

    def _deliver(self, batch: Batch) -> None:
        now = self.engine.sim.now
        if batch.origin:
            key = (batch.origin, batch.seq)
            if key in self._seen_batches:
                self.duplicates_dropped += 1
                self._m_dups.inc()
                return
            self._seen_batches.add(key)
            self._seen_log.append(key)
        payload = batch.records
        if isinstance(payload, list):
            if not payload:  # only a batch emptied after construction
                return
            # A list payload is one kind throughout: partial aggregates
            # from a site's window close, or the raw records of a
            # hand-built batch — columnarized here, once, so raw records
            # have a single fold path.
            if isinstance(payload[0].value, PartialAggregate):
                armed = self._merge_partials(batch, now)
                if armed:
                    # One timer for every slot this batch armed: per-slot
                    # timers would fire back to back at one (time,
                    # priority), and a finalize schedules nothing, so
                    # nothing could run between them.
                    self.engine.sim.schedule(
                        self.job.finalize_grace, self._finalize, armed
                    )
                return
            payload = RecordBatch.from_records(payload)
        self.raw_records += len(payload)
        self._raw_aggregator.process_batch(payload)
        watermark = now - self.job.watermark_lag - self.job.finalize_grace
        for partial in self._raw_aggregator.advance_watermark(watermark):
            pa = partial.value
            self._finalize_now(pa.window, pa.key, pa.state, pa.count, 1, now)

    def _merge_partials(
        self, batch: Batch, now: float
    ) -> list[tuple[Window, str]]:
        """Merge a batch of partials; return the slots it armed, in order."""
        site = batch.origin or "?"
        trace = batch.trace
        emitted = self._emitted
        pending_slots = self._pending
        merge = self.job.aggregate.merge
        due = now + self.job.finalize_grace
        armed: list[tuple[Window, str]] = []
        for record in batch.records:
            pa = record.value
            slot = (pa.window, pa.key)
            if slot in emitted:
                self.late_partials += 1
                self.late_partial_records += pa.count
                self._m_late.inc()
                continue
            pending = pending_slots.get(slot)
            if pending is None:
                pending = pending_slots[slot] = _PendingWindowKey()
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

    def _finalize(self, slots: list[tuple[Window, str]]) -> None:
        """Emit each slot's result, in the order the slots were armed."""
        if self.crashed:
            return
        now = self.engine.sim.now
        for slot in slots:
            pending = self._pending.pop(slot, None)
            if pending is None or pending.state is None:  # pragma: no cover
                continue
            window, key = slot
            self._finalize_now(
                window,
                key,
                pending.state,
                pending.count,
                len(pending.sites),
                now,
                legs=pending.legs,
            )

    def _finalize_now(
        self, window, key, state, count, sites, now, legs=None
    ) -> None:
        slot = (window, key)
        if slot not in self._emitted:
            self._emitted.add(slot)
            self._emitted_log.append(slot)
        lineage = WindowLineage(
            window_start=window.start,
            window_end=window.end,
            key=key,
            emitted_at=now,
            legs=tuple(
                legs[site] for site in sorted(legs)
            ) if legs else (),
        )
        sink = self.uncommitted if self.exactly_once else self.results
        sink.append(
            WindowResult(
                window=window,
                key=key,
                value=self.job.aggregate.result(state),
                record_count=count,
                sites=sites,
                emitted_at=now,
                lineage=lineage,
                epoch=self.epoch,
                config_version=self.config_version,
            )
        )
        if self._obs_on:
            self._m_results.inc()
            self._m_latency.observe(now - window.end)
            breakdown = lineage.breakdown()
            for leg in lineage.legs:
                self._e2e_hist(leg.site).observe(now - window.end)
                for hop_name, seconds in breakdown[leg.site].items():
                    if seconds == seconds:  # skip NaN (incomplete legs)
                        self._hop_hist(hop_name, leg.site).observe(seconds)
            # The span runs from the window's event-time close to the
            # global emission: its duration IS the end-to-end latency.
            self.engine.observer.record_span(
                "window.global_emit",
                window.end,
                now,
                key=key,
                window_start=window.start,
                records=count,
                sites=sites,
                lineage_complete=lineage.complete,
            )

    def _e2e_hist(self, site: str):
        """Per-site end-to-end latency histogram, created lazily (sites
        are only known once their first window result lands)."""
        hist = self._lat_by_site.get(site)
        if hist is None:
            hist = self._lat_by_site[site] = self.engine.observer.histogram(
                "stream_e2e_latency_seconds", site=site
            )
        return hist

    def _hop_hist(self, hop: str, site: str):
        key = (hop, site)
        hist = self._hop_hists.get(key)
        if hist is None:
            hist = self._hop_hists[key] = self.engine.observer.histogram(
                "lineage_hop_seconds", hop=hop, site=site
            )
        return hist

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_results(self.results + self.uncommitted)

    # -- checkpoint/restore --------------------------------------------
    def checkpoint(self, since: dict[str, int] | None = None) -> dict:
        """Commit uncommitted results; return a restorable snapshot.

        The commit makes the snapshot and the externally visible results
        agree: a window result leaves the process at the checkpoint that
        records its (window, key) as emitted. A crash therefore can
        neither lose a result the outside world has seen nor re-emit one
        — replayed partials for committed windows hit ``_emitted`` and
        are counted late, not emitted twice.

        Without ``since`` the snapshot is complete and sorted. With the
        row counts a durable store already holds (``{"emitted": n,
        "seen": m}``), ``emitted`` and ``seen`` carry only the rows
        added after those, in insertion order — a checkpoint then costs
        what changed since the last one, not what ever happened. The
        payload names the cursor it was cut against under ``"since"``.
        """
        self.results.extend(self.uncommitted)
        self.uncommitted.clear()
        if since is None:
            since = {"emitted": 0, "seen": 0}
            emitted = sorted([w.start, w.end, k] for (w, k) in self._emitted)
            seen = sorted([o, s] for (o, s) in self._seen_batches)
        else:
            n_emitted, n_seen = since["emitted"], since["seen"]
            if n_emitted > len(self._emitted_log) or n_seen > len(self._seen_log):
                raise ValueError(
                    f"checkpoint cursor {since} is ahead of this aggregator "
                    f"({len(self._emitted_log)} emitted, "
                    f"{len(self._seen_log)} seen): not its chain"
                )
            emitted = [
                [w.start, w.end, k] for (w, k) in self._emitted_log[n_emitted:]
            ]
            seen = [[o, s] for (o, s) in self._seen_log[n_seen:]]
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
            "raw": self._raw_aggregator.snapshot(),
            "counters": {
                "late_partials": self.late_partials,
                "late_partial_records": self.late_partial_records,
                "raw_records": self.raw_records,
                "duplicates_dropped": self.duplicates_dropped,
            },
        }

    def restore(self, payload: dict) -> None:
        """Rebuild from a complete :meth:`checkpoint` payload after a restart.

        Finalize timers lost in the crash are re-armed with each pending
        window's remaining grace (zero if its due time already passed).
        A payload of another format version, or a delta that is not the
        whole history, is refused before any state is touched.
        """
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"aggregator checkpoint has format version {version!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if any(payload["since"].values()):
            raise ValueError(
                f"cannot restore from a delta cut at {payload['since']}: "
                "load the joined chain from the store"
            )
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
        self.raw_records = counters["raw_records"]
        self.duplicates_dropped = counters["duplicates_dropped"]
        self._raw_aggregator.restore(payload["raw"])
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


class GeoStreamRuntime:
    """Run a :class:`StreamJob` over a SageEngine deployment.

    Flat by default: every site ships to the aggregator. With ``hubs``
    (site region → hub region; every site needs one, every hub region at
    least one VM) sites ship to a :class:`HubAggregator` in their hub
    region instead, which merges partials per (window, key) for
    ``hub_hold`` seconds and forwards them over a backend built by
    ``hub_shipping_factory`` (default: ``shipping_factory``). A site
    whose region *is* a hub still routes through the hub object (a
    same-region ship is an intra-DC hop). Hubs merge partials, so a hub
    topology refuses ``ship_raw_records`` jobs.
    """

    def __init__(
        self,
        engine: SageEngine,
        job: StreamJob,
        shipping_factory,
        per_vm_records_per_s: float = 5000.0,
        *,
        hubs: dict[str, str] | None = None,
        hub_shipping_factory=None,
        hub_hold: float = 2.0,
    ) -> None:
        hubs = hubs or {}
        if hubs:
            if job.ship_raw_records:
                raise ValueError("hierarchical aggregation requires partials")
            missing = [s.region for s in job.sites if s.region not in hubs]
            if missing:
                raise ValueError(f"sites without a hub assignment: {missing}")
            for hub_region in sorted(set(hubs.values())):
                if not engine.deployment.vms(hub_region):
                    raise ValueError(f"no VMs in hub region {hub_region}")
        self.engine = engine
        self.job = job
        #: Live flow config: the job's, until :meth:`ControlPlane.apply`
        #: changes a knob.
        self.flow = job.flow
        agg_vms = engine.deployment.vms(job.aggregation_region)
        if not agg_vms:
            raise ValueError(
                f"no VMs in aggregation region {job.aggregation_region}"
            )
        self.agg_vm = agg_vms[0]
        #: Live aggregation region — starts at the job's, moves on
        #: failover via :meth:`retarget_aggregation`.
        self.aggregation_region = job.aggregation_region
        self.aggregator = GlobalAggregator(engine, job)
        #: Aggregator process liveness: while False, transport-level
        #: deliveries are dropped at the door (and recovered by replay).
        self._agg_up = True
        #: Results committed by aggregator instances that later crashed
        #: — they survive because commit handed them to the outside.
        self._delivered_results: list[WindowResult] = []
        self.batches_dropped_while_down = 0
        self.aggregator_crashes = 0
        self.checkpoint_store: CheckpointStore | None = None
        self._checkpointer: Checkpointer | None = None
        #: The aggregator instance whose logs the store's ``aggregator``
        #: chain describes row for row (``None`` until one is saved).
        self._chained: GlobalAggregator | None = None
        #: Hub region → its aggregator; empty in a flat topology.
        self.hub_aggregators: dict[str, HubAggregator] = {}
        hub_factory = hub_shipping_factory or shipping_factory
        for hub_region in sorted(set(hubs.values())):
            hub_vms = engine.deployment.vms(hub_region)
            backend = hub_factory(engine, hub_vms, self.agg_vm)
            hub = HubAggregator(engine, job, hub_region, backend, hold=hub_hold)
            hub.on_delivered = self._deliver
            self.hub_aggregators[hub_region] = hub
        self.sites: dict[str, SiteRuntime] = {}
        for spec in job.sites:
            src_vms = engine.deployment.vms(spec.region)
            hub = self.hub_aggregators.get(hubs.get(spec.region))
            if hub is None:
                dst_vm, deliver = self.agg_vm, self._deliver
            else:
                dst_vm = engine.deployment.vms(hub.hub_region)[0]
                deliver = hub.deliver
            backend = shipping_factory(engine, src_vms, dst_vm)
            self.sites[spec.region] = SiteRuntime(
                engine,
                job,
                spec,
                backend,
                deliver,
                per_vm_records_per_s=per_vm_records_per_s,
                flow=self.flow,
            )

    def _deliver(self, batch: Batch) -> None:
        if not self._agg_up:
            # The transport delivered and the ack stands (at-least-once
            # is the link's contract, not the process's); the batch is
            # recovered from its origin site's retention replay.
            self.batches_dropped_while_down += 1
            return
        self.aggregator.deliver(batch)

    # ------------------------------------------------------------------
    def start(self) -> None:
        for site in self.sites.values():
            site.start()

    def stop(self) -> None:
        for site in self.sites.values():
            site.stop()
        for hub in self.hub_aggregators.values():
            hub.stop()
        if self._checkpointer is not None:
            self._checkpointer.stop()

    # -- checkpointing and crash recovery ------------------------------
    def enable_checkpointing(
        self,
        store: CheckpointStore | None = None,
        interval: float = 15.0,
    ) -> Checkpointer:
        """Turn on periodic snapshots and exactly-once emission.

        Every ``interval`` seconds of virtual time the aggregator
        commits its uncommitted results and snapshots; each site
        snapshots its window state. Sites start retaining shipped
        batches, pruned down to those the latest checkpoint does not
        cover — the replay set an aggregator restart needs.

        Refused with hubs: a site's replay would go to its hub, whose
        ``(origin, seq)`` dedup drops it, so a restored aggregator would
        silently miss windows.
        """
        if self.hub_aggregators:
            raise ValueError("checkpointing is not supported with hubs")
        if self._checkpointer is not None:
            return self._checkpointer
        self.checkpoint_store = store if store is not None else CheckpointStore()
        self.aggregator.exactly_once = True
        for site in self.sites.values():
            site.retain_batches = True
        checkpointer = Checkpointer(
            self.engine, self.checkpoint_store, interval
        )
        checkpointer.register("aggregator", self._checkpoint_aggregator)
        for region, site in self.sites.items():
            checkpointer.register(f"site/{region}", site.snapshot)
        self._checkpointer = checkpointer
        checkpointer.start()
        return checkpointer

    def _checkpoint_aggregator(self) -> dict | None:
        if not self._agg_up:
            # Skip the round; retention keeps growing until restart.
            return None
        # The cursor lives in the store, not in the aggregator, so no
        # inspection call can advance it. A store this aggregator was
        # neither restored from nor has fully saved to says nothing
        # about its logs: the first save is complete and starts a chain.
        since = (
            self.checkpoint_store.cursor("aggregator")
            if self._chained is self.aggregator
            else None
        )
        payload = self.aggregator.checkpoint(since)
        self._chained = self.aggregator
        # Only the batches this checkpoint is the first to record can
        # still be retained: every earlier one was pruned by the round
        # that recorded it, so walking the new rows is enough.
        covered: dict[str, list[int]] = {}
        for origin, seq in payload["seen"]:
            covered.setdefault(origin, []).append(seq)
        for region, seqs in covered.items():
            site = self.sites.get(region)
            if site is not None:
                site.prune_retained(seqs)
        return payload

    def crash_aggregator(self) -> None:
        """Kill the aggregator process: volatile state and timers die.

        Results committed at earlier checkpoints already left through
        the transactional sink and survive; uncommitted ones are lost
        here and re-derived after restart from checkpoint + replay.
        """
        if not self._agg_up:
            return
        self._agg_up = False
        self.aggregator_crashes += 1
        old = self.aggregator
        old.crashed = True  # disarm its outstanding finalize timers
        self._delivered_results.extend(old.results)
        old.results = []

    def restart_aggregator(self) -> None:
        """Boot a fresh aggregator from the last checkpoint, then replay."""
        if self._agg_up:
            return
        old = self.aggregator
        self.aggregator = GlobalAggregator(self.engine, self.job)
        # Epoch/config stamps carry across a plain same-leader restart;
        # a control-plane promotion overwrites them right after this.
        self.aggregator.epoch = old.epoch
        self.aggregator.config_version = old.config_version
        if self.checkpoint_store is not None:
            self.aggregator.exactly_once = True
            payload = self.checkpoint_store.load("aggregator")
            if payload is not None:
                self.aggregator.restore(payload)
                self._chained = self.aggregator
        self._agg_up = True
        for site in self.sites.values():
            site.replay_retained()

    def retarget_aggregation(self, region: str) -> None:
        """Re-point the shipping that feeds the aggregator at a new region.

        Used by the control plane when a standby in ``region`` takes
        over the leader lease: the destination VM becomes the first live
        VM there and each backend's ``retarget`` (the hubs' in a hub
        topology, else the sites') rebuilds plans and instruments for the
        new destination. In-flight deliveries to the dead leader finish
        or time out under the old coordinates; their retries (and the
        retention replay) go to the new one.
        """
        vms = self.engine.deployment.vms(region)
        if not vms:
            raise ValueError(f"no VMs in new aggregation region {region}")
        live = [vm for vm in vms if vm.alive]
        self.agg_vm = (live or vms)[0]
        self.aggregation_region = region
        for backend in self._root_backends():
            backend.retarget(self.agg_vm)

    @property
    def aggregator_up(self) -> bool:
        return self._agg_up

    def run_for(self, duration: float) -> None:
        """Convenience: start, run, stop, and let in-flight work land."""
        self.start()
        self.engine.run_until(self.engine.sim.now + duration)
        self.stop()
        # Allow shipped batches and grace timers to complete.
        self.engine.run_until(
            self.engine.sim.now + self.job.finalize_grace + 30.0
        )

    # ------------------------------------------------------------------
    @property
    def results(self) -> list[WindowResult]:
        """Every result delivered to the outside world, crashes included."""
        return (
            self._delivered_results
            + self.aggregator.results
            + self.aggregator.uncommitted
        )

    def results_since(
        self, start: int, include_uncommitted: bool = False
    ) -> list[WindowResult]:
        """Results appended at or after flat index ``start`` — O(new).

        The durable sequence ``_delivered_results + aggregator.results``
        is append-stable: a checkpoint commit *appends* uncommitted
        results to ``aggregator.results`` and a crash *moves* them to
        ``_delivered_results`` preserving order, so a flat cursor into
        it never re-reads an already-seen result. ``uncommitted``
        results are excluded by default because a crash discards them
        (they are re-derived after replay — an incremental scanner that
        had counted the discarded copies would then report phantom
        duplicates); pass ``include_uncommitted`` only for a final scan
        at quiescence. Continuous auditing over multi-day soaks relies
        on this instead of rebuilding :attr:`results` every tick.
        """
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

    def in_pipe(self) -> int:
        """Records still somewhere in the pipeline (0 == quiescent).

        Counts every stage that can hold data: site ingest backlogs,
        batcher buffers, shipping inflight/parked queues, source pending
        buffers and hub slots — plus 1 while the aggregator is down (results
        may still be trapped in retained batches awaiting replay).
        Drain-to-quiescence loops poll this instead of re-deriving the
        stage list themselves.
        """
        pending = 0
        for site in self.sites.values():
            pending += site.backlog
            pending += site.batcher.buffered_count
            for src in site.spec.sources:
                pending += src.pending_count
        for hub in self.hub_aggregators.values():
            pending += hub.open_slots + hub.batcher.buffered_count
        for backend in self._backends():
            pending += getattr(backend, "inflight", 0)
            pending += getattr(backend, "parked", 0)
        if not self._agg_up:
            pending += 1
        return pending

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_results(self.results)

    def lineage_stats(self) -> dict:
        """How much of the emitted output carries full provenance.

        ``complete`` counts results whose every leg has a cut, send and
        arrival timestamp — i.e. windows the lineage layer can decompose
        into site_close/queue/transit/merge hops end to end.
        """
        results = self.results
        with_lineage = [r for r in results if r.lineage is not None]
        return {
            "results": len(results),
            "with_lineage": len(with_lineage),
            "complete": sum(
                1 for r in with_lineage if r.lineage.complete
            ),
        }

    def _backends(self) -> list:
        """Every shipping backend: the sites', then the hubs'."""
        return [site.shipping for site in self.sites.values()] + [
            hub.shipping for hub in self.hub_aggregators.values()
        ]

    def _root_backends(self) -> list:
        """The backends that ship to the aggregator."""
        if self.hub_aggregators:
            return [hub.shipping for hub in self.hub_aggregators.values()]
        return [site.shipping for site in self.sites.values()]

    def wan_bytes(self) -> float:
        return sum(backend.bytes_shipped for backend in self._backends())

    def backbone_bytes(self) -> float:
        """Bytes shipped to the aggregator (the hubs' onward volume in a
        hub topology; :meth:`wan_bytes` in a flat one)."""
        return sum(backend.bytes_shipped for backend in self._root_backends())

    def records_ingested(self) -> int:
        return sum(site.records_ingested for site in self.sites.values())

    def records_shed(self) -> int:
        """Records dropped under overload (sites + every backend)."""
        return sum(site.records_shed for site in self.sites.values()) + sum(
            getattr(backend, "records_shed", 0) for backend in self._backends()
        )

    def records_admission_rejected(self) -> int:
        """Records dropped at the door by per-site admission gates."""
        return sum(
            site.records_admission_rejected for site in self.sites.values()
        )

    def loss_terms(self) -> dict[str, int]:
        """The counters that explain records ingested but never counted.

        At quiescence ``ingested - counted == sum(loss_terms().values())``:
        the loss identity the auditor checks and every scenario payload
        reports. A shipping backend without ``records_abandoned`` counts 0.
        """
        sites = self.sites.values()
        return {
            "shed": self.records_shed(),
            "late_dropped": sum(site.aggregator.late_dropped for site in sites),
            "late_partial_records": self.aggregator.late_partial_records,
            "abandoned_records": sum(
                getattr(backend, "records_abandoned", 0)
                for backend in self._backends()
            ),
            "admission_rejected": self.records_admission_rejected(),
        }

    def records_in_results(self) -> int:
        """Raw records accounted for by emitted window results."""
        return sum(r.record_count for r in self.results)

    def throughput(self, duration: float) -> float:
        """Processed records per second of virtual time."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return (
            sum(s.records_processed for s in self.sites.values()) / duration
        )
