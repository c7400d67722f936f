"""The geo-streaming runtime: sites, shipping, global aggregation.

Execution model per site, every tick (1 s of virtual time):

1. drain the ingest backlog through the site's operator chain, limited by
   the site's processing capacity (records/s × VMs) — overload therefore
   turns into queueing latency, exactly like a real stream processor;
2. advance the event-time watermark and close finished windows into
   partial aggregates (one block of rows);
3. offer partials to the site's batcher; cut batches travel to the
   aggregation site through the configured shipping backend.

Closed windows travel as one :class:`PartialBlock` of columns from the
site's window close, through the batcher and the WAN, into the global
merge. The global aggregator merges partials per (window, key) and emits
each result ``finalize_grace`` seconds after the first partial for its
window arrived, recording end-to-end latency against the window's
event-time close. Late partials are merged if the result has not been
emitted yet, and counted otherwise.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import SageEngine
from repro.flow.checkpoint import Checkpointer, CheckpointStore
from repro.flow.credits import CreditGate
from repro.flow.policy import FlowConfig, make_policy
from repro.obs.lineage import SiteLeg
from repro.simulation.engine import PeriodicGroup
from repro.streaming.batching import Batcher
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch
from repro.streaming.operators import (
    PartialAggregate,
    PartialBlock,
    WindowedAggregator,
)
from repro.streaming.records import ChunkedBacklog, RecordBatch
from repro.streaming.results import LatencyStats, ResultTable, ResultView, WindowResult


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
        n = len(records)
        if self.admission is not None and n:
            saturated = (
                self.flow is not None
                and len(self._backlog) >= self.flow.max_backlog
            )
            rejected = self.admission.admit(
                n, self.engine.sim.now, saturated=saturated
            )
            if rejected:
                self.records_admission_rejected += rejected
                if self._obs_on:
                    self._m_admission.inc(rejected)
                records = records[rejected:]
                n -= rejected
        if self.policy is None:
            self._backlog.extend(records)
            accepted = n
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
            for start, end, key, count in zip(
                partials.start, partials.end, partials.key,
                partials.count.tolist(),
            ):
                engine_obs.record_span(
                    "window.site_close",
                    start,
                    now,
                    site=self.spec.region,
                    key=key,
                    window_end=end,
                    records=count,
                )
        with self._st_batch:
            if len(partials):
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


class _Armed:
    """The (window, key) slots one delivered batch armed, as rows.

    One finalize event emits them, in row order. Row ``i`` is slot
    ``slots[i]`` — ``(start, end, key)``, the window's bounds and the
    key — with its merged ``states[i]`` and ``counts[i]``. While the
    arming batch is its only contributor, the slot's lineage is that
    batch's leg (its ``mark``, ``site`` and ``now`` with the row's
    ``sizes[i]``) and ``legs`` has no row ``i``; a later partial for
    the slot gives the row its per-site :class:`SiteLeg` dict there.
    """

    __slots__ = (
        "due", "site", "mark", "now", "slots", "states", "counts", "sizes",
        "legs", "disarmed",
    )

    def __init__(self, due: float, site: str, mark, now: float) -> None:
        #: Virtual time the finalize timer fires — checkpointed so a
        #: restored aggregator re-arms the timer with the remaining wait.
        self.due = due
        self.site = site
        self.mark = mark
        self.now = now
        self.slots: list[tuple] = []
        self.states: list = []
        self.counts: list[int] = []
        self.sizes: list[float] = []
        self.legs: dict[int, dict[str, SiteLeg]] = {}
        #: Set when a restore replaces the pending slots under the timer.
        self.disarmed = False

    def first_leg(self, row: int) -> SiteLeg:
        """The arming batch's leg of row ``row`` (its only one while
        ``legs`` has no such row)."""
        return SiteLeg.of_batch(
            self.site, self.mark, self.counts[row], self.sizes[row], self.now
        )


class GlobalAggregator:
    """Merges per-site partials into global window results.

    Partials arrive as :class:`PartialBlock` rows (a hand-built
    ``list[Record(PartialAggregate)]`` is columnized at the door). A
    (window, key) slot is the tuple ``(start, end, key)``: the window's
    bounds and the key, hashed as a tuple of a float pair and a string,
    and the very row the checkpoint's ``emitted`` log writes. A slot
    pending emission is a row of the :class:`_Armed` group of the batch
    that first delivered it, which one finalize event emits.

    Emitted results are rows of a :class:`ResultTable`: the runtime's,
    shared with the aggregators that ran before this one, or a table of
    its own. Taking one over drops what the last writer never committed.
    """

    def __init__(
        self, engine: SageEngine, job: StreamJob, table: ResultTable | None = None
    ) -> None:
        self.engine = engine
        self.job = job
        if table is None:
            table = ResultTable()
        table.truncate()
        table.writer = self
        self._table = table
        #: The table's first row this aggregator emitted.
        self._base = len(table)
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
        #: Pending slots: slot -> (the group that armed it, its row).
        self._pending: dict[tuple, tuple[_Armed, int]] = {}
        self._emitted: set[tuple] = set()
        #: ``(origin, seq)`` of every batch already merged — the receiver
        #: half of at-least-once delivery: a re-sent or duplicated batch
        #: must not double-count any window.
        self._seen_batches: set[tuple[str, int]] = set()
        #: The two grow-only sets again, in insertion order (the same
        #: tuple objects): a periodic checkpoint serializes only the
        #: tail the durable store does not hold yet.
        self._emitted_log: list[tuple] = []
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
            # or raw records of a hand-built batch — columnized here,
            # once, so each kind has a single path.
            if isinstance(payload[0].value, PartialAggregate):
                payload = PartialBlock.from_records(payload)
            else:
                payload = RecordBatch.from_records(payload)
        if isinstance(payload, PartialBlock):
            armed = self._merge(payload, batch, now)
            if armed.slots:
                # One timer for every slot this batch armed: per-slot
                # timers would fire back to back at one (time,
                # priority), and a finalize schedules nothing, so
                # nothing could run between them.
                self.engine.sim.schedule(
                    self.job.finalize_grace, self._finalize, armed
                )
            return
        self.raw_records += len(payload)
        self._raw_aggregator.process_batch(payload)
        watermark = now - self.job.watermark_lag - self.job.finalize_grace
        block = self._raw_aggregator.advance_watermark(watermark)
        n = len(block)
        if n:
            # Raw-record windows close here: no site leg, no lineage hop.
            self._emit(
                list(zip(block.start, block.end, block.key)),
                block.state,
                block.count.tolist(),
                [0.0] * n,
                {},
                (None, None, None),
            )

    def _merge(self, block: PartialBlock, batch: Batch, now: float) -> _Armed:
        """Merge a block of partials in one pass; return the group of
        the slots it armed, in row order."""
        site = batch.origin or "?"
        trace = batch.trace
        armed = _Armed(
            now + self.job.finalize_grace,
            site,
            None if trace is None else trace.mark(),
            now,
        )
        slots, states, counts, sizes = (
            armed.slots, armed.states, armed.counts, armed.sizes
        )
        emitted = self._emitted
        pending = self._pending
        merge = self.job.aggregate.merge
        for slot, state, count, size in zip(
            zip(block.start, block.end, block.key),
            block.state,
            block.count.tolist(),
            block.size.tolist(),
        ):
            if slot in emitted:
                self.late_partials += 1
                self.late_partial_records += count
                self._m_late.inc()
                continue
            found = pending.get(slot)
            if found is None:
                pending[slot] = (armed, len(slots))
                slots.append(slot)
                states.append(state)
                counts.append(count)
                sizes.append(size)
                continue
            group, row = found
            site_legs = group.legs.get(row)
            if site_legs is None:
                site_legs = group.legs[row] = {group.site: group.first_leg(row)}
            prior = group.states[row]
            group.states[row] = state if prior is None else merge(prior, state)
            group.counts[row] += count
            leg = site_legs.get(site)
            if leg is None:
                leg = site_legs[site] = SiteLeg(site=site)
            leg.absorb(trace, count, size, now)
        return armed

    def _finalize(self, armed: _Armed) -> None:
        """Emit each slot's result, in the order the slots were armed."""
        if self.crashed or armed.disarmed:
            return
        pop = self._pending.pop
        for slot in armed.slots:
            pop(slot)
        self._emit(
            armed.slots, armed.states, armed.counts, armed.sizes, armed.legs,
            (armed.site, armed.mark, armed.now),
        )

    def _emit(self, slots, states, counts, sizes, legs, batch: tuple) -> None:
        """Append one result per row of the parallel ``slots``, ``states``,
        ``counts`` and ``sizes`` to the table, as one group: ``legs``
        maps a row to its per-site legs, and ``batch`` is the arming
        batch's ``(site, mark, arrived)`` (all ``None`` for raw-record
        windows)."""
        emitted = self._emitted
        log = self._emitted_log
        for slot in slots:
            if slot not in emitted:
                emitted.add(slot)
                log.append(slot)
        table = self._table
        first = len(table)
        table.append(
            slots,
            map(self.job.aggregate.result, states),
            counts,
            sizes,
            legs,
            (self.engine.sim.now, self.epoch, self.config_version, *batch),
        )
        if not self.exactly_once:
            table.commit()
        if self._obs_on:
            for i in range(first, len(table)):
                self._observe(table.row(i))

    def _observe(self, result: WindowResult) -> None:
        """Metrics and the ``window.global_emit`` span of one result."""
        window, now, lineage = result.window, result.emitted_at, result.lineage
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
            key=result.key,
            window_start=window.start,
            records=result.record_count,
            sites=result.sites,
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

    @property
    def results(self) -> ResultView:
        """The results this aggregator emitted and committed (all it
        emitted, unless :attr:`exactly_once`); none once it crashed —
        its committed ones are the runtime's delivered results then."""
        table = self._table
        return ResultView(
            table, self._base, self._base if self.crashed else table.cursor
        )

    @property
    def uncommitted(self) -> ResultView:
        """Exactly-once mode: results finalized since the last checkpoint.
        :meth:`checkpoint` commits them (the transactional-sink half of
        exactly-once); a crash in between loses them, and replay
        re-derives them."""
        table = self._table
        if table.writer is not self:
            return ResultView(table, 0, 0)
        return ResultView(table, table.cursor, len(table))

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
        self._table.commit()
        if since is None:
            since = {"emitted": 0, "seen": 0}
            emitted = sorted(map(list, self._emitted))
            seen = sorted(map(list, self._seen_batches))
        else:
            n_emitted, n_seen = since["emitted"], since["seen"]
            if n_emitted > len(self._emitted_log) or n_seen > len(self._seen_log):
                raise ValueError(
                    f"checkpoint cursor {since} is ahead of this aggregator "
                    f"({len(self._emitted_log)} emitted, "
                    f"{len(self._seen_log)} seen): not its chain"
                )
            emitted = list(map(list, self._emitted_log[n_emitted:]))
            seen = list(map(list, self._seen_log[n_seen:]))
        return {
            "version": CHECKPOINT_VERSION,
            "since": since,
            "emitted": emitted,
            "seen": seen,
            "pending": self._pending_rows(),
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
        self._emitted_log = list(map(tuple, payload["emitted"]))
        self._emitted = set(self._emitted_log)
        self._seen_log = list(map(tuple, payload["seen"]))
        self._seen_batches = set(self._seen_log)
        counters = payload["counters"]
        self.late_partials = counters["late_partials"]
        self.late_partial_records = counters["late_partial_records"]
        self.raw_records = counters["raw_records"]
        self.duplicates_dropped = counters["duplicates_dropped"]
        self._raw_aggregator.restore(payload["raw"])
        for armed, _ in self._pending.values():
            armed.disarmed = True
        self._pending = {}
        # A row's sites are its legs' sites: the merge adds both at once.
        for start, end, key, state, count, _sites, due, legs in payload["pending"]:
            armed = _Armed(due, "", None, now)
            slot = (start, end, key)
            armed.slots.append(slot)
            armed.states.append(state)
            armed.counts.append(count)
            armed.sizes.append(0.0)  # unread: the row's legs are explicit
            armed.legs[0] = {leg["site"]: SiteLeg.from_dict(leg) for leg in legs}
            self._pending[slot] = (armed, 0)
            self.engine.sim.schedule(max(0.0, due - now), self._finalize, armed)

    def _pending_rows(self) -> list[list]:
        """The pending slots as checkpoint rows ``[start, end, key,
        state, count, sites, due, legs]``, in (window, key) order."""
        rows = []
        pending = self._pending
        for slot in sorted(pending):
            group, row = pending[slot]
            legs = group.legs.get(row)
            if legs is None:
                sites = [group.site]
                leg_rows = [group.first_leg(row).to_dict()]
            else:
                sites = sorted(legs)
                leg_rows = [legs[s].to_dict() for s in sites]
            rows.append([
                *slot, group.states[row], group.counts[row], sites, group.due,
                leg_rows,
            ])
        return rows


class GeoStreamRuntime:
    """Run a :class:`StreamJob` over a SageEngine deployment.

    One flat topology, the paper's pipeline: every site aggregates
    locally and ships its batches over its own backend, built by
    ``shipping_factory``, straight to the one global aggregator in the
    job's aggregation region.
    """

    def __init__(
        self,
        engine: SageEngine,
        job: StreamJob,
        shipping_factory,
        per_vm_records_per_s: float = 5000.0,
    ) -> None:
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
        #: Every result delivered to the outside world: rows committed by
        #: aggregator instances that later crashed (they survive because
        #: commit handed them out), then the live aggregator's rows.
        self._table = ResultTable()
        self.aggregator = GlobalAggregator(engine, job, self._table)
        #: Aggregator process liveness: while False, transport-level
        #: deliveries are dropped at the door (and recovered by replay).
        self._agg_up = True
        self.batches_dropped_while_down = 0
        self.aggregator_crashes = 0
        self.checkpoint_store: CheckpointStore | None = None
        self._checkpointer: Checkpointer | None = None
        #: The aggregator instance whose logs the store's ``aggregator``
        #: chain describes row for row (``None`` until one is saved).
        self._chained: GlobalAggregator | None = None
        self.sites: dict[str, SiteRuntime] = {}
        for spec in job.sites:
            src_vms = engine.deployment.vms(spec.region)
            backend = shipping_factory(engine, src_vms, self.agg_vm)
            self.sites[spec.region] = SiteRuntime(
                engine,
                job,
                spec,
                backend,
                self._deliver,
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
        """
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
        # Disarm its outstanding finalize timers. Its uncommitted rows
        # stay in the table until a successor takes it over.
        self.aggregator.crashed = True

    def restart_aggregator(self) -> None:
        """Boot a fresh aggregator from the last checkpoint, then replay."""
        if self._agg_up:
            return
        old = self.aggregator
        self.aggregator = GlobalAggregator(self.engine, self.job, self._table)
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
        VM there and each site backend's ``retarget`` rebuilds plans and
        instruments for the new destination. In-flight deliveries to the
        dead leader finish or time out under the old coordinates; their
        retries (and the retention replay) go to the new one.
        """
        vms = self.engine.deployment.vms(region)
        if not vms:
            raise ValueError(f"no VMs in new aggregation region {region}")
        live = [vm for vm in vms if vm.alive]
        self.agg_vm = (live or vms)[0]
        self.aggregation_region = region
        for backend in self._backends():
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
    def results(self) -> ResultView:
        """Every result delivered to the outside world, crashes included
        (a read-only view: O(1), each result built on access)."""
        return ResultView(self._table, 0, len(self._table))

    def results_since(
        self, start: int, include_uncommitted: bool = False
    ) -> ResultView:
        """Results appended at or after flat index ``start`` — O(1).

        The committed rows are append-stable: a checkpoint commit moves
        the table's cursor forward and a crash drops only rows past it,
        so a flat cursor into them never re-reads an already-seen
        result. Uncommitted results are excluded by default because a
        crash discards them (they are re-derived after replay — an
        incremental scanner that had counted the discarded copies would
        then report phantom duplicates); pass ``include_uncommitted``
        only for a final scan at quiescence. Continuous auditing over
        multi-day soaks relies on this instead of reading every result
        each tick.
        """
        table = self._table
        hi = len(table) if include_uncommitted else table.cursor
        return ResultView(table, min(start, hi), hi)

    def in_pipe(self) -> int:
        """Records still somewhere in the pipeline (0 == quiescent).

        Counts every stage that can hold data: site ingest backlogs,
        batcher buffers, shipping inflight/parked queues and source
        pending buffers — plus 1 while the aggregator is down (results
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
        for backend in self._backends():
            pending += getattr(backend, "inflight", 0)
            pending += getattr(backend, "parked", 0)
        if not self._agg_up:
            pending += 1
        return pending

    def latency_stats(self) -> LatencyStats:
        return LatencyStats.from_latencies(self.results.latencies())

    def lineage_stats(self) -> dict:
        """How much of the emitted output carries full provenance.

        ``complete`` counts results whose every leg has a cut, send and
        arrival timestamp — i.e. windows the lineage layer can decompose
        into site_close/queue/transit/merge hops end to end. Every
        emitted result carries a lineage.
        """
        results = self.results
        return {
            "results": len(results),
            "with_lineage": len(results),
            "complete": int(results.complete().sum()),
        }

    def _backends(self) -> list:
        """Every shipping backend, one per site."""
        return [site.shipping for site in self.sites.values()]

    def wan_bytes(self) -> float:
        return sum(backend.bytes_shipped for backend in self._backends())

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
        return self.results.records()

    def throughput(self, duration: float) -> float:
        """Processed records per second of virtual time."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        return (
            sum(s.records_processed for s in self.sites.values()) / duration
        )
