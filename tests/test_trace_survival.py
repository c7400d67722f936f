"""Trace-context survival across retries, replay, and coarsening.

The lineage contract: a batch's trace identity is minted exactly once
(at cut time) and must survive everything the batch survives. These
tests chase the three paths that could plausibly break it — at-least-once
retries and duplicate deliveries, checkpoint-restore replay after an
aggregator crash, and batch coarsening under the ``degrade`` policy —
asserting IDs neither duplicate nor vanish.
"""

import math

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.policy import FlowConfig
from repro.obs.lineage import BatchTrace
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate, builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, GlobalAggregator
from repro.streaming.shipping import ReliableShipping, SageShipping, _ShipInstruments
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=71, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    eng.start(learning_phase=30.0)
    return eng


@pytest.fixture
def job():
    return StreamJob(
        name="trace",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=1.0)])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        finalize_grace=5.0,
    )


def traced_batch(engine, seq, count=3, origin="NEU"):
    """A hand-built partial batch carrying a stamped trace (normally the
    batcher's job)."""
    pa = PartialAggregate(Window(0.0, 10.0), "k", state=count, count=count)
    record = Record(10.0, "k", pa, origin=origin, size_bytes=200.0)
    batch = Batch([record], origin, created_at=engine.sim.now, seq=seq)
    batch.trace = BatchTrace.stamp(origin, seq, engine.sim.now)
    return batch


class InstrumentedFlaky:
    """Inner backend that records lineage hops like the real backends:
    swallows the first ``fail_first`` attempts (hop never closes), then
    delivers each attempt after ``delay`` seconds."""

    def __init__(self, engine, fail_first=0, delay=1.0):
        self.engine = engine
        self.fail_first = fail_first
        self.delay = delay
        self.attempts = 0
        self.bytes_shipped = 0.0
        self._inst = _ShipInstruments(engine, "stub", "NEU", "NUS")

    def ship(self, batch, on_delivered):
        self.attempts += 1
        self.bytes_shipped += batch.size_bytes
        on_delivered = self._inst.wrap(batch, on_delivered)
        if self.attempts > self.fail_first:
            self.engine.sim.schedule(self.delay, on_delivered, batch)


# ----------------------------------------------------------------------
# ReliableShipping retries
# ----------------------------------------------------------------------
def test_retries_append_hops_without_changing_identity(engine):
    inner = InstrumentedFlaky(engine, fail_first=2, delay=1.0)
    reliable = ReliableShipping(engine, inner, delivery_timeout=5.0)
    delivered = []
    batch = traced_batch(engine, seq=4)
    original_id = batch.trace.trace_id
    reliable.ship(batch, delivered.append)
    engine.run_until(engine.sim.now + 60.0)

    assert inner.attempts == 3  # two swallowed, one landed
    assert len(delivered) == 1
    assert delivered[0] is batch  # the same object all the way through
    trace = batch.trace
    assert trace.trace_id == original_id
    # One hop per attempt; only the last one closed.
    assert trace.attempts == 3
    assert sum(1 for h in trace.hops if h.delivered) == 1
    assert trace.delivered
    assert math.isfinite(trace.delivered_at)
    # Backoff ordering survives in the hop timeline.
    sent = [h.sent_at for h in trace.hops]
    assert sent == sorted(sent)


def test_duplicate_delivery_shares_one_trace(engine, job):
    """A late first copy landing after its retry: the aggregator sees the
    trace twice and must count its records exactly once."""
    # Delivery takes longer than the timeout, so the retry fires while
    # the first copy is still in flight — then both arrive.
    inner = InstrumentedFlaky(engine, fail_first=0, delay=8.0)
    reliable = ReliableShipping(engine, inner, delivery_timeout=5.0)
    agg = GlobalAggregator(engine, job)
    batch = traced_batch(engine, seq=9, count=3)
    reliable.ship(batch, agg.deliver)
    engine.run_until(engine.sim.now + 120.0)

    assert inner.attempts >= 2
    assert agg.duplicates_dropped >= 1
    assert len(agg.results) == 1
    result = agg.results[0]
    assert result.record_count == 3  # counted once, not per copy
    lineage = result.lineage
    assert lineage is not None
    (leg,) = lineage.legs
    assert leg.site == "NEU"
    assert leg.batches == 1  # one trace identity, however many copies
    assert leg.attempts == batch.trace.attempts
    assert leg.records == 3


# ----------------------------------------------------------------------
# Checkpoint/restore
# ----------------------------------------------------------------------
def test_pending_lineage_survives_checkpoint_restore(engine, job):
    agg = GlobalAggregator(engine, job)
    batch = traced_batch(engine, seq=2, count=5)
    batch.trace.begin_hop("NEU->NUS", "sage", engine.sim.now - 1.0)
    batch.trace.hops[0].arrived_at = engine.sim.now
    agg.deliver(batch)
    payload = agg.checkpoint()
    (row,) = payload["pending"]
    assert len(row) == 8  # legs ride as the 8th element
    (leg_dict,) = row[7]
    assert leg_dict["site"] == "NEU"

    fresh = GlobalAggregator(engine, job)
    fresh.restore(payload)
    engine.run_until(engine.sim.now + job.finalize_grace + 1.0)
    (result,) = fresh.results
    assert result.record_count == 5
    lineage = result.lineage
    (leg,) = lineage.legs
    # Timestamps recorded before the crash survive the round trip.
    assert leg.created_at == batch.trace.created_at
    assert leg.first_sent_at == batch.trace.first_sent_at
    assert leg.arrived_at == batch.trace.delivered_at
    assert leg.complete and lineage.complete


def test_replay_after_restore_does_not_mint_new_identity(engine, job):
    """Replayed retained batches carry their original traces; the dedup
    set restored from the checkpoint absorbs them."""
    agg = GlobalAggregator(engine, job)
    agg.exactly_once = True
    batch = traced_batch(engine, seq=6, count=4)
    agg.deliver(batch)
    payload = agg.checkpoint()

    fresh = GlobalAggregator(engine, job)
    fresh.exactly_once = True
    fresh.restore(payload)
    fresh.deliver(batch)  # the replay: same object, same trace
    assert fresh.duplicates_dropped == 1
    engine.run_until(engine.sim.now + job.finalize_grace + 1.0)
    results = fresh.results + fresh.uncommitted
    assert len(results) == 1
    assert results[0].record_count == 4


def test_crash_replay_preserves_lineage_end_to_end():
    env = CloudEnvironment(seed=61, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=60.0)
    job = StreamJob(
        name="crash",
        sites=[SiteSpec("NEU", [PoissonSource("p", rate=40.0, keys=["k1", "k2"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        watermark_lag=5.0,
        finalize_grace=15.0,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.enable_checkpointing(interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + 30.0)
    runtime.crash_aggregator()
    engine.run_until(engine.sim.now + 10.0)
    runtime.restart_aggregator()
    engine.run_until(engine.sim.now + 30.0)
    for site in runtime.sites.values():
        site.stop_sources()
    engine.run_until(engine.sim.now + job.watermark_lag + 15.0)
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 30.0)

    results = runtime.results
    assert results
    # Exactly once across the crash, lineage intact on every result.
    assert len({(r.window, r.key) for r in results}) == len(results)
    assert all(r.lineage is not None for r in results)
    # Post-restart results (merged from replayed batches) still resolve
    # their legs to the original per-site trace identities.
    for result in results:
        for leg in result.lineage.legs:
            assert leg.site == "NEU"
            assert leg.batches >= 1
            assert leg.attempts >= leg.batches


# ----------------------------------------------------------------------
# Degrade-policy coarsening
# ----------------------------------------------------------------------
def test_degrade_coarsening_neither_duplicates_nor_drops_traces():
    env = CloudEnvironment(seed=29, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=60.0)
    flow = FlowConfig(policy="degrade", max_backlog=300)
    job = StreamJob(
        name="deg",
        sites=[SiteSpec("NEU", [PoissonSource("p", rate=400.0, keys=["k1", "k2"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        watermark_lag=5.0,
        finalize_grace=15.0,
        flow=flow,
    )
    runtime = GeoStreamRuntime(
        engine,
        job,
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=60.0,  # undersized: coarse mode must engage
    )
    runtime.start()
    engine.run_until(engine.sim.now + 60.0)
    site = runtime.sites["NEU"]
    assert site.degraded_ticks > 0  # the coarse path actually ran
    site.stop_sources()
    engine.run_until(engine.sim.now + job.watermark_lag + 60.0)
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 30.0)

    # Every batch the coarsened batcher cut arrived at the aggregator
    # exactly once under its own identity: no trace vanished in the
    # coarse flush path, none was minted twice.
    cut = site.batcher.batches_cut
    seen = {s for (o, s) in runtime.aggregator._seen_batches if o == "NEU"}
    assert cut > 0
    assert len(seen) == cut
    assert seen == set(range(cut))  # seqs are dense: cut once each
    assert runtime.aggregator.duplicates_dropped == 0
    # And the emitted windows still carry complete provenance.
    stats = runtime.lineage_stats()
    assert stats["results"] > 0
    assert stats["complete"] == stats["results"]
