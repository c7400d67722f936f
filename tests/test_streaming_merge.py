"""The global merge: one finalize event per delivered batch.

``GlobalAggregator`` arms one simulator event per delivered batch, and
that event finalizes, in arrival order, every (window, key) slot the batch
opened. ``MERGE_RESULTS_SHA256`` was recorded at the commit before that
change, when each slot armed a timer of its own, with

    PYTHONPATH=src python -m tests.test_streaming_merge

so the per-batch timer is held to the per-slot results: same windows, same
values, same emission times and order, across a crash and a restore.
"""

import hashlib

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate, builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, GlobalAggregator
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window

SITES = ("NEU", "WEU", "EUS")
KEYS = [f"k{i:02d}" for i in range(64)]

MERGE_RESULTS_SHA256 = (
    "9e5dd22a884764f109fb982af093a2fe7729773a21b7ea343576a79dcaf75ffd"
)


def _engine() -> SageEngine:
    env = CloudEnvironment(seed=13, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 2, "WEU": 2, "EUS": 2, "NUS": 2}
    )
    engine.start(learning_phase=30.0)
    return engine


def _job() -> StreamJob:
    return StreamJob(
        name="merge",
        sites=[
            SiteSpec(region, [PoissonSource(f"s-{region}", rate=150.0, keys=KEYS)])
            for region in SITES
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("mean"),
        watermark_lag=2.0,
        finalize_grace=5.0,
    )


def _crash_and_restore_run() -> GeoStreamRuntime:
    """Three sites, 64 shared keys, exactly-once checkpoints every 15 s,
    the aggregator crashed at +62 s and restored at +71 s, then drained."""
    engine = _engine()
    runtime = GeoStreamRuntime(engine, _job(), SageShipping.factory(n_nodes=2))
    runtime.enable_checkpointing(interval=15.0)
    t0 = engine.sim.now
    engine.sim.schedule(62.0, runtime.crash_aggregator)
    engine.sim.schedule(71.0, runtime.restart_aggregator)
    runtime.start()
    engine.run_until(t0 + 150.0)
    for site in runtime.sites.values():
        site.stop_sources()
    job = runtime.job
    engine.run_until(engine.sim.now + job.windows.length + job.watermark_lag + 2.0)
    drain_cap = engine.sim.now + 600.0
    while runtime.in_pipe() and engine.sim.now < drain_cap:
        engine.run_until(engine.sim.now + 5.0)
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 30.0)
    return runtime


def _results_sha256(runtime: GeoStreamRuntime) -> str:
    rows = [
        (r.window.start, r.window.end, r.key, r.value, r.record_count,
         r.sites, r.emitted_at, r.epoch)
        for r in runtime.results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_crash_and_restore_run_reproduces_the_per_slot_timer_results():
    runtime = _crash_and_restore_run()
    assert runtime.aggregator_crashes == 1
    results = runtime.results
    slots = [(r.window, r.key) for r in results]
    assert len(set(slots)) == len(slots) > 64 * 10
    assert {r.sites for r in results} == {3}
    assert runtime.records_in_results() == runtime.records_ingested()
    assert _results_sha256(runtime) == MERGE_RESULTS_SHA256


# ----------------------------------------------------------------------
# One event per delivered batch
# ----------------------------------------------------------------------
def _partials_batch(engine, seq: int, window: Window) -> Batch:
    records = [
        Record(
            window.end, key,
            PartialAggregate(window, key, (i + 1, 2.0 * (i + 1)), i + 1),
            "NEU", 120.0,
        )
        for i, key in enumerate(KEYS)
    ]
    return Batch(records, "NEU", created_at=engine.sim.now, seq=seq)


def _quiet_engine() -> SageEngine:
    engine = _engine()
    engine.stop()
    engine.run_until(engine.sim.now + 60.0)
    return engine


def test_a_batch_of_64_partials_schedules_exactly_one_event():
    engine = _quiet_engine()
    agg = GlobalAggregator(engine, _job())
    base = engine.sim.now - engine.sim.now % 10.0
    window = Window(base, base + 10.0)
    queued = len(engine.sim.queue)
    agg.deliver(_partials_batch(engine, 0, window))
    assert len(engine.sim.queue) == queued + 1
    assert len(agg._pending) == 64
    assert all(
        group.due == engine.sim.now + 5.0 for group, _ in agg._pending.values()
    )
    # A second batch for the same slots merges; it arms nothing.
    agg.deliver(_partials_batch(engine, 1, window))
    assert len(engine.sim.queue) == queued + 1
    engine.run_until(engine.sim.now + 5.0)
    assert [r.key for r in agg.results] == KEYS  # arrival order
    assert [r.value for r in agg.results] == [2.0] * 64
    assert [r.record_count for r in agg.results] == [2 * (i + 1) for i in range(64)]
    assert not agg._pending


def test_a_crashed_aggregator_emits_nothing_when_the_event_fires():
    engine = _quiet_engine()
    agg = GlobalAggregator(engine, _job())
    base = engine.sim.now - engine.sim.now % 10.0
    agg.deliver(_partials_batch(engine, 0, Window(base, base + 10.0)))
    agg.crashed = True
    engine.run_until(engine.sim.now + 10.0)
    assert agg.results == [] and agg.uncommitted == []
    assert len(agg._pending) == 64 and not agg._emitted


def test_an_emptied_list_payload_is_a_no_op_after_dedup():
    # The Batch constructor refuses an empty payload, but a list payload
    # emptied after construction used to crash the merge at payload[0],
    # after the batch had already been recorded as seen.
    engine = _quiet_engine()
    agg = GlobalAggregator(engine, _job())
    base = engine.sim.now - engine.sim.now % 10.0
    batch = _partials_batch(engine, 0, Window(base, base + 10.0))
    batch.records.clear()
    queued = len(engine.sim.queue)
    agg.deliver(batch)
    assert agg._seen_batches == {("NEU", 0)}
    assert not agg._pending and len(engine.sim.queue) == queued
    agg.deliver(batch)
    assert agg.duplicates_dropped == 1


if __name__ == "__main__":
    print(_results_sha256(_crash_and_restore_run()))
