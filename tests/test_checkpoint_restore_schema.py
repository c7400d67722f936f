"""Checkpoint restore: the format version, and restores under active faults.

The aggregator checkpoint carries an explicit format version; ``restore``
takes the current one and refuses anything else before touching state. A
restore must also survive landing *inside* an open batch-drop fault
window — the replayed batches get dropped and re-retried, and the loss
identity still balances.
"""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flow.checkpoint import CheckpointStore
from repro.flow.policy import FlowConfig
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import (
    CHECKPOINT_VERSION,
    GeoStreamRuntime,
    GlobalAggregator,
)
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


def _build(finalize_grace=60.0, reliable=False):
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 2, "WEU": 2, "NUS": 2}
    )
    engine.start(learning_phase=30.0)
    flow = FlowConfig(policy="block", max_backlog=10_000)
    job = StreamJob(
        name="ckpt",
        sites=[
            SiteSpec(
                region,
                [
                    PoissonSource(
                        f"src-{region}", rate=40.0, keys=["k1", "k2"]
                    )
                ],
            )
            for region in ("NEU", "WEU")
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        finalize_grace=finalize_grace,
        flow=flow,
    )
    factory = SageShipping.factory(n_nodes=2)
    if reliable:
        factory = ReliableShipping.factory(
            factory, delivery_timeout=8.0, max_retries=8
        )
    runtime = GeoStreamRuntime(engine, job, factory)
    return engine, runtime


def _checkpoint_with_pending(engine, runtime):
    """Run until partials are parked at the aggregator, then snapshot."""
    t0 = engine.sim.now
    runtime.start()
    engine.run_until(t0 + 45.0)
    payload = runtime.aggregator.checkpoint()
    assert payload["pending"], "run too short to park pending windows"
    # JSON roundtrip through the durable store: tuples become lists,
    # exactly what a restore after a real crash would see.
    store = CheckpointStore()
    store.save("aggregator", payload, engine.sim.now)
    return store.load("aggregator")


def test_current_schema_roundtrips_with_lineage_legs():
    engine, runtime = _build()
    loaded = _checkpoint_with_pending(engine, runtime)
    rows = loaded["pending"]
    assert all(len(row) == 8 for row in rows)
    restored = GlobalAggregator(engine, runtime.job)
    restored.restore(loaded)
    assert len(restored._pending) == len(rows)
    for row, back in zip(rows, restored._pending_rows()):
        start, end, key, state, count, sites, due, legs = row
        assert back[:3] == [start, end, key]
        assert back[4:7] == [count, sites, due]
        # Every contributing site shipped a leg, and it survived.
        assert sites == [leg["site"] for leg in legs]
        assert back[7] == legs
    counters = loaded["counters"]
    assert restored.late_partials == counters["late_partials"]
    assert restored.duplicates_dropped == counters["duplicates_dropped"]


def test_other_version_refused_before_any_state_is_touched():
    engine, runtime = _build()
    current = _checkpoint_with_pending(engine, runtime)
    assert current["version"] == CHECKPOINT_VERSION == 2
    for found in (1, 3, "2", None):
        loaded = dict(current)
        if found is None:
            del loaded["version"]  # what every pre-version checkpoint looks like
        else:
            loaded["version"] = found
        target = GlobalAggregator(engine, runtime.job)
        target.late_partials = 5  # a half-done restore would overwrite it
        queued = len(engine.sim.queue)
        with pytest.raises(ValueError) as err:
            target.restore(loaded)
        assert repr(found) in str(err.value) and "expected 2" in str(err.value)
        assert target._emitted == set() and target._seen_batches == set()
        assert target._pending == {} and target.late_partials == 5
        assert len(engine.sim.queue) == queued  # no finalize timer was armed


def test_restore_inside_open_batch_drop_window_loses_nothing():
    engine, runtime = _build(finalize_grace=20.0, reliable=True)
    runtime.enable_checkpointing(interval=5.0)
    # Drop window [40, 80); the crash AND the restart-plus-replay both
    # land inside it, so the replayed batches are eaten and must be
    # re-retried after the window lifts.
    plan = FaultPlan().drop_batches(40.0, 40.0)
    FaultInjector(engine, plan).arm()
    t0 = engine.sim.now
    engine.sim.schedule(50.0, runtime.crash_aggregator)
    engine.sim.schedule(60.0, runtime.restart_aggregator)
    runtime.start()
    engine.run_until(t0 + 130.0)
    for site in runtime.sites.values():
        site.stop_sources(drain=True)
    drain_cap = engine.sim.now + 1800.0
    while runtime.in_pipe() and engine.sim.now < drain_cap:
        engine.run_until(engine.sim.now + 10.0)
    assert runtime.in_pipe() == 0
    engine.run_until(engine.sim.now + runtime.job.watermark_lag + 30.0)
    runtime.stop()
    engine.run_until(engine.sim.now + runtime.job.finalize_grace + 60.0)

    assert runtime.aggregator_crashes == 1
    ingested = runtime.records_ingested()
    counted = runtime.records_in_results()
    late_dropped = sum(
        site.aggregator.late_dropped for site in runtime.sites.values()
    )
    abandoned = sum(
        site.shipping.records_abandoned
        for site in runtime.sites.values()
    )
    explained = (
        runtime.records_shed()
        + late_dropped
        + runtime.aggregator.late_partial_records
        + abandoned
    )
    assert ingested > 0
    assert counted + explained == ingested
    # Exactly-once at the sink: no (window, key) emitted twice, even
    # though the drop window forced every lost batch through a retry.
    slots = [(r.window, r.key) for r in runtime.results]
    assert len(set(slots)) == len(slots)
    retries = sum(
        site.shipping.retries for site in runtime.sites.values()
    )
    assert retries > 0  # the fault window actually bit
