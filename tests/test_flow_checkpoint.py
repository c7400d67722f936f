"""Checkpoint store, periodic checkpointer, and window-state snapshots."""

import math

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.checkpoint import Checkpointer, CheckpointStore
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Record
from repro.streaming.operators import WindowedAggregator, builtin_aggregate
from repro.streaming.records import RecordBatch
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    return eng


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
def test_store_roundtrip_is_a_copy():
    store = CheckpointStore()
    payload = {"a": [1, 2, 3], "b": {"k": 0.5}}
    size = store.save("agg", payload, now=10.0)
    assert size == store.size_bytes("agg") > 0
    loaded = store.load("agg")
    assert loaded == payload
    assert loaded is not payload  # JSON roundtrip: no shared live object
    loaded["a"].append(4)
    assert store.load("agg") == payload


def test_store_tuples_become_lists():
    # Built-in aggregate states use tuples; their closures only index,
    # so the list that comes back is interchangeable.
    store = CheckpointStore()
    store.save("s", {"state": (3, 1.5)})
    assert store.load("s") == {"state": [3, 1.5]}


def test_store_rejects_unserializable_state():
    store = CheckpointStore()
    with pytest.raises(TypeError):
        store.save("bad", {"fn": lambda: None})
    assert "bad" not in store


def test_store_age_and_names():
    store = CheckpointStore()
    assert store.load("missing") is None
    assert math.isinf(store.age("missing", now=5.0))
    store.save("a", {}, now=10.0)
    store.save("b", {}, now=20.0)
    assert store.age("a", now=25.0) == pytest.approx(15.0)
    assert store.names() == ["a", "b"]
    assert "a" in store
    assert store.saves == 2 and store.loads == 0


# ----------------------------------------------------------------------
# CheckpointStore chains: payloads that declare grow-only row lists
# ----------------------------------------------------------------------
def _full(rows, seen, extra=0):
    return {
        "since": {"rows": 0, "seen": 0},
        "rows": rows,
        "seen": seen,
        "state": {"n": extra},
    }


def _delta(since, rows, seen, extra=0):
    return {"since": since, "rows": rows, "seen": seen, "state": {"n": extra}}


def test_store_chain_appends_new_rows_and_overwrites_the_rest():
    store = CheckpointStore()
    assert store.cursor("agg") is None
    first = store.save("agg", _full([[1, "a"], [2, "b"]], [["x", 0]]), now=1.0)
    assert first == store.size_bytes("agg")
    assert store.cursor("agg") == {"rows": 2, "seen": 1}
    second = store.save(
        "agg", _delta({"rows": 2, "seen": 1}, [(3, "c")], [], extra=7), now=2.0
    )
    # A save returns what *it* wrote: the new rows plus the small state,
    # not the chain; the chain is what a restart reads.
    assert second < first
    assert store.size_bytes("agg") == first + second - len('{"state":{"n":0}}')
    assert store.cursor("agg") == {"rows": 3, "seen": 1}
    assert store.seq("agg") == 2 and store.age("agg", now=5.0) == 3.0
    loaded = store.load("agg")
    assert loaded == {
        "since": {"rows": 0, "seen": 0},
        "rows": [[1, "a"], [2, "b"], [3, "c"]],  # the tuple took the JSON trip
        "seen": [["x", 0]],
        "state": {"n": 7},
    }
    # What comes back is one ordinary complete payload: saving it again
    # starts a chain that loads identically.
    other = CheckpointStore()
    other.save("agg", loaded)
    assert other.load("agg") == loaded
    loaded["rows"].append("junk")
    assert len(store.load("agg")["rows"]) == 3  # no shared live object


@pytest.mark.parametrize(
    "since",
    [
        {"rows": 1, "seen": 1},  # behind: would repeat a row
        {"rows": 3, "seen": 1},  # ahead: would leave a gap
        {"rows": 2, "seen": 0},
        {"rows": 2},  # not the chain's logs at all
    ],
)
def test_store_refuses_a_delta_that_does_not_extend_the_chain(since):
    store = CheckpointStore()
    store.save("agg", _full([[1], [2]], [["x", 0]]), now=1.0)
    before = store.load("agg"), store.size_bytes("agg"), store.cursor("agg")
    rows = {key: [[9]] for key in since}
    with pytest.raises(ValueError, match="does not extend"):
        store.save("agg", {"since": since, **rows, "state": {}}, now=2.0)
    assert (
        store.load("agg"), store.size_bytes("agg"), store.cursor("agg")
    ) == before
    assert store.seq("agg") == 1 and store.age("agg", now=2.0) == 1.0
    # Nor is there anything to extend under a name never saved.
    with pytest.raises(ValueError, match="does not extend"):
        store.save("other", {"since": since, **rows, "state": {}})
    assert "other" not in store


def test_store_unserializable_delta_leaves_the_chain_intact():
    store = CheckpointStore()
    store.save("agg", _full([[1]], []))
    before = store.load("agg")
    for bad in (
        _delta({"rows": 1, "seen": 0}, [[2]], [[object(), 1]]),
        {**_delta({"rows": 1, "seen": 0}, [[2]], []), "state": {"f": len}},
    ):
        with pytest.raises(TypeError):
            store.save("agg", bad)
    assert store.load("agg") == before
    assert store.cursor("agg") == {"rows": 1, "seen": 0}


def test_store_complete_payload_replaces_the_chain():
    store = CheckpointStore()
    store.save("agg", _full([[1]], []))
    store.save("agg", _delta({"rows": 1, "seen": 0}, [[2]], [["x", 0]]))
    store.save("agg", _delta({"rows": 2, "seen": 1}, [[3]], []))
    # A zero cursor is a complete snapshot: the chain starts over.
    size = store.save("agg", _full([[8], [9]], []))
    assert size == store.size_bytes("agg")
    assert store.cursor("agg") == {"rows": 2, "seen": 0}
    assert store.load("agg")["rows"] == [[8], [9]]
    # A payload that declares no logs is a plain blob again.
    store.save("agg", {"a": 1})
    assert store.cursor("agg") is None
    assert store.load("agg") == {"a": 1}
    assert store.size_bytes("agg") == len('{"a":1}')
    with pytest.raises(ValueError):
        store.save("agg", _delta({"rows": 2, "seen": 0}, [[3]], []))


# ----------------------------------------------------------------------
# Checkpointer
# ----------------------------------------------------------------------
def test_checkpointer_validation(engine):
    with pytest.raises(ValueError):
        Checkpointer(engine, CheckpointStore(), interval=0.0)


def test_checkpointer_periodic_rounds(engine):
    store = CheckpointStore()
    calls = []
    cp = Checkpointer(engine, store, interval=5.0)
    cp.register("c", lambda: calls.append(1) or {"n": len(calls)})
    cp.start()
    cp.start()  # idempotent
    engine.run_until(engine.sim.now + 26.0)
    assert cp.rounds == 5
    assert len(calls) == 5
    assert store.load("c") == {"n": 5}
    cp.stop()
    engine.run_until(engine.sim.now + 20.0)
    assert cp.rounds == 5  # stopped: no further rounds


def test_checkpointer_none_skips_the_round(engine):
    store = CheckpointStore()
    cp = Checkpointer(engine, store, interval=5.0)
    up = [False]
    cp.register("c", lambda: {"ok": 1} if up[0] else None)
    cp.run_once()
    assert "c" not in store  # component down: round skipped, not crashed
    up[0] = True
    cp.run_once()
    assert store.load("c") == {"ok": 1}


def test_checkpointer_register_last_wins(engine):
    store = CheckpointStore()
    cp = Checkpointer(engine, store, interval=5.0)
    cp.register("c", lambda: {"v": "old"})
    cp.register("c", lambda: {"v": "new"})
    cp.run_once()
    assert store.load("c") == {"v": "new"}
    assert store.saves == 1  # one target, not two


# ----------------------------------------------------------------------
# WindowedAggregator snapshot/restore
# ----------------------------------------------------------------------
def _record(t, key="k", value=1.0):
    return Record(event_time=t, key=key, value=value, origin="NEU")


def test_windowed_aggregator_snapshot_roundtrip():
    agg = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    for t in (1.0, 2.0, 11.0):
        agg.process(_record(t, value=t))
    agg.advance_watermark(5.0)

    store = CheckpointStore()
    store.save("w", agg.snapshot())
    clone = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    clone.restore(store.load("w"))

    assert clone.records_seen == agg.records_seen
    assert clone.open_windows == agg.open_windows == 2
    # The restored state must close windows identically to the original
    # (tuple states come back as lists; the aggregate closures only
    # index, so the finalized results are what must agree).
    mean = agg.aggregate.result
    out_orig = agg.advance_watermark(25.0).to_records()
    out_clone = clone.advance_watermark(25.0).to_records()
    assert [(r.key, mean(r.value.state), r.value.count) for r in out_orig] == [
        (r.key, mean(r.value.state), r.value.count) for r in out_clone
    ]


def test_windowed_aggregator_restore_replaces_watermark():
    agg = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    agg.advance_watermark(50.0)
    snap = agg.snapshot()
    clone = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    clone.restore(snap)
    with pytest.raises(ValueError, match="backwards"):
        clone.advance_watermark(40.0)  # the restored watermark is live
    fresh = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    fresh.restore(fresh.snapshot())  # None watermark roundtrips too
    fresh.advance_watermark(0.0)


def test_windowed_aggregator_restore_drops_the_hold():
    # Batches the fold is holding are volatile state like any other: a
    # snapshot folds them in, a restore forgets whatever came after it.
    agg = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    agg.process_batch(RecordBatch.from_records([_record(1.0), _record(2.0)]))
    assert agg._held_n == 2
    snap = agg.snapshot()
    assert agg._held_n == 0 and snap["slots"] == [[0.0, 10.0, "k", 2, 2]]
    agg.process_batch(RecordBatch.from_records([_record(3.0)]))
    assert agg._held_n == 1
    agg.restore(snap)
    assert agg._held_n == 0 and agg.records_seen == 2
    out = agg.advance_watermark(10.0).to_records()
    assert [(r.value.state, r.value.count) for r in out] == [(2, 2)]


# ----------------------------------------------------------------------
# Crash/restore while the window fold is holding records, end to end
# ----------------------------------------------------------------------
def _streaming(aggregate, **job_kwargs):
    env = CloudEnvironment(seed=21, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=120.0)
    job = StreamJob(
        name="mid-hold",
        sites=[
            SiteSpec("NEU", [PoissonSource("p", rate=50.0, keys=["a", "b"])])
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate(aggregate),
        **job_kwargs,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.start()
    engine.run_until(engine.sim.now + 25.0)  # between two window closes
    return engine, runtime


def _finish(engine, runtime):
    engine.run_until(engine.sim.now + 30.0)
    runtime.stop()
    engine.run_until(engine.sim.now + 60.0)
    return sorted(
        (r.window, r.key, r.value, r.record_count) for r in runtime.results
    )


def test_site_crash_mid_hold_restores_to_the_uncrashed_twins_partials():
    engine, runtime = _streaming("sum")
    twin_engine, twin = _streaming("sum")
    site = runtime.sites["NEU"]
    assert site.aggregator._held_n > 0  # records admitted, not folded yet
    store = CheckpointStore()
    store.save("site/NEU", site.snapshot(), now=engine.sim.now)
    # The crash: the site process and its volatile window state are gone.
    site.aggregator = WindowedAggregator(runtime.job.windows, runtime.job.aggregate)
    site.restore(store.load("site/NEU"))
    results = _finish(engine, runtime)
    assert results and results == _finish(twin_engine, twin)


def test_aggregator_crash_mid_hold_restores_raw_records_from_its_checkpoint():
    engine, runtime = _streaming("count", ship_raw_records=True)
    twin_engine, twin = _streaming("count", ship_raw_records=True)
    for r in (runtime, twin):
        r.enable_checkpointing(interval=1000.0)  # rounds by hand only
    raw = runtime.aggregator._raw_aggregator
    held = raw._held_n
    assert held > 0  # raw records delivered, not folded yet
    folded = sum(int(cols.count.sum()) for cols in raw._folded.values())
    runtime._checkpointer.run_once()
    saved = runtime.checkpoint_store.load("aggregator")["raw"]
    assert sum(row[4] for row in saved["slots"]) == folded + held
    runtime.crash_aggregator()
    runtime.restart_aggregator()
    results = _finish(engine, runtime)
    assert results and results == _finish(twin_engine, twin)
