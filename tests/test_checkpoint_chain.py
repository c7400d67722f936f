"""The aggregator's append-only checkpoint chain.

A periodic aggregator checkpoint serializes only the ``emitted`` / ``seen``
rows added since the previous durable save; the store appends them to a
chain and ``load`` joins the chain back into one complete payload. These
tests pin that a restart from a chain rebuilds exactly what a restart from
a full snapshot would, that a save's cost is a *count* of new rows, and
that the end-to-end crash scenarios still produce the numbers recorded at
the commit before the chain existed.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.deployment import CloudEnvironment
from repro.config import OverloadConfig, SoakConfig
from repro.core.engine import SageEngine
from repro.flow.checkpoint import CheckpointStore
from repro.obs.lineage import BatchTrace
from repro.scenarios import run_overload, run_soak
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate, builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, GlobalAggregator
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window
from tests.test_checkpoint_restore_schema import _build

ORIGINS = ("NEU", "WEU")


# ----------------------------------------------------------------------
# (a) A restart from the chain == a restart from a full snapshot
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "WEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    return eng


def _job():
    return StreamJob(
        name="chain",
        sites=[
            SiteSpec(region, [PoissonSource(f"s-{region}", rate=1.0)])
            for region in ORIGINS
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("mean"),
        watermark_lag=2.0,
        finalize_grace=4.0,
    )


def _state(agg: GlobalAggregator) -> str:
    """Everything a checkpoint must carry, read straight off the fields."""
    return json.dumps(
        {
            "emitted": sorted(map(list, agg._emitted)),
            "seen": sorted(map(list, agg._seen_batches)),
            "pending": agg._pending_rows(),
            "raw": agg._raw_aggregator.snapshot(),
            "counters": [
                agg.late_partials, agg.late_partial_records,
                agg.raw_records, agg.duplicates_dropped,
            ],
        },
        sort_keys=True,
    )


def _logs_mirror_sets(agg: GlobalAggregator) -> bool:
    return (
        len(agg._emitted_log) == len(agg._emitted)
        and set(agg._emitted_log) == agg._emitted
        and len(agg._seen_log) == len(agg._seen_batches)
        and set(agg._seen_log) == agg._seen_batches
    )


_OPS = st.one_of(
    # (origin, window index, key index, records): a partial for one slot.
    st.tuples(st.just("partial"), st.integers(0, 1), st.integers(0, 5),
              st.integers(0, 2), st.integers(1, 9)),
    # (origin, key index): one raw record at the current event time.
    st.tuples(st.just("raw"), st.integers(0, 1), st.integers(0, 1)),
    # Re-deliver an earlier batch: a duplicate, or a replay after a crash.
    st.tuples(st.just("again"), st.integers(0, 10_000)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 3.0, 6.0, 12.0])),
    st.tuples(st.just("save")),
    st.tuples(st.just("save")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("restart")),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OPS, min_size=5, max_size=60))
def test_restore_from_chain_equals_restore_from_full_snapshot(engine, ops):
    job = _job()
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=1))
    checkpointer = runtime.enable_checkpointing(interval=1e6)
    checkpointer.stop()  # rounds are driven by the "save" op below
    store = runtime.checkpoint_store
    base = (engine.sim.now // 10.0 + 1.0) * 10.0
    next_seq = dict.fromkeys(ORIGINS, 0)
    sent: list[Batch] = []
    throwaway: list[GlobalAggregator] = []

    def send(origin: str, record: Record) -> None:
        now = engine.sim.now
        batch = Batch([record], origin, created_at=now, seq=next_seq[origin])
        batch.trace = BatchTrace.stamp(origin, batch.seq, now)
        next_seq[origin] += 1
        sent.append(batch)
        runtime._deliver(batch)

    for op in ops:
        kind = op[0]
        if kind == "partial":
            _, o, w, k, n = op
            window = Window(base + 10.0 * w, base + 10.0 * w + 10.0)
            pa = PartialAggregate(window, f"k{k}", (n, 1.5 * n), n)
            send(ORIGINS[o], Record(window.end, pa.key, pa, ORIGINS[o], 120.0))
        elif kind == "raw":
            _, o, k = op
            send(ORIGINS[o], Record(engine.sim.now, f"r{k}", 2.0, ORIGINS[o]))
        elif kind == "again" and sent:
            runtime._deliver(sent[op[1] % len(sent)])
        elif kind == "advance":
            engine.run_until(engine.sim.now + op[1])
        elif kind == "crash":
            runtime.crash_aggregator()
        elif kind == "restart":
            runtime.restart_aggregator()
            assert _logs_mirror_sets(runtime.aggregator)
        elif kind == "save" and runtime.aggregator_up:
            live = runtime.aggregator
            checkpointer.run_once()
            assert _logs_mirror_sets(live)
            assert store.cursor("aggregator") == {
                "emitted": len(live._emitted),
                "seen": len(live._seen_batches),
            }
            # Same instant, two ways back: the joined chain, and a full
            # snapshot through its own JSON round trip.
            from_chain = GlobalAggregator(engine, job)
            from_chain.restore(store.load("aggregator"))
            other = CheckpointStore()
            other.save("aggregator", live.checkpoint(), engine.sim.now)
            from_full = GlobalAggregator(engine, job)
            from_full.restore(other.load("aggregator"))
            throwaway += [from_chain, from_full]
            assert _state(from_chain) == _state(from_full)
            assert from_chain._emitted == live._emitted
            assert from_chain._seen_batches == live._seen_batches
            assert _logs_mirror_sets(from_chain)
    # Leave nothing of this example armed on the shared clock.
    runtime.crash_aggregator()
    for agg in throwaway:
        agg.crashed = True
    engine.run_until(engine.sim.now + 30.0)


# ----------------------------------------------------------------------
# (b) Who may extend a chain
# ----------------------------------------------------------------------
def _run_with_store(store, seconds):
    engine, runtime = _build()
    runtime.enable_checkpointing(store=store, interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + seconds)
    return engine, runtime


def test_aggregator_not_restored_from_a_chain_never_extends_it():
    store = CheckpointStore()
    _run_with_store(store, 98.0)
    held = store.cursor("aggregator")
    assert held["emitted"] > 0 and held["seen"] > 0
    # A second job is handed the same store. Its aggregator starts empty:
    # cutting a delta at the held cursor would splice its rows onto the
    # first job's. Its first save must start the chain over instead.
    engine, second = _run_with_store(store, 6.0)
    loaded = store.load("aggregator")
    assert {tuple(r) for r in loaded["seen"]} == second.aggregator._seen_batches
    assert len(loaded["emitted"]) == len(second.aggregator._emitted)
    assert store.cursor("aggregator")["seen"] < held["seen"]
    # ... and from then on it extends its own chain.
    engine.run_until(engine.sim.now + 60.0)
    loaded = store.load("aggregator")
    assert {tuple(r) for r in loaded["seen"]} == second.aggregator._seen_batches
    assert set(map(tuple, loaded["emitted"])) == second.aggregator._emitted


def test_inspection_calls_do_not_move_the_cursor():
    engine, runtime = _build()
    store = runtime.enable_checkpointing(interval=5.0).store
    runtime.start()
    engine.run_until(engine.sim.now + 47.0)
    before = store.cursor("aggregator")
    for _ in range(3):
        runtime.aggregator.checkpoint()  # what perfbench / tests / sage do
        runtime.aggregator.checkpoint(before)
    assert store.cursor("aggregator") == before
    engine.run_until(engine.sim.now + 40.0)
    restored = GlobalAggregator(engine, runtime.job)
    restored.restore(store.load("aggregator"))
    restored.crashed = True
    assert restored._seen_batches <= runtime.aggregator._seen_batches
    assert len(restored._seen_batches) == store.cursor("aggregator")["seen"]
    assert len(restored._seen_batches) > before["seen"]


def test_cursor_ahead_of_the_aggregator_is_not_its_chain():
    engine, runtime = _build()
    agg = runtime.aggregator
    with pytest.raises(ValueError, match="ahead"):
        agg.checkpoint({"emitted": 1, "seen": 0})
    delta = agg.checkpoint({"emitted": 0, "seen": 0})
    assert delta["emitted"] == [] and delta["seen"] == []


def test_a_delta_alone_cannot_be_restored():
    engine, runtime = _build()
    store = runtime.enable_checkpointing(interval=5.0).store
    runtime.start()
    engine.run_until(engine.sim.now + 47.0)
    delta = runtime.aggregator.checkpoint(store.cursor("aggregator"))
    with pytest.raises(ValueError, match="delta"):
        GlobalAggregator(engine, runtime.job).restore(delta)


# ----------------------------------------------------------------------
# (c) Growth is a count: a save serializes the rows added since the last
# ----------------------------------------------------------------------
class _CountingStore(CheckpointStore):
    def __init__(self):
        super().__init__()
        self.rows = []  # (emitted rows, seen rows) per aggregator save

    def save(self, name, payload, now=0.0):
        if name == "aggregator":
            self.rows.append((len(payload["emitted"]), len(payload["seen"])))
        return super().save(name, payload, now)


def test_each_periodic_save_serializes_only_the_rows_added_since_the_last():
    engine, runtime = _build(finalize_grace=20.0)
    store = _CountingStore()
    runtime.enable_checkpointing(store=store, interval=15.0)
    sizes = []  # set sizes at each checkpoint instant
    inner = runtime._checkpoint_aggregator

    def observed():
        payload = inner()
        agg = runtime.aggregator
        sizes.append((len(agg._emitted), len(agg._seen_batches)))
        return payload

    runtime._checkpointer.register("aggregator", observed)
    retained_peak = 0
    runtime.start()
    t0 = engine.sim.now
    for k in range(40):
        engine.run_until(t0 + 15.0 * k + 14.0)  # just before round k + 1
        retained_peak = max(
            retained_peak,
            sum(site.retained_batches for site in runtime.sites.values()),
        )
    engine.run_until(t0 + 600.0)
    assert len(store.rows) == len(sizes) == 40
    previous = (0, 0)
    for rows, size in zip(store.rows, sizes):
        assert rows == (size[0] - previous[0], size[1] - previous[1])
        previous = size
    agg = runtime.aggregator
    assert sum(r[0] for r in store.rows) == len(agg._emitted) > 100
    assert sum(r[1] for r in store.rows) == len(agg._seen_batches) > 100
    # Pruning walks only the new ``seen`` rows, and that is enough: every
    # retained batch goes at the first checkpoint that records it, so no
    # site still holds a batch the chain has recorded — and the retained
    # set stays a few rounds' worth, never the whole history.
    durable = set(agg._seen_log[: store.cursor("aggregator")["seen"]])
    for region, site in runtime.sites.items():
        assert not durable & {(region, seq) for seq in site._retained}
    assert 0 < retained_peak < 40


# ----------------------------------------------------------------------
# (e) The no-argument form is still the parent's full snapshot
# ----------------------------------------------------------------------
PARENT_FULL_PAYLOAD_SHA256 = (
    "90c68e9fc28a688b7fb72f0e3477c1fa18d248e02bf8c12171819c7075d529a4"
)


def test_checkpoint_without_argument_is_the_full_sorted_snapshot():
    engine, runtime = _build()
    runtime.enable_checkpointing(interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + 95.0)
    agg = runtime.aggregator
    payload = agg.checkpoint()
    assert list(payload) == [
        "version", "since", "emitted", "seen", "pending", "raw", "counters",
    ]
    assert payload["version"] == 2
    assert payload["since"] == {"emitted": 0, "seen": 0}
    assert payload["emitted"] == sorted(map(list, agg._emitted))
    assert payload["seen"] == sorted([o, s] for o, s in agg._seen_batches)
    assert all(len(row) == 8 for row in payload["pending"])
    # Byte for byte what the commit before the chain returned here
    # (recorded there: 6 emitted, 18 seen, 12 pending rows).
    parent_keys = {k: v for k, v in payload.items() if k not in ("version", "since")}
    blob = json.dumps(parent_keys, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PARENT_FULL_PAYLOAD_SHA256
    # Side-effect identical too: it commits, and nothing else.
    assert agg.uncommitted == []
    assert agg.checkpoint() == payload


# ----------------------------------------------------------------------
# (d) End to end: the crash scenarios, against values recorded at the
# commit before the chain existed
# ----------------------------------------------------------------------
def _rows_sha256(runtime) -> str:
    rows = sorted(
        (r.window.start, r.window.end, r.key, float(r.value),
         int(r.record_count), r.emitted_at, r.sites)
        for r in runtime.results
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.overload
def test_overload_crash_restores_from_a_chain_with_the_recorded_results(
    monkeypatch,
):
    restarts = []
    restart = GeoStreamRuntime.restart_aggregator

    def spy(self):
        store = self.checkpoint_store
        restarts.append(
            (self, len(store._segments["aggregator"]["seen"]), store.loads)
        )
        restart(self)

    monkeypatch.setattr(GeoStreamRuntime, "restart_aggregator", spy)
    r = run_overload(OverloadConfig(policy="block", seed=2013)).details
    ((runtime, segments, loads_before),) = restarts
    assert segments >= 3
    assert runtime.checkpoint_store.loads == loads_before + 1
    assert r.clean and r.lost == 0
    assert _rows_sha256(runtime) == (
        "976bf277330395590aa4926a805b021623d5806152515d44506774012b8a7a4c"
    )
    assert (
        r.ingested, r.counted, r.results, r.late_dropped,
        r.late_partial_records, r.duplicates_dropped, r.checkpoints,
        r.batches_replayed, r.batches_dropped_while_down, r.retries,
        r.wan_bytes, r.latency.p99, r.latency.mean,
    ) == (
        # checkpoints was 53 until the scripted scenarios took the
        # harness's one quiescence rule: the idle wait before the ticks
        # stop went from lag + 30 s to lag + one window (20 s shorter),
        # so six idle-tail rounds (aggregator + two sites, two rounds)
        # are no longer taken. It measures how long the harness waited;
        # every data-plane number around it is unchanged.
        72358, 72358, 48, 0, 0, 0, 47, 12, 6, 1,
        14640.0, 195.3775443355887, 139.91865080000662,
    )


@pytest.mark.soak
def test_two_hour_soak_with_three_failovers_reproduces_the_recorded_digest():
    res = run_soak(
        SoakConfig(hours=2.0, profile="adversarial", seed=7, failovers=3)
    ).details
    assert res.failovers == 3 and res.slo_violations == 0
    assert res.accounted and res.drained
    assert (res.ingested, res.counted, res.results) == (156803, 156803, 2640)
    assert res.digest == (
        "31f44c553ad37dbe60ced85ddf45b6471a25e2c7fc1bef8cf64b3a95df2048f0"
    )
