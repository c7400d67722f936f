"""Closed windows as columns, from the site's window close to the result.

A site's ``advance_watermark`` hands out one ``PartialBlock``; the batcher
cuts it, the WAN carries it and the global aggregator merges it in one
pass, keyed by ``(start, end, key)`` tuples. These tests hold that path
to the per-partial merge it replaced (``tests/_merge_oracle.py``), show
that no ``Record``, ``PartialAggregate`` or ``Window`` hash is paid per
(window, key) on the way, and pin the aggregator's checkpoint chain to
the bytes the per-partial path wrote.
"""

import gc
import hashlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.checkpoint import CheckpointStore
from repro.obs.lineage import BatchTrace, SiteLeg, WindowLineage
from repro.streaming import results as results_module
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import (
    PartialAggregate,
    PartialBlock,
    builtin_aggregate,
)
from repro.streaming.runtime import GeoStreamRuntime, GlobalAggregator, WindowResult
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window
from tests._merge_oracle import ReferenceAggregator
from tests.test_streaming_merge import SITES, _engine
from tests.test_streaming_merge import _job as _shared_key_job

#: Delivering origins; "" is a batch without an origin (merged as site
#: "?", never deduplicated).
ORIGINS = ("NEU", "WEU", "EUS", "NUS", "")


@pytest.fixture(scope="module")
def engine():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    eng.stop()
    return eng


def _job(aggregate: str) -> StreamJob:
    return StreamJob(
        name="columns",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=1.0)])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate(aggregate),
        finalize_grace=4.0,
    )


def _disjoint_key_job() -> StreamJob:
    """Three sites with 64 keys each, none shared: every result is one
    site's partial, with one leg."""
    job = _shared_key_job()
    job.sites = [
        SiteSpec(region, [PoissonSource(
            f"s-{region}", rate=150.0,
            keys=[f"{region}-k{i:02d}" for i in range(64)],
        )])
        for region in SITES
    ]
    return job


def _row(result) -> str:
    """Everything a result carries, floats by repr (NaN-safe, bit-exact),
    the legs' trace sets included."""
    legs = result.lineage.legs
    return repr((
        result.window, result.key, result.value, result.record_count,
        result.sites, result.emitted_at, result.epoch, result.lineage,
        [leg._seen for leg in legs],
    ))


def _blob(payload: dict, keys) -> str:
    return json.dumps({k: payload[k] for k in keys}, separators=(",", ":"))


def _batch(now, base, aggregate, shared, origin, seq, form, rows, traced):
    """A delivered batch of partials for windows ``base + 10 w``: one per
    ``(w, k, records, value)`` row, as a block or a record list, with a
    trace whose one hop arrived now when ``traced``."""
    windows = [Window(base + 10.0 * w, base + 10.0 * w + 10.0) for w in range(3)]
    partials = []
    for w, k, n, value in rows:
        key = f"k{k}" if shared else f"{origin or 'x'}-k{k}"
        state = (n, value * n) if aggregate == "mean" else value
        partials.append(PartialAggregate(windows[w], key, state, n))
    if form == "list":
        payload = [
            Record(pa.window.end, pa.key, pa, origin, 120.0) for pa in partials
        ]
    else:
        payload = PartialBlock(
            [pa.window.start for pa in partials],
            [pa.window.end for pa in partials],
            [pa.key for pa in partials],
            [pa.state for pa in partials],
            np.array([pa.count for pa in partials], dtype=np.int64),
            np.full(len(partials), 120.0),
        )
    batch = Batch(payload, origin, created_at=now, seq=seq)
    if traced:
        batch.trace = BatchTrace.stamp(origin, seq, now - 1.0)
        hop = batch.trace.begin_hop(f"{origin}->NUS", "sage", now - 0.5)
        hop.arrived_at = now
    return batch


_VALUES = st.sampled_from([0.0, -0.0, 1.5, -2.25, 7.0, 1e300, float("nan")])

_OPS = st.one_of(
    # origin, form, partial rows (window, key, records, value), traced
    st.tuples(
        st.just("batch"),
        st.integers(0, len(ORIGINS) - 1),
        st.sampled_from(["block", "list"]),
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 3),
                      st.integers(1, 9), _VALUES),
            min_size=1, max_size=8,
        ),
        st.booleans(),
    ),
    st.tuples(st.just("again"), st.integers(0, 10_000)),
    # A retry hop lands on an already-delivered batch, which then
    # arrives once more: the legs it built must keep their attempt count.
    st.tuples(st.just("retry"), st.integers(0, 10_000)),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 4.0, 6.0, 15.0])),
    st.tuples(st.just("save")),
    st.tuples(st.just("restore")),
)


@pytest.mark.parametrize("aggregate", ["mean", "max"])
@settings(max_examples=150, deadline=None)
@given(
    n_sites=st.integers(1, 4),
    shared=st.booleans(),
    ops=st.lists(_OPS, min_size=1, max_size=40),
)
def test_property_columnar_merge_equals_per_partial_merge(
    engine, aggregate, n_sites, shared, ops
):
    job = _job(aggregate)
    sim = engine.sim
    live = [GlobalAggregator(engine, job), ReferenceAggregator(engine, job)]
    for agg in live:
        agg.exactly_once = True
    # Results that left through a commit, per side, across restores.
    committed: list[list] = [[], []]
    base = (sim.now // 10.0 + 1.0) * 10.0
    seqs: dict[str, int] = {}
    sent: list[Batch] = []
    saved = None

    def deliver(batch):
        for agg in live:
            agg.deliver(batch)

    for op in ops:
        kind = op[0]
        if kind == "batch":
            _, o, form, rows, traced = op
            origin = ORIGINS[o % n_sites] if o < len(ORIGINS) - 1 else ""
            seq = seqs[origin] = seqs.get(origin, -1) + 1
            batch = _batch(
                sim.now, base, aggregate, shared, origin, seq, form, rows, traced
            )
            sent.append(batch)
            deliver(batch)
        elif kind in ("again", "retry") and sent:
            batch = sent[op[1] % len(sent)]
            if kind == "retry" and batch.trace is not None:
                batch.trace.begin_hop("retry", "sage", sim.now)
            deliver(batch)
        elif kind == "advance":
            engine.run_until(sim.now + op[1])
        elif kind == "save":
            payloads = [agg.checkpoint() for agg in live]
            keys = list(payloads[1])
            assert _blob(payloads[0], keys) == _blob(payloads[1], keys)
            assert [payloads[0]["counters"][c] for c in (
                "late_partials", "late_partial_records", "duplicates_dropped"
            )] == [live[1].late_partials, live[1].late_partial_records,
                   live[1].duplicates_dropped]
            store = CheckpointStore()
            store.save("aggregator", payloads[0], sim.now)
            saved = store.load("aggregator")
        elif kind == "restore" and saved is not None:
            # Crash both mid-run; boot each from the last checkpoint.
            fresh = [GlobalAggregator(engine, job), ReferenceAggregator(engine, job)]
            for side, (old, new) in enumerate(zip(live, fresh)):
                committed[side] += old.results
                old.crashed = True
                new.exactly_once = True
                new.restore(json.loads(json.dumps(saved)))
            live = fresh
    engine.run_until(sim.now + 20.0)
    for agg in live:
        agg.checkpoint()
    columnar, reference = (
        [_row(r) for r in committed[side] + live[side].results]
        for side in (0, 1)
    )
    assert columnar == reference
    for agg in live:
        agg.crashed = True


def test_a_list_of_partial_records_merges_like_the_same_block(engine):
    job = _job("mean")
    base = (engine.sim.now // 10.0 + 1.0) * 10.0
    window = Window(base, base + 10.0)
    partials = [
        PartialAggregate(window, f"k{i % 5}", (i + 1, 0.5 * i), i + 1)
        for i in range(12)
    ]
    records = [
        Record(window.end, pa.key, pa, size_bytes=120.0) for pa in partials
    ]
    block = PartialBlock.from_records(records)
    assert len(block) == 12 and block.total_bytes == 12 * 120.0
    assert repr(block.to_records()) == repr(records)
    first = GlobalAggregator(engine, job)
    second = GlobalAggregator(engine, job)
    for agg, payload in ((first, records), (second, block)):
        batch = Batch(payload, "NEU", created_at=engine.sim.now, seq=0)
        batch.trace = BatchTrace.stamp("NEU", 0, engine.sim.now)
        agg.deliver(batch)
    assert json.dumps(first.checkpoint()) == json.dumps(second.checkpoint())
    engine.run_until(engine.sim.now + 5.0)
    assert len(first.results) == 5
    assert [_row(r) for r in first.results] == [_row(r) for r in second.results]


def _count_result_objects(monkeypatch) -> dict[str, int]:
    """Count every ``WindowResult``, ``WindowLineage`` and ``SiteLeg``
    built from now on, through any of their constructors."""
    counts = {"WindowResult": 0, "WindowLineage": 0, "SiteLeg": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for cls in (WindowResult, WindowLineage, SiteLeg):
        monkeypatch.setattr(cls, "__init__", counting(cls.__name__, cls.__init__))
    monkeypatch.setattr(
        results_module, "_new_result",
        counting("WindowResult", results_module._new_result),
    )
    monkeypatch.setattr(
        results_module, "new_lineage",
        counting("WindowLineage", results_module.new_lineage),
    )
    of_batch = SiteLeg.of_batch.__func__
    monkeypatch.setattr(
        SiteLeg, "of_batch", classmethod(counting("SiteLeg", of_batch))
    )
    return counts


def test_a_run_builds_no_record_partial_or_window_hash_per_window_key(monkeypatch):
    counts = {"Record": 0, "PartialAggregate": 0, "Window.__hash__": 0,
              "Window": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(Record, "__init__", counting("Record", Record.__init__))
    monkeypatch.setattr(
        PartialAggregate, "__init__",
        counting("PartialAggregate", PartialAggregate.__init__),
    )
    monkeypatch.setattr(
        Window, "__hash__", counting("Window.__hash__", Window.__hash__)
    )
    monkeypatch.setattr(Window, "__init__", counting("Window", Window.__init__))
    objects = _count_result_objects(monkeypatch)
    engine = _engine()
    runtime = GeoStreamRuntime(
        engine, _shared_key_job(), SageShipping.factory(n_nodes=2)
    )
    runtime.enable_checkpointing(interval=15.0)
    runtime.run_for(60.0)
    built = dict(counts)
    assert objects["WindowResult"] == objects["WindowLineage"] == 0
    # Every row merged three sites' partials: the merge built their
    # legs (and checkpoints a leg per pending row), the row keeps them.
    legs = objects["SiteLeg"]
    result = runtime.results[0]
    assert objects == {"WindowResult": 1, "WindowLineage": 1, "SiteLeg": legs}
    assert len(result.lineage.legs) == result.sites == 3
    results = runtime.results
    windows = len({r.window.start for r in results})
    assert len(results) == 64 * windows and {r.sites for r in results} == {3}
    assert built["Record"] == built["PartialAggregate"] == 0
    assert built["Window.__hash__"] == 0
    # A few Windows per window — one per site close, per finalize event
    # and per checkpoint of an open window — never one per key (64).
    assert built["Window"] <= 8 * windows


def test_results_are_built_only_when_read(monkeypatch):
    """With obs off, a run of one-site rows keeps no result object:
    indexing one row builds one result, one lineage and its one leg."""
    def alive() -> list[int]:
        gc.collect()
        counts = Counter(type(o).__name__ for o in gc.get_objects())
        return [counts[name] for name in objects]

    objects = _count_result_objects(monkeypatch)
    before = alive()
    engine = _engine()
    runtime = GeoStreamRuntime(
        engine, _disjoint_key_job(), SageShipping.factory(n_nodes=2)
    )
    runtime.run_for(60.0)
    assert objects == {"WindowResult": 0, "WindowLineage": 0, "SiteLeg": 0}
    assert alive() == before
    assert len(runtime.results) == 3 * 64 * 5  # windows [30, 80)
    result = runtime.results[-1]
    assert objects == {"WindowResult": 1, "WindowLineage": 1, "SiteLeg": 1}
    assert result.sites == len(result.lineage.legs) == 1


#: sha256 of every aggregator checkpoint the crash-and-restore run of
#: ``tests/test_streaming_merge.py`` saves (3 sites, 64 shared keys, 12
#: saves, 384 pending rows with their lineage legs), recorded at the
#: commit before closed windows became columns:
#:
#:     PYTHONPATH=src python -m tests.test_streaming_merge_columns
AGGREGATOR_CHAIN_SHA256 = (
    "a07a6ad9c9e1bcf1b718f33556fae5fb0588bc684d434d321ac555f31712e144"
)


class _RecordingStore(CheckpointStore):
    def __init__(self):
        super().__init__()
        self.chain: list[str] = []

    def save(self, name, payload, now=0.0):
        if name == "aggregator":
            self.chain.append(json.dumps(payload, separators=(",", ":")))
        return super().save(name, payload, now)


def _aggregator_chain_sha256() -> str:
    engine = _engine()
    runtime = GeoStreamRuntime(
        engine, _shared_key_job(), SageShipping.factory(n_nodes=2)
    )
    store = _RecordingStore()
    runtime.enable_checkpointing(store=store, interval=15.0)
    t0 = engine.sim.now
    engine.sim.schedule(62.0, runtime.crash_aggregator)
    engine.sim.schedule(71.0, runtime.restart_aggregator)
    runtime.start()
    engine.run_until(t0 + 150.0)
    for site in runtime.sites.values():
        site.stop_sources()
    engine.run_until(engine.sim.now + 40.0)
    runtime.stop()
    engine.run_until(engine.sim.now + 40.0)
    assert len(store.chain) == 12
    return hashlib.sha256("\n".join(store.chain).encode()).hexdigest()


def test_aggregator_checkpoint_chain_is_the_per_partial_paths_byte_for_byte():
    assert _aggregator_chain_sha256() == AGGREGATOR_CHAIN_SHA256


if __name__ == "__main__":
    print(_aggregator_chain_sha256())
