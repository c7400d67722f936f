"""Window results as one columnar table, read through views.

``GeoStreamRuntime`` keeps every emitted result as a row of one
``ResultTable`` with a commit cursor, and builds a ``WindowResult`` only
when a caller reads a row. These tests hold the views and the column
readers to the list-based bookkeeping they replaced
(``tests/_merge_oracle.py``'s ``ReferenceRuntime``) across commits,
crashes and restores, and bound what a run keeps per result.
"""

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.streaming.runtime import GeoStreamRuntime, GlobalAggregator
from repro.streaming.shipping import DirectShipping, SageShipping
from tests._merge_oracle import ReferenceRuntime
from tests.test_streaming_merge import _engine
from tests.test_streaming_merge_columns import (
    _VALUES,
    ORIGINS,
    _batch,
    _disjoint_key_job,
    _job,
    _row,
)


@pytest.fixture(scope="module")
def engine():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    eng.stop()
    return eng

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
    st.tuples(st.just("advance"), st.sampled_from([0.5, 2.0, 4.0, 6.0, 15.0])),
    st.tuples(st.just("save")),
    st.tuples(st.just("crash")),
    st.tuples(st.just("restart")),
    # a flat cursor into the results
    st.tuples(st.just("read"), st.integers(0, 40)),
)


def _rows(results) -> list[str]:
    return [_row(r) for r in results]


def _assert_same(runtime, reference, cursor: int) -> None:
    got, want = runtime.results, reference.results
    assert len(got) == len(want)
    assert _rows(got) == _rows(want)
    assert _rows(got[cursor:cursor + 5]) == _rows(want[cursor:cursor + 5])
    assert _rows(got[::-2]) == _rows(want[::-2])
    if want:
        assert _row(got[cursor % len(want)]) == _row(want[cursor % len(want)])
        assert _row(got[-1]) == _row(want[-1])
    for include in (False, True):
        assert _rows(runtime.results_since(cursor, include)) == _rows(
            reference.results_since(cursor, include)
        )
    assert _rows(runtime.aggregator.results) == _rows(reference.aggregator.results)
    assert _rows(runtime.aggregator.uncommitted) == _rows(
        reference.aggregator.uncommitted
    )
    assert repr(runtime.latency_stats()) == repr(reference.latency_stats())
    assert runtime.lineage_stats() == reference.lineage_stats()
    assert runtime.records_in_results() == reference.records_in_results()


@settings(max_examples=100, deadline=None)
@given(
    n_sites=st.integers(1, 4),
    shared=st.booleans(),
    ops=st.lists(_OPS, min_size=1, max_size=40),
)
def test_property_result_views_equal_the_list_based_runtime(
    engine, n_sites, shared, ops
):
    job = _job("mean")
    sim = engine.sim
    runtime = GeoStreamRuntime(engine, job, DirectShipping.factory())
    # Saves only when an op says so.
    checkpointer = runtime.enable_checkpointing(interval=1e9)
    deliver = runtime.sites["NEU"].deliver
    reference = ReferenceRuntime(engine, job)
    base = (sim.now // 10.0 + 1.0) * 10.0
    seqs: dict[str, int] = {}
    sent = []
    for op in ops:
        kind = op[0]
        if kind == "batch":
            _, o, form, rows, traced = op
            origin = ORIGINS[o % n_sites] if o < len(ORIGINS) - 1 else ""
            seq = seqs[origin] = seqs.get(origin, -1) + 1
            sent.append(_batch(
                sim.now, base, "mean", shared, origin, seq, form, rows, traced
            ))
        if kind == "batch" or (kind == "again" and sent):
            batch = sent[-1] if kind == "batch" else sent[op[1] % len(sent)]
            deliver(batch)
            reference.deliver(batch)
        elif kind == "advance":
            engine.run_until(sim.now + op[1])
        elif kind == "save":
            checkpointer.run_once()
            reference.checkpoint()
        elif kind == "crash":
            runtime.crash_aggregator()
            reference.crash()
        elif kind == "restart" and not runtime.aggregator_up:
            payload = runtime.checkpoint_store.load("aggregator")
            runtime.restart_aggregator()
            reference.restart(
                None if payload is None else json.loads(json.dumps(payload))
            )
        elif kind == "read":
            _assert_same(runtime, reference, op[1])
    engine.run_until(sim.now + 20.0)
    _assert_same(runtime, reference, 0)
    checkpointer.run_once()
    reference.checkpoint()
    _assert_same(runtime, reference, 0)
    runtime.stop()
    runtime.aggregator.crashed = True


def test_views_read_like_lists(engine):
    job = _job("count")
    agg = GlobalAggregator(engine, job)
    assert agg.results == [] and agg.uncommitted == [] and not agg.results
    base = (engine.sim.now // 10.0 + 1.0) * 10.0
    rows = [(0, k, k + 1, k + 1) for k in range(4)]  # count states are ints
    agg.deliver(
        _batch(engine.sim.now, base, "count", True, "NEU", 0, "block", rows, True)
    )
    engine.run_until(engine.sim.now + job.finalize_grace + 1.0)
    results = agg.results
    listed = list(results)
    assert len(results) == 4 and results == listed and listed == results
    assert results[1:3] == listed[1:3] and results[::2] == listed[::2]
    assert results[-1] == listed[-1] and results.index(listed[2]) == 2
    assert results + [] == listed == [] + results
    assert repr(results) == repr(listed)
    # count's result is the merged state as it is: an int stays an int.
    assert [type(r.value) for r in results] == [int] * 4
    with pytest.raises(IndexError):
        results[4]
    with pytest.raises(TypeError):
        hash(results)


def _drop_results(runtime) -> None:
    """Forget every result row, committed or not."""
    table = runtime._table
    table.cursor = 0
    table.truncate()


def test_a_checkpointed_run_keeps_at_most_200_bytes_per_result():
    """3 sites x 64 keys, checkpoints every 15 s: what the results hold
    once the run is over, measured as what dropping them frees."""
    engine = _engine()
    runtime = GeoStreamRuntime(
        engine, _disjoint_key_job(), SageShipping.factory(n_nodes=2)
    )
    runtime.enable_checkpointing(interval=15.0)
    tracemalloc.start()
    try:
        runtime.run_for(120.0)
        results = len(runtime.results)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        _drop_results(runtime)
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert results == 3 * 64 * 11
    assert len(runtime.results) == 0
    assert freed / results <= 200
