"""Unit tests for batching policies and the batcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.batching import (
    AdaptiveBatchPolicy,
    Batcher,
    BatchPolicy,
    HybridBatchPolicy,
    SizeBatchPolicy,
    TimeBatchPolicy,
)
from repro.streaming.events import Record
from repro.streaming.records import ChunkedBacklog, RecordBatch


def rec(t, size=100.0):
    return Record(event_time=t, key="k", value=1.0, size_bytes=size)


def test_size_policy():
    p = SizeBatchPolicy(1000.0)
    assert not p.should_flush(999.0, 5, 100.0)
    assert p.should_flush(1000.0, 5, 0.0)
    with pytest.raises(ValueError):
        SizeBatchPolicy(0.0)


def test_time_policy():
    p = TimeBatchPolicy(2.0)
    assert not p.should_flush(1e9, 5, 1.9)
    assert p.should_flush(1.0, 1, 2.0)
    with pytest.raises(ValueError):
        TimeBatchPolicy(-1.0)


def test_hybrid_policy_either_fires():
    p = HybridBatchPolicy(1000.0, 2.0)
    assert p.should_flush(1000.0, 1, 0.0)
    assert p.should_flush(1.0, 1, 2.0)
    assert not p.should_flush(500.0, 1, 1.0)


def test_adaptive_policy_follows_link():
    thr = {"v": 1_000_000.0}
    p = AdaptiveBatchPolicy(lambda: thr["v"], target_occupancy=0.5,
                            max_delay=5.0, min_bytes=1000.0)
    assert p.current_threshold() == 500_000.0
    thr["v"] = 100.0  # link collapsed → clamp to min
    assert p.current_threshold() == 1000.0
    thr["v"] = float("nan")  # unmonitored → conservative
    assert p.current_threshold() == 1000.0
    assert p.should_flush(0.0, 0, 5.0)  # staleness bound regardless


def test_adaptive_policy_validation():
    with pytest.raises(ValueError):
        AdaptiveBatchPolicy(lambda: 1.0, target_occupancy=0.0)


def test_batcher_flushes_on_size():
    b = Batcher(SizeBatchPolicy(250.0), origin="NEU")
    assert b.offer(rec(0.0), now=0.0) is None
    assert b.offer(rec(0.1), now=0.1) is None
    batch = b.offer(rec(0.2), now=0.2)
    assert batch is not None
    assert batch.count == 3
    assert batch.origin == "NEU"
    assert b.buffered_count == 0


def test_batcher_flushes_on_age_via_tick():
    b = Batcher(TimeBatchPolicy(2.0), origin="NEU")
    b.offer(rec(0.0), now=0.0)
    assert b.maybe_flush(now=1.0) is None
    batch = b.maybe_flush(now=2.5)
    assert batch is not None
    assert batch.oldest_event_time == 0.0


def test_batcher_forced_flush_and_seq():
    b = Batcher(SizeBatchPolicy(1e9), origin="X")
    assert b.flush(now=0.0) is None  # empty
    b.offer(rec(0.0), now=0.0)
    b1 = b.flush(now=1.0)
    b.offer(rec(2.0), now=2.0)
    b2 = b.flush(now=3.0)
    assert (b1.seq, b2.seq) == (0, 1)
    assert b.batches_cut == 2


def test_batch_properties():
    b = Batcher(SizeBatchPolicy(1e9), origin="X")
    b.offer(rec(5.0, size=100), now=5.0)
    b.offer(rec(3.0, size=200), now=5.5)
    batch = b.flush(now=6.0)
    assert batch.size_bytes == 300.0
    assert batch.oldest_event_time == 3.0
    assert batch.created_at == 6.0


def test_empty_batch_rejected():
    from repro.streaming.events import Batch

    with pytest.raises(ValueError):
        Batch([], "X", 0.0)


# ----------------------------------------------------------------------
# Column blocks: offer_many(RecordBatch) must cut exactly where
# per-record offer does, and the hand-built surfaces keep working.
# ----------------------------------------------------------------------
def _first_flush_per_element(policy, cum_bytes, start_count, oldest_age):
    """The reference ``first_flush``: ask ``should_flush`` per element."""
    for i, buffered in enumerate(cum_bytes.tolist()):
        if policy.should_flush(buffered, start_count + i + 1, oldest_age):
            return i
    return len(cum_bytes)


class _CountOrBytesPolicy(BatchPolicy):
    """A user policy whose ``first_flush`` asks ``should_flush`` per element."""

    def should_flush(self, buffered_bytes, buffered_count, oldest_age) -> bool:
        return (
            buffered_count >= 7
            or buffered_bytes >= 2500.0
            or oldest_age >= 1.5
        )

    first_flush = _first_flush_per_element


_POLICIES = {
    "size": lambda: SizeBatchPolicy(1800.0),
    "time": lambda: TimeBatchPolicy(1.0),
    "hybrid": lambda: HybridBatchPolicy(2200.0, 1.0),
    "adaptive": lambda: AdaptiveBatchPolicy(
        lambda: 3000.0, target_occupancy=0.5, max_delay=1.0, min_bytes=100.0
    ),
    "custom": _CountOrBytesPolicy,
}

_record = st.tuples(
    st.floats(0.5, 900.0, allow_nan=False),  # size: non-integer floats
    st.sampled_from(["a", "b", "c", "d"]),
    st.one_of(st.floats(-5.0, 5.0, allow_nan=False), st.integers(-3, 3)),
)
_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.5]),  # virtual time advance
        st.lists(_record, max_size=25),  # records ingested this step
        st.integers(1, 30),  # drain budget (splits backlog chunks)
        st.booleans(),  # timer tick after the drain?
    ),
    min_size=1,
    max_size=12,
)


def _cuts(batches):
    return [(b.seq, b.count, b.size_bytes, b.created_at) for b in batches]


@pytest.mark.parametrize("policy", sorted(_POLICIES))
@settings(max_examples=60, deadline=None)
@given(steps=_steps, chunk_records=st.integers(1, 9))
def test_column_blocks_cut_exactly_like_per_record_offers(
    policy, steps, chunk_records
):
    columnar = Batcher(_POLICIES[policy](), origin="NEU")
    reference = Batcher(_POLICIES[policy](), origin="NEU")
    backlog = ChunkedBacklog(chunk_records)
    col_out, ref_out = [], []
    now, event_time = 0.0, 0.0
    for advance, records, budget, tick in steps:
        now += advance
        if records:
            emitted = []
            for size, key, value in records:
                event_time += 0.01
                emitted.append(Record(event_time, key, value, "NEU", size))
            # Each emission has its own key table (and int values become
            # float64, equal to the reference's ints).
            backlog.extend(RecordBatch.from_records(emitted))
        for chunk in backlog.pop_upto(budget):
            col_out += columnar.offer_many(chunk, now)
            ref_out += reference.offer_many(chunk.to_records(), now)
        if tick:
            col_out += filter(None, [columnar.maybe_flush(now)])
            ref_out += filter(None, [reference.maybe_flush(now)])
        assert columnar.buffered_count == reference.buffered_count
        assert columnar.buffered_bytes == reference.buffered_bytes
    col_out += filter(None, [columnar.flush(now)])
    ref_out += filter(None, [reference.flush(now)])
    assert _cuts(col_out) == _cuts(ref_out)
    assert all(isinstance(b.records, RecordBatch) for b in col_out)
    assert [b.records.to_records() for b in col_out] == [
        b.records for b in ref_out
    ]
    assert columnar.records_buffered == reference.records_buffered


@pytest.mark.parametrize("policy", sorted(_POLICIES))
@pytest.mark.parametrize("age", [0.0, 0.99, 1.0, 1.5, 7.0])
def test_first_flush_overrides_agree_with_the_per_element_default(policy, age):
    # Thresholds hit exactly (>= must fire), never, and on element 0.
    p = _POLICIES[policy]()
    for cum in ([100.0, 1500.0, 1800.0, 2200.0, 2500.0], [1.0, 2.0], [9e9]):
        cum = np.array(cum)
        for start in (0, 6):
            assert p.first_flush(cum, start, age) == _first_flush_per_element(
                p, cum, start, age
            )


def test_batcher_refuses_to_mix_payload_kinds():
    block = RecordBatch.from_records([rec(0.0), rec(0.1)])
    b = Batcher(SizeBatchPolicy(1e9), origin="X")
    b.offer_many(block, now=0.0)
    assert b.buffered_count == 2
    with pytest.raises(TypeError):
        b.offer(rec(0.2), now=0.0)
    b = Batcher(SizeBatchPolicy(1e9), origin="X")
    b.offer(rec(0.0), now=0.0)
    with pytest.raises(TypeError):
        b.offer_many(block, now=0.0)


def test_hand_built_batches_fix_count_and_bytes_once():
    from repro.streaming.events import Batch

    records = [rec(5.0, size=100.5), rec(3.0, size=200.25)]
    as_list = Batch(records, "X", 0.0, seq=3)
    as_columns = Batch(RecordBatch.from_records(records), "X", 0.0, seq=3)
    for batch in (as_list, as_columns):
        assert batch.count == 2
        assert batch.size_bytes == 300.75
        assert batch.oldest_event_time == 3.0
    with pytest.raises(ValueError):
        Batch(RecordBatch.empty("X"), "X", 0.0)
