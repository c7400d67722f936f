"""Unit + property tests for operators and mergeable aggregates."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import operators
from repro.streaming.events import Record
from repro.streaming.operators import (
    HOLD_RECORDS,
    AggregateFn,
    FilterOperator,
    MapOperator,
    PartialAggregate,
    WindowedAggregator,
    builtin_aggregate,
)
from repro.streaming.records import RecordBatch
from repro.streaming.windows import TumblingWindows, Window


def rec(t, key="k", value=1.0):
    return Record(event_time=t, key=key, value=value)


# ----------------------------------------------------------------------
# Simple operators
# ----------------------------------------------------------------------
def test_map_operator():
    op = MapOperator(lambda r: Record(r.event_time, r.key, r.value * 2))
    out = op.process(rec(1.0, value=3.0))
    assert out[0].value == 6.0


def test_map_operator_can_drop():
    op = MapOperator(lambda r: None)
    assert op.process(rec(1.0)) == []


def test_filter_operator():
    op = FilterOperator(lambda r: r.value > 0)
    assert op.process(rec(1.0, value=5.0))
    assert op.process(rec(1.0, value=-5.0)) == []


# ----------------------------------------------------------------------
# Built-in aggregates
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,values,expected",
    [
        ("count", [1.0, 2.0, 3.0], 3),
        ("sum", [1.0, 2.0, 3.0], 6.0),
        ("min", [4.0, 1.0, 3.0], 1.0),
        ("max", [4.0, 1.0, 3.0], 4.0),
        ("mean", [2.0, 4.0, 6.0], 4.0),
        ("var", [2.0, 4.0, 6.0], 8.0 / 3.0),
    ],
)
def test_builtin_aggregates_sequential(name, values, expected):
    agg = builtin_aggregate(name)
    state = agg.zero()
    for v in values:
        state = agg.add(state, v)
    assert agg.result(state) == pytest.approx(expected)


def test_unknown_aggregate():
    with pytest.raises(ValueError):
        builtin_aggregate("median")


values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50
)


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean", "var"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_merge_equals_sequential(name, data):
    """merge(partial(A), partial(B)) == partial(A ++ B) — the invariant
    geo-distributed partial aggregation rests on."""
    a = data.draw(values_strategy)
    b = data.draw(values_strategy)
    agg = builtin_aggregate(name)

    def fold(vals):
        s = agg.zero()
        for v in vals:
            s = agg.add(s, v)
        return s

    merged = agg.merge(fold(a), fold(b))
    direct = fold(a + b)
    assert agg.result(merged) == pytest.approx(
        agg.result(direct), rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean", "var"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_property_merge_commutative(name, data):
    a = data.draw(values_strategy)
    b = data.draw(values_strategy)
    agg = builtin_aggregate(name)

    def fold(vals):
        s = agg.zero()
        for v in vals:
            s = agg.add(s, v)
        return s

    ab = agg.merge(fold(a), fold(b))
    ba = agg.merge(fold(b), fold(a))
    assert agg.result(ab) == pytest.approx(agg.result(ba), rel=1e-9, abs=1e-9)


#: Values that expose the fold order: +-0.0 ties, infinities and NaN for
#: min/max; large magnitudes that cancel for the sums and var (a pairwise
#: or reordered sum rounds differently).
_EDGE_VALUES = {
    "extremes": [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0],
    "cancelling": [1e16, -1e16, 1.0, -3.0, 0.1, 1e8, -0.0],
}


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_fold_groups_equals_the_add_chain_per_group(name, data):
    agg = builtin_aggregate(name)
    if data.draw(st.booleans(), label="skewed"):
        singletons = data.draw(st.integers(1, 40), label="singletons")
        lengths = data.draw(st.permutations([2000] + [1] * singletons))
    else:
        lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pool = np.array(
        _EDGE_VALUES["extremes" if name in ("min", "max") else "cancelling"]
    )
    n = sum(lengths)
    values = np.where(
        rng.random(n) < 0.7, rng.choice(pool, n), rng.normal(0.0, 1e3, n)
    )
    # Prior states as a restore hands them over: a few values folded in,
    # then through JSON, so tuples come back as lists.
    states = []
    for _ in lengths:
        state = agg.zero()
        for v in rng.choice(pool, rng.integers(0, 4)).tolist():
            state = agg.add(state, v)
        states.append(json.loads(json.dumps(state)))
    if name == "sum":  # a prior -0.0 survives only an exact chain
        states = [-0.0 if i % 3 == 0 else s for i, s in enumerate(states)]
    lengths_arr = np.array(lengths, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths_arr)[:-1])).astype(np.int64)
    folded = agg.fold_groups(list(states), values, starts, lengths_arr)
    assert len(folded) == len(lengths)
    for state, lo, size, got in zip(states, starts.tolist(), lengths, folded):
        group = values[lo:lo + size]
        chain = state
        for v in group.tolist():
            chain = agg.add(chain, v)
        if name in ("min", "max"):
            # The reference is the per-group reduce the window fold used
            # before; Python's min/max keep the first of tied or unordered
            # operands, np.minimum/np.maximum the second or the NaN, so the
            # add chain agrees only where the result is neither 0 nor NaN.
            ufunc = np.minimum if name == "min" else np.maximum
            reduced = float(ufunc.reduce(group, initial=state))
            assert repr(got) == repr(reduced)
            if reduced == reduced and reduced != 0.0:
                assert repr(got) == repr(chain)
        else:
            assert repr(got) == repr(chain)


@pytest.mark.parametrize("name", ["sum", "mean"])
def test_fold_groups_reads_each_packed_row_at_its_own_length(name):
    # Ten groups pack into one 2-D accumulate. A -0.0 sum is the one value
    # the pack's zero padding changes (-0.0 + 0.0 is 0.0), so reading the
    # short first row past its length would turn it into 0.0.
    agg = builtin_aggregate(name)
    lengths = np.array([1] + [3] * 9, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    values = np.full(int(lengths.sum()), -0.0)
    prior = -0.0 if name == "sum" else [0, -0.0]
    folded = agg.fold_groups([prior] * len(lengths), values, starts, lengths)
    for got, size in zip(folded, lengths.tolist()):
        chain = prior
        for v in [-0.0] * size:
            chain = agg.add(chain, v)
        assert repr(got) == repr(chain)


# ----------------------------------------------------------------------
# WindowedAggregator
# ----------------------------------------------------------------------
def test_windowed_aggregation_emits_on_watermark():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("sum"))
    for t in (1.0, 5.0, 9.0, 11.0):
        wa.process(rec(t, value=2.0))
    assert wa.advance_watermark(5.0) == []  # window not closed yet
    out = wa.advance_watermark(10.0)
    assert len(out) == 1
    pa = out[0].value
    assert isinstance(pa, PartialAggregate)
    assert pa.state == pytest.approx(6.0)
    assert pa.count == 3
    out2 = wa.advance_watermark(20.0)
    assert out2[0].value.state == pytest.approx(2.0)


def test_windowed_aggregation_per_key():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    wa.process(rec(1.0, key="a"))
    wa.process(rec(2.0, key="b"))
    wa.process(rec(3.0, key="a"))
    out = wa.advance_watermark(10.0)
    by_key = {r.key: r.value.state for r in out}
    assert by_key == {"a": 2, "b": 1}


def test_late_records_dropped_and_counted():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    wa.advance_watermark(20.0)
    wa.process(rec(25.0))  # ahead of the watermark: kept
    wa.process(rec(5.0))  # behind it: dropped
    assert wa.late_dropped == 1
    assert wa.records_seen == 2


def test_watermark_cannot_regress():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    wa.advance_watermark(50.0)
    with pytest.raises(ValueError):
        wa.advance_watermark(10.0)


def test_open_windows_tracked():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    wa.process(rec(5.0))
    wa.process(rec(15.0))
    assert wa.open_windows == 2
    wa.advance_watermark(30.0)
    assert wa.open_windows == 0


def test_fold_hashes_each_slot_once_and_twice_to_open_it(monkeypatch):
    # One dict holds (state, count) per open slot: a flushed group looks
    # its slot up once, plus one insert when the slot is new. (Two parallel
    # dicts cost four Window hashes per group.) Holding a batch hashes
    # nothing, and batches held together share one lookup per group.
    hashes = [0]
    generated = Window.__hash__

    def counting(self):
        hashes[0] += 1
        return generated(self)

    records = [
        rec(t, key=f"k{k}", value=float(k))
        for t in (1.0, 2.0, 12.0)
        for k in range(4)
    ]
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    monkeypatch.setattr(Window, "__hash__", counting)
    wa.process_batch(RecordBatch.from_records(records[:6]))
    wa.process_batch(RecordBatch.from_records(records[6:]))
    assert hashes[0] == 0  # held, not folded
    wa._flush()
    assert hashes[0] == 2 * 8  # 8 new (window, key) slots
    hashes[0] = 0
    wa.process_batch(RecordBatch.from_records(records[:6]))
    wa.process_batch(RecordBatch.from_records(records[6:]))
    wa._flush()
    assert hashes[0] == 8  # the same 8 groups, slots already open
    monkeypatch.undo()
    slots = wa.snapshot()["slots"]
    assert [row[:3] for row in slots] == sorted(row[:3] for row in slots)
    assert slots[0] == [0.0, 10.0, "k0", (4, 0.0), 4]
    assert slots[-1] == [10.0, 20.0, "k3", (2, 6.0), 2]
    assert wa.open_windows == 2
    out = wa.advance_watermark(10.0)
    assert [(r.key, r.value.state, r.value.count) for r in out] == [
        (f"k{k}", (4, 4.0 * k), 4) for k in range(4)
    ]
    assert wa.open_windows == 1


# ----------------------------------------------------------------------
# process_batch against process, the per-record reference
# ----------------------------------------------------------------------
def _open_state(agg):
    """Everything a fold leaves behind, floats by repr (bit-exact)."""
    slots = sorted(
        (w.start, w.end, key, repr(state), count)
        for (w, key), (state, count) in agg._slots.items()
    )
    return slots, agg.records_seen, agg.late_dropped


#: An aggregate without ``fold_groups``: the window fold runs its ``add``
#: chain group by group, as it does for ``var``.
SUM_OF_SQUARES = AggregateFn(
    "sumsq",
    zero=lambda: 0.0,
    add=lambda s, v: s + float(v) * float(v),
    merge=lambda a, b: a + b,
    result=lambda s: s,
)


@pytest.mark.parametrize(
    "name", ["count", "sum", "min", "max", "mean", "var", "sumsq"]
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_process_batch_equals_per_record_process(name, data):
    # A sequence of steps, each mirrored record by record on a reference
    # aggregator: batches with unordered event times and different key
    # tables (held, then folded by fold_groups or, for var and sumsq, by
    # each group's add chain), batches of integer values (columnarized
    # as float64), a string value that from_records refuses, the
    # watermark advancing at arbitrary points (so parts of later batches
    # are late), snapshot -> restore into a fresh aggregator mid-hold,
    # reads of the fold state, and a hold bound small enough to be
    # crossed mid-sequence.
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    # A narrow span and few keys make groups long enough for the
    # summation order inside one (window, key) fold to show.
    span = data.draw(st.sampled_from([4.0, 30.0]), label="time span")
    bound = data.draw(st.sampled_from([2, 9, HOLD_RECORDS]), label="hold bound")
    steps = data.draw(
        st.lists(
            st.sampled_from(
                [
                    "batch",
                    "batch",
                    "integer batch",
                    "string value",
                    "advance",
                    "restore",
                    "read",
                ]
            ),
            min_size=1,
            max_size=8,
        ),
        label="steps",
    )

    def aggregator():
        aggregate = SUM_OF_SQUARES if name == "sumsq" else builtin_aggregate(name)
        return WindowedAggregator(TumblingWindows(10.0), aggregate)

    def draw_records(integers):
        keys = data.draw(st.sampled_from([["a"], ["a", "b"], ["c", "b", "a"]]))
        value = st.integers(-1000, 1000) if integers else finite
        return data.draw(
            st.lists(
                st.builds(
                    rec,
                    st.floats(0.0, span, allow_nan=False),
                    st.sampled_from(keys),
                    value,
                ),
                min_size=1,
                max_size=40,
            ),
            label="records",
        )

    reference, batched = aggregator(), aggregator()
    watermark = 0.0
    with mock.patch.object(operators, "HOLD_RECORDS", bound):
        for step in [*steps, "read", "close all", "read"]:
            if step in ("advance", "close all"):
                if step == "advance":
                    watermark += data.draw(st.floats(0.0, span / 2), label="advance by")
                else:
                    watermark += span + 20.0
                closed = batched.advance_watermark(watermark)
                assert repr(closed) == repr(reference.advance_watermark(watermark))
            elif step == "restore":
                payload = batched.snapshot()
                batched = aggregator()
                batched.restore(payload)
            elif step == "read":
                assert _open_state(batched) == _open_state(reference)
            elif step == "string value":
                records = draw_records(False)
                records[-1] = rec(records[-1].event_time, value="7.5")
                with pytest.raises(TypeError, match="'7.5'"):
                    RecordBatch.from_records(records)
            else:
                records = draw_records(step == "integer batch")
                for record in records:
                    reference.process(record)
                batched.process_batch(RecordBatch.from_records(records, origin="NEU"))
                assert batched._held_n < bound
            assert batched.records_seen == reference.records_seen
            assert batched.late_dropped == reference.late_dropped
    assert not batched._slots


def _batch(times, key="k", values=None):
    values = [1.0] * len(times) if values is None else values
    return RecordBatch.from_records(
        [rec(t, key, v) for t, v in zip(times, values)], origin="NEU"
    )


def test_advance_below_next_close_touches_neither_hold_nor_slots(monkeypatch):
    class Unscanned(dict):
        def __iter__(self):
            raise AssertionError("advance_watermark scanned the open slots")

    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("sum"))
    wa.process_batch(_batch([11.0, 12.0]))
    wa._flush()  # one folded slot, [10, 20)
    wa.process_batch(_batch([3.0, 14.0], values=[5.0, 7.0]))  # held; opens [0, 10)
    assert wa._next_close == 10.0
    held = wa._held
    wa._folded = Unscanned(wa._folded)
    monkeypatch.setattr(wa, "_flush", lambda: pytest.fail("flushed the hold"))
    assert wa.advance_watermark(5.0) == []
    assert wa.advance_watermark(10.0 - 1e-9) == []
    assert wa._held is held and len(held) == 1 and wa._held_n == 2
    monkeypatch.undo()
    wa._folded = dict(wa._folded)
    out = wa.advance_watermark(10.0)
    assert [(r.value.window, r.value.state) for r in out] == [(Window(0.0, 10.0), 5.0)]
    assert wa._next_close == 20.0  # recomputed from what stayed open
    out = wa.advance_watermark(20.0)
    assert [(r.value.state, r.value.count) for r in out] == [(9.0, 3)]
    assert wa._next_close == math.inf


def test_hold_stays_under_its_bound_in_a_one_hour_window():
    # Nothing can close for an hour, so only the bound flushes: the hold
    # never reaches it, and crossing it repeatedly leaves exactly what
    # folding record by record leaves.
    rng = np.random.default_rng(5)
    keys = ("a", "b", "c")
    batched = WindowedAggregator(TumblingWindows(3600.0), builtin_aggregate("mean"))
    reference = WindowedAggregator(TumblingWindows(3600.0), builtin_aggregate("mean"))
    peak = 0
    for tick in range(60):
        n = 500
        batch = RecordBatch(
            rng.uniform(tick, tick + 1.0, n),
            rng.integers(0, len(keys), n),
            rng.normal(size=n),
            np.full(n, 200.0),
            keys,
            "NEU",
        )
        batched.process_batch(batch)
        assert batched.advance_watermark(tick - 1.0) == []
        assert batched._held_n < HOLD_RECORDS
        peak = max(peak, batched._held_n)
        for record in batch.iter_records():
            reference.process(record)
    assert peak > HOLD_RECORDS - 500  # the bound, not a close, did the flushing
    assert batched._folded  # ... at least once already
    assert _open_state(batched) == _open_state(reference)
    assert repr(batched.advance_watermark(3600.0)) == repr(
        reference.advance_watermark(3600.0)
    )
