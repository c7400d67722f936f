"""Unit + property tests for operators and mergeable aggregates."""

import hashlib
import itertools
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


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean"])
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


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean"])
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
#: min/max; large magnitudes that cancel for the sums (a pairwise
#: or reordered sum rounds differently).
_EDGE_VALUES = {
    "extremes": [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0],
    "cancelling": [1e16, -1e16, 1.0, -3.0, 0.1, 1e8, -0.0],
}


def _columns(agg, states):
    """Python states as a kernel's columns: one per component of zero()."""
    zero = agg.zero()
    if not isinstance(zero, tuple):
        return [np.array(states, dtype=np.asarray(zero).dtype)]
    return [
        np.array([s[c] for s in states], dtype=np.asarray(z).dtype)
        for c, z in enumerate(zero)
    ]


def _rows(columns):
    """A kernel's columns back as Python states (tuples of components)."""
    if len(columns) == 1:
        return columns[0].tolist()
    return list(zip(*(c.tolist() for c in columns)))


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
    folded = _rows(agg.fold_groups(_columns(agg, states), values, starts, lengths_arr))
    assert len(folded) == len(lengths)
    for state, lo, size, got in zip(states, starts.tolist(), lengths, folded):
        chain = state
        for v in values[lo:lo + size].tolist():
            chain = agg.add(chain, v)
        # min and max included: NaN and +-0.0 ties come out alike.
        assert repr(got) == repr(tuple(chain) if name == "mean" else chain)


@pytest.mark.parametrize("name", ["sum", "mean"])
def test_fold_groups_reads_each_packed_row_at_its_own_length(name):
    # Ten groups pack into one 2-D accumulate. A -0.0 sum is the one value
    # the pack's zero padding changes (-0.0 + 0.0 is 0.0), so reading the
    # short first row past its length would turn it into 0.0.
    agg = builtin_aggregate(name)
    lengths = np.array([1] + [3] * 9, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
    values = np.full(int(lengths.sum()), -0.0)
    prior = -0.0 if name == "sum" else (0, -0.0)
    columns = _columns(agg, [prior] * len(lengths))
    folded = _rows(agg.fold_groups(columns, values, starts, lengths))
    for got, size in zip(folded, lengths.tolist()):
        chain = prior
        for v in [-0.0] * size:
            chain = agg.add(chain, v)
        assert repr(got) == repr(chain)


#: Floats every ordering question hangs on: NaN, both zeros, both
#: infinities and a few finite values.
_ORDERED = st.sampled_from([math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -2.5])


@pytest.mark.parametrize("name", ["min", "max"])
@given(
    values=st.lists(st.one_of(_ORDERED, st.floats()), min_size=1, max_size=12),
    cuts=st.lists(st.integers(0, 12), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_property_min_max_agree_per_record_batch_and_merge_order(name, values, cuts):
    # NaN propagates and -0.0 orders below +0.0, so one answer comes out of
    # the per-record add chain, the window fold's column kernel, and the
    # merge of the partials of any split of the values in every order.
    agg = builtin_aggregate(name)

    def chain(vals, state=None):
        state = agg.zero() if state is None else state
        for v in vals:
            state = agg.add(state, v)
        return state

    expected = repr(chain(values))
    batched = WindowedAggregator(TumblingWindows(10.0), agg)
    batched.process_batch(_batch([1.0] * len(values), values=values))
    (partial,) = batched.advance_watermark(10.0).to_records()
    assert repr(partial.value.state) == expected
    bounds = sorted({0, len(values), *(c for c in cuts if c <= len(values))})
    parts = [chain(values[a:b]) for a, b in zip(bounds, bounds[1:])]
    for order in itertools.permutations(parts):
        merged = order[0]
        for state in order[1:]:
            merged = agg.merge(merged, state)
        assert repr(merged) == expected
        merged = order[-1]
        for state in reversed(order[:-1]):
            merged = agg.merge(state, merged)
        assert repr(merged) == expected


# ----------------------------------------------------------------------
# WindowedAggregator
# ----------------------------------------------------------------------
def test_windowed_aggregation_emits_on_watermark():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("sum"))
    for t in (1.0, 5.0, 9.0, 11.0):
        wa.process(rec(t, value=2.0))
    assert len(wa.advance_watermark(5.0)) == 0  # window not closed yet
    out = wa.advance_watermark(10.0).to_records()
    assert len(out) == 1
    pa = out[0].value
    assert isinstance(pa, PartialAggregate)
    assert pa.state == pytest.approx(6.0)
    assert pa.count == 3
    out2 = wa.advance_watermark(20.0).to_records()
    assert out2[0].value.state == pytest.approx(2.0)


def test_windowed_aggregation_per_key():
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    wa.process(rec(1.0, key="a"))
    wa.process(rec(2.0, key="b"))
    wa.process(rec(3.0, key="a"))
    out = wa.advance_watermark(10.0).to_records()
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


def test_two_sources_alternating_on_one_site_number_each_key_once(monkeypatch):
    # A site with two sources hands the fold their two key tables in
    # turn: each table's remap is built the first time it is seen, not
    # again at every switch, and every key gets one id.
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))
    numbered = []
    key_id = wa._key_id
    monkeypatch.setattr(wa, "_key_id", lambda key: numbered.append(key) or key_id(key))
    tables = (("a", "b", "c"), ("c", "d"))
    for tick in range(20):
        keys = tables[tick % 2]
        wa.process_batch(
            RecordBatch(
                np.full(2, tick * 0.25),
                np.array([0, len(keys) - 1]),
                np.ones(2),
                np.full(2, 200.0),
                keys,
                "NEU",
            )
        )
    out = wa.advance_watermark(10.0).to_records()
    assert numbered == ["a", "b", "c", "c", "d"]
    assert wa._names == ["a", "b", "c", "d"]
    assert [(r.key, r.value.count) for r in out] == [("a", 10), ("c", 20), ("d", 10)]


def test_fold_hashes_no_window_and_reads_slots_back_in_key_order(monkeypatch):
    # State is columns indexed by window number and key id: neither
    # holding nor folding a batch hashes a Window. Slots read back in
    # (window, key) order, whatever order the keys arrived in, across
    # batches whose key tables differ.
    hashes = [0]
    generated = Window.__hash__

    def counting(self):
        hashes[0] += 1
        return generated(self)

    records = [
        rec(t, key=f"k{k}", value=float(k))
        for t in (1.0, 2.0, 12.0)
        for k in (3, 1, 0, 2)
    ]
    wa = WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("mean"))
    monkeypatch.setattr(Window, "__hash__", counting)
    wa.process_batch(RecordBatch.from_records(records[:6]))
    wa.process_batch(RecordBatch.from_records(records[6:]))
    wa._flush()
    wa.process_batch(RecordBatch.from_records(records[:6]))
    wa.process_batch(RecordBatch.from_records(records[6:]))
    wa._flush()
    assert hashes[0] == 0
    monkeypatch.undo()
    slots = wa.snapshot()["slots"]
    assert [row[:3] for row in slots] == sorted(row[:3] for row in slots)
    assert slots[0] == [0.0, 10.0, "k0", (4, 0.0), 4]
    assert slots[-1] == [10.0, 20.0, "k3", (2, 6.0), 2]
    assert wa.open_windows == 2
    out = wa.advance_watermark(10.0).to_records()
    assert [(r.key, r.value.state, r.value.count) for r in out] == [
        (f"k{k}", (4, 4.0 * k), 4) for k in range(4)
    ]
    assert wa.open_windows == 1


# ----------------------------------------------------------------------
# process_batch against process, the per-record reference
# ----------------------------------------------------------------------
def _open_state(agg):
    """Everything a fold leaves behind, floats by repr (bit-exact)."""
    slots = [
        (start, end, key, repr(state), count)
        for start, end, key, state, count in agg.snapshot()["slots"]
    ]
    return slots, agg.records_seen, agg.late_dropped


@pytest.mark.parametrize("name", ["count", "sum", "min", "max", "mean"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_property_process_batch_equals_per_record_process(name, data):
    # A sequence of steps, each mirrored record by record on a reference
    # aggregator: batches with unordered event times and different key
    # tables (held, then folded by fold_groups), batches of integer
    # values (columnarized
    # as float64), a string value that from_records refuses, the
    # watermark advancing at arbitrary points (so parts of later batches
    # are late), snapshot -> restore into a fresh aggregator mid-hold,
    # reads of the fold state, and a hold bound small enough to be
    # crossed mid-sequence. Event times may be negative, and a span of
    # 55 s puts up to six 10 s windows in one flush.
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    # A narrow span and few keys make groups long enough for the
    # summation order inside one (window, key) fold to show.
    span = data.draw(st.sampled_from([4.0, 30.0, 55.0]), label="time span")
    origin = data.draw(st.sampled_from([0.0, -25.0]), label="earliest time")
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
        return WindowedAggregator(TumblingWindows(10.0), builtin_aggregate(name))

    def draw_records(integers):
        keys = data.draw(
            st.sampled_from(
                [["a"], ["a", "b"], ["c", "b", "a"], ["d", "a"], ["e", "c"]]
            )
        )
        value = st.integers(-1000, 1000) if integers else finite
        return data.draw(
            st.lists(
                st.builds(
                    rec,
                    st.floats(origin, origin + span, allow_nan=False),
                    st.sampled_from(keys),
                    value,
                ),
                min_size=1,
                max_size=40,
            ),
            label="records",
        )

    reference, batched = aggregator(), aggregator()
    watermark = origin
    with mock.patch.object(operators, "HOLD_RECORDS", bound):
        for step in [*steps, "read", "close all", "read"]:
            if step in ("advance", "close all"):
                if step == "advance":
                    watermark += data.draw(st.floats(0.0, span / 2), label="advance by")
                else:
                    watermark += span + 20.0
                closed = batched.advance_watermark(watermark).to_records()
                expected = reference.advance_watermark(watermark).to_records()
                assert repr(closed) == repr(expected)
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
    assert batched.open_windows == 0


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
    assert len(wa.advance_watermark(5.0)) == 0
    assert len(wa.advance_watermark(10.0 - 1e-9)) == 0
    assert wa._held is held and len(held) == 1 and wa._held_n == 2
    monkeypatch.undo()
    wa._folded = dict(wa._folded)
    out = wa.advance_watermark(10.0).to_records()
    assert [(r.value.window, r.value.state) for r in out] == [(Window(0.0, 10.0), 5.0)]
    assert wa._next_close == 20.0  # recomputed from what stayed open
    out = wa.advance_watermark(20.0).to_records()
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
        assert len(batched.advance_watermark(tick - 1.0)) == 0
        assert batched._held_n < HOLD_RECORDS
        peak = max(peak, batched._held_n)
        for record in batch.iter_records():
            reference.process(record)
    assert peak > HOLD_RECORDS - 500  # the bound, not a close, did the flushing
    assert batched._folded  # ... at least once already
    assert _open_state(batched) == _open_state(reference)
    assert repr(batched.advance_watermark(3600.0).to_records()) == repr(
        reference.advance_watermark(3600.0).to_records()
    )


# ----------------------------------------------------------------------
# Pinned fold results: sha256 of snapshot() and of the emitted partials
# ----------------------------------------------------------------------
#: (records per second, seconds, watermark lag or None) per phase: 900/s
#: reaches the hold bound inside one 10 s window and closes with a flush
#: over two; 25 s at 40/s with no watermark holds three windows at once.
_PIN_PHASES = ((900, 12, 2.0), (40, 25, None), (300, 15, 2.0))


def _pinned_run(aggregate, restore_at=None):
    """The 64-key Poisson stream through one aggregator (restored from a
    JSON round trip of its snapshot after tick ``restore_at``); returns
    the sha256 of its last snapshot and of every partial it emitted."""
    rng = np.random.default_rng(2024)
    keys = tuple(f"k{i:02d}" for i in range(64))
    wa = WindowedAggregator(TumblingWindows(10.0), aggregate)
    out = []
    tick = 0
    for rate, seconds, lag in _PIN_PHASES:
        for _ in range(seconds):
            n = int(rng.poisson(rate))
            wa.process_batch(
                RecordBatch(
                    np.sort(rng.uniform(tick, tick + 1, n)),
                    rng.integers(0, len(keys), n),
                    rng.normal(20.0, 5.0, n),
                    np.full(n, 200.0),
                    keys,
                    "NEU",
                )
            )
            tick += 1
            if tick == restore_at:
                payload = json.loads(json.dumps(wa.snapshot()))
                wa = WindowedAggregator(TumblingWindows(10.0), aggregate)
                wa.restore(payload)
            if lag is not None:
                out += wa.advance_watermark(tick - lag).to_records()
    snapshot = json.dumps(wa.snapshot())
    out += wa.advance_watermark(tick + 10.0).to_records()
    partials = json.dumps(
        [
            [p.value.window.start, p.value.window.end, p.key, p.value.state,
             p.value.count]
            for p in out
        ]
    )
    return (
        hashlib.sha256(snapshot.encode()).hexdigest(),
        hashlib.sha256(partials.encode()).hexdigest(),
    )


_MEAN_PINS = (
    "a87209b4592dbb29b24706ad6805b52861102f1ced0f1fdbf0adcd2ebcb4100b",
    "eec0679e4dc88c2030c874be25f5c70989c7da0544482906e3c98cd9a032918f",
)


def test_pinned_fold_of_a_64_key_stream():
    assert _pinned_run(builtin_aggregate("mean")) == _MEAN_PINS


def test_pinned_fold_restored_from_a_mid_window_snapshot():
    # Tick 15 is mid-window and mid-hold: the snapshot folds the hold in,
    # and the restored aggregator ends where the uninterrupted one did.
    assert _pinned_run(builtin_aggregate("mean"), restore_at=15) == _MEAN_PINS

