"""Unit + property tests for window assigners and watermark edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.events import Record
from repro.streaming.operators import WindowedAggregator, builtin_aggregate
from repro.streaming.windows import TumblingWindows, Window


def test_window_validation():
    with pytest.raises(ValueError):
        Window(5.0, 5.0)  # zero-length
    with pytest.raises(ValueError):
        Window(5.0, 4.0)  # negative-length
    w = Window(0.0, 10.0)
    assert w.length == 10.0
    assert w.contains(0.0) and w.contains(9.999)
    assert not w.contains(10.0)


def test_tumbling_assignment():
    t = TumblingWindows(10.0)
    assert t.assign(0.0) == [Window(0.0, 10.0)]
    assert t.assign(9.999) == [Window(0.0, 10.0)]
    assert t.assign(10.0) == [Window(10.0, 20.0)]
    assert t.assign(25.0) == [Window(20.0, 30.0)]


def test_tumbling_validation():
    with pytest.raises(ValueError):
        TumblingWindows(0.0)


@given(st.floats(min_value=0.0, max_value=1e7))
@settings(max_examples=100, deadline=None)
def test_property_tumbling_covers_every_instant(t):
    w = TumblingWindows(7.5).assign(t)
    assert len(w) == 1
    assert w[0].contains(t)


# ----------------------------------------------------------------------
# Watermark edge cases in the windowed aggregator
# ----------------------------------------------------------------------
def _rec(t, key="k", value=1.0):
    return Record(event_time=t, key=key, value=value, origin="NEU")


def _agg():
    return WindowedAggregator(TumblingWindows(10.0), builtin_aggregate("count"))


def test_arrival_exactly_at_the_watermark_is_not_late():
    # Lateness is strict: an event *at* the watermark still belongs to a
    # window the watermark has not passed ([wm, wm+10) is still open).
    agg = _agg()
    agg.advance_watermark(10.0)
    agg.process(_rec(10.0))
    assert agg.late_dropped == 0
    # A hair of event time earlier is strictly behind: dropped.
    agg.process(_rec(10.0 - 1e-9))
    assert agg.late_dropped == 1
    out = agg.advance_watermark(20.0)
    assert len(out) == 1 and out[0].value.window == Window(10.0, 20.0)
    assert out[0].value.count == 1  # the late record never entered


def test_backlog_delayed_watermark_closes_windows_in_order():
    # A site whose watermark was held back by backlog releases several
    # windows in one jump; they must come out ordered by (window, key)
    # so downstream latency attribution stays monotone.
    agg = _agg()
    for t, key in [(25.0, "b"), (3.0, "a"), (17.0, "a"), (3.5, "b"),
                   (25.5, "a"), (17.5, "b")]:
        agg.process(_rec(t, key=key))
    assert agg.open_windows == 3
    out = agg.advance_watermark(100.0)
    assert [(r.value.window.start, r.key) for r in out] == [
        (0.0, "a"), (0.0, "b"),
        (10.0, "a"), (10.0, "b"),
        (20.0, "a"), (20.0, "b"),
    ]
    # Each partial is stamped with its window close, not the jump time.
    assert [r.event_time for r in out] == [10.0, 10.0, 20.0, 20.0, 30.0, 30.0]
    assert agg.open_windows == 0


def test_watermark_cannot_move_backwards():
    agg = _agg()
    agg.advance_watermark(30.0)
    with pytest.raises(ValueError, match="backwards"):
        agg.advance_watermark(29.0)
    agg.advance_watermark(30.0)  # staying put is fine


def test_window_closes_when_watermark_equals_end_plus_lateness():
    agg = _agg()
    agg.process(_rec(5.0))
    assert agg.advance_watermark(10.0 - 1e-9) == []
    out = agg.advance_watermark(10.0)  # close condition is <=
    assert len(out) == 1
    assert out[0].value.count == 1
