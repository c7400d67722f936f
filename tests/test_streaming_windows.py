"""Unit + property tests for window assigners and watermark edge cases."""

import math

import numpy as np
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


#: Window lengths whose multiples round (1.1, 0.3, 1e-3, 2/3) beside ones
#: whose multiples are exact (7.5, 10, 3600).
_LENGTHS = st.sampled_from([1.1, 0.3, 1e-3, 2.0 / 3.0, 7.5, 10.0, 3600.0])


@st.composite
def _boundary_times(draw):
    """A length, and an event time at, or one float beside, the start of
    one of its windows — where a floor-divided index goes wrong."""
    length = draw(_LENGTHS)
    k = draw(st.integers(-10**6, 10**6))
    t = k * length
    step = draw(st.sampled_from([None, math.inf, -math.inf]))
    return length, t if step is None else math.nextafter(t, step)


@given(_boundary_times())
@settings(max_examples=400, deadline=None)
def test_property_every_record_lands_in_a_window_that_contains_it(case):
    length, t = case
    windows = TumblingWindows(length)
    (window,) = windows.assign(t)
    assert window.contains(t)
    k = windows.index(t)
    # Windows tile: each ends where the next starts.
    assert window == windows.window(k)
    assert windows.window(k + 1).start == window.end
    # The vectorized index and starts are the scalar ones, bit for bit.
    assert windows.indices(np.array([t])).tolist() == [k]
    assert repr(windows.assign_starts(np.array([t]))[0].item()) == repr(window.start)


@given(_LENGTHS, st.lists(st.floats(-1e9, 1e9), min_size=2, max_size=50))
@settings(max_examples=200, deadline=None)
def test_property_window_index_is_monotone_in_event_time(length, times):
    # The fold's one-window shortcut rests on this: when the earliest and
    # the latest record of a flush share a window, so does every record.
    windows = TumblingWindows(length)
    times = np.sort(np.array(times))
    scalar = [windows.index(t) for t in times.tolist()]
    assert scalar == sorted(scalar)
    assert windows.indices(times).tolist() == scalar


def test_multiples_of_1_1_start_their_own_window():
    # 5.5 // 1.1 == 4.0, so floor division put t = 5.5 in [4.4, 5.5).
    windows = TumblingWindows(1.1)
    assert windows.assign(5.5) == [Window(5 * 1.1, 6 * 1.1)]
    assert windows.assign_starts(np.array([5.5])).tolist() == [5.5]


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
    out = agg.advance_watermark(20.0).to_records()
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
    out = agg.advance_watermark(100.0).to_records()
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
    assert len(agg.advance_watermark(10.0 - 1e-9)) == 0
    out = agg.advance_watermark(10.0).to_records()  # close condition is <=
    assert len(out) == 1
    assert out[0].value.count == 1
