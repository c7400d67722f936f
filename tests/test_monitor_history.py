"""Unit tests for metric history."""

import numpy as np
import pytest

from repro.monitor.history import MetricHistory


def test_record_and_stats():
    h = MetricHistory()
    for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
        h.record(float(i), v)
    assert len(h) == 4
    assert h.mean() == pytest.approx(2.5)
    assert h.std() == pytest.approx(np.std([1, 2, 3, 4]))
    assert h.last.value == 4.0


def test_time_order_enforced():
    h = MetricHistory()
    h.record(10.0, 1.0)
    with pytest.raises(ValueError):
        h.record(5.0, 2.0)


def test_since_filter():
    h = MetricHistory()
    for i in range(10):
        h.record(float(i), float(i))
    assert h.mean(since=5.0) == pytest.approx(7.0)
    assert list(h.times(since=8.0)) == [8.0, 9.0]


def test_ring_buffer_caps_memory():
    h = MetricHistory(maxlen=100)
    for i in range(1000):
        h.record(float(i), float(i))
    assert len(h) == 100
    assert h.values().min() == 900.0


def test_percentile():
    h = MetricHistory()
    for i in range(1, 101):
        h.record(float(i), float(i))
    assert h.percentile(50) == pytest.approx(50.5)


def test_empty_history_stats_are_nan():
    h = MetricHistory()
    assert np.isnan(h.mean())
    assert h.last is None


def test_invalid_maxlen():
    with pytest.raises(ValueError):
        MetricHistory(maxlen=0)
