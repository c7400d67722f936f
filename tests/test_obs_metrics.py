"""Tests for the metrics half of the observability layer."""

import math

import numpy as np
import pytest

from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
)
from repro.obs.exporters import prometheus_text, summary_table


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def test_counter_accumulates():
    reg = MetricsRegistry()
    c = reg.counter("requests_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    # Same name + labels → same handle.
    assert reg.counter("requests_total") is c


def test_labels_split_series():
    reg = MetricsRegistry()
    a = reg.counter("bytes_total", site="NEU")
    b = reg.counter("bytes_total", site="WEU")
    assert a is not b
    a.inc(10)
    assert b.value == 0
    assert len(reg) == 2


def test_gauge_tracks_envelope():
    reg = MetricsRegistry()
    g = reg.gauge("backlog")
    g.set(5.0)
    g.set(1.0)
    g.set(3.0)
    snap = g.snapshot()
    assert snap.value == 3.0
    assert snap.min == 1.0
    assert snap.max == 5.0
    assert snap.count == 3


def test_histogram_percentiles_match_numpy():
    rng = np.random.default_rng(7)
    values = rng.lognormal(0.0, 1.0, size=500)
    reg = MetricsRegistry()
    h = reg.histogram("latency")
    for v in values:
        h.observe(float(v))
    snap = h.snapshot()
    assert snap.count == 500
    assert snap.sum == pytest.approx(values.sum())
    for q, got in ((50, snap.p50), (95, snap.p95), (99, snap.p99)):
        assert got == pytest.approx(np.percentile(values, q))
    assert h.percentile(75) == pytest.approx(np.percentile(values, 75))


def test_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def test_snapshot_keys_render_labels():
    reg = MetricsRegistry()
    reg.counter("a_total", link="NEU->NUS").inc(4)
    reg.counter("plain").inc()
    snap = reg.snapshot()
    assert snap['a_total{link="NEU->NUS"}'].value == 4
    assert snap["plain"].value == 1


# ----------------------------------------------------------------------
# Null (disabled) path
# ----------------------------------------------------------------------
def test_null_observer_hands_out_shared_singletons():
    assert not NULL_OBSERVER.enabled
    assert NULL_OBSERVER.counter("anything", lbl="x") is NULL_COUNTER
    assert NULL_OBSERVER.gauge("g") is NULL_GAUGE
    assert NULL_OBSERVER.histogram("h") is NULL_HISTOGRAM
    # All no-ops; nothing recorded anywhere.
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(3.0)
    NULL_HISTOGRAM.observe(1.0)
    assert NULL_COUNTER.value == 0.0
    assert math.isnan(NULL_HISTOGRAM.percentile(50))
    assert NULL_OBSERVER.registry.snapshot() == {}
    assert NULL_OBSERVER.export() == {"spans": 0, "series": 0, "flight": 0}


# ----------------------------------------------------------------------
# Exposition formats
# ----------------------------------------------------------------------
def test_prometheus_text_format():
    obs = Observer()
    obs.counter("events_total").inc(3)
    obs.gauge("depth", site="NEU").set(7.0)
    h = obs.histogram("lat_seconds")
    for v in range(1, 101):
        h.observe(float(v))
    text = prometheus_text(obs.registry)
    assert "# TYPE events_total counter" in text
    assert "events_total 3.0" in text
    assert "# TYPE depth gauge" in text
    assert 'depth{site="NEU"} 7.0' in text
    assert "# TYPE lat_seconds summary" in text
    assert 'lat_seconds{quantile="0.5"}' in text
    assert "lat_seconds_count 100" in text


def test_summary_table_renders():
    obs = Observer()
    obs.counter("c").inc(2)
    obs.histogram("h").observe(1.5)
    table = summary_table(obs.registry)
    assert "metric" in table and "c" in table and "h" in table
    assert summary_table(MetricsRegistry()).endswith("(no metrics recorded)")


def test_prometheus_label_values_are_escaped():
    """Backslash, double-quote, and newline per the exposition spec."""
    reg = MetricsRegistry()
    reg.counter("paths_total", path='C:\\tmp\\"x"\nnext').inc()
    text = prometheus_text(reg)
    line = next(
        li for li in text.splitlines() if li.startswith("paths_total{")
    )
    assert line == 'paths_total{path="C:\\\\tmp\\\\\\"x\\"\\nnext"} 1.0'
    # Escaping is single-pass: an already-escaped backslash is not
    # re-escaped into four on export.
    reg2 = MetricsRegistry()
    reg2.counter("x_total", v="\\").inc()
    assert 'x_total{v="\\\\"} 1.0' in prometheus_text(reg2)


def _parse_exposition(text: str) -> tuple[dict[str, str], list[str]]:
    """Reference parse of the text format: samples + TYPE headers."""
    samples: dict[str, str] = {}
    types: list[str] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            types.append(line[len("# TYPE "):])
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = value
    return samples, types


def test_prometheus_round_trip_with_hostile_labels():
    reg = MetricsRegistry()
    reg.counter("req_total", site="NEU", note='say "hi"\\now').inc(4)
    reg.counter("req_total", site="WEU").inc(2)
    reg.gauge("depth", q="a\nb").set(1.5)
    samples, types = _parse_exposition(prometheus_text(reg))
    # One TYPE line per family, even with multiple series.
    assert sorted(types) == ["depth gauge", "req_total counter"]
    assert samples['req_total{note="say \\"hi\\"\\\\now",site="NEU"}'] == "4.0"
    assert samples['req_total{site="WEU"}'] == "2.0"
    assert samples['depth{q="a\\nb"}'] == "1.5"
    # Hostile values never produce raw newlines inside a sample line.
    assert all("\n" not in s for s in samples)


# ----------------------------------------------------------------------
# Histogram percentile edge cases (documented sentinels)
# ----------------------------------------------------------------------
def test_percentile_out_of_range_raises():
    h = MetricsRegistry().histogram("h")
    h.observe(1.0)
    for bad in (-0.1, 100.1, 1000.0):
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(bad)


def test_percentile_empty_histogram_is_nan():
    h = MetricsRegistry().histogram("h")
    assert math.isnan(h.percentile(50))
    snap = h.snapshot()
    assert snap.count == 0
    assert math.isnan(snap.p50) and math.isnan(snap.p99)


def test_percentile_single_sample_returns_it_for_every_q():
    h = MetricsRegistry().histogram("h")
    h.observe(42.0)
    for q in (0.0, 50.0, 95.0, 100.0):
        assert h.percentile(q) == 42.0


def test_percentile_interpolates_between_samples():
    h = MetricsRegistry().histogram("h")
    h.observe(0.0)
    h.observe(10.0)
    assert h.percentile(50) == pytest.approx(5.0)
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 10.0
