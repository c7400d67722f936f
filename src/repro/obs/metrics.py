"""Metric primitives: counters, gauges, histograms, and their registry.

The instrumentation contract is handle-based: a component asks the
registry for a metric handle *once* (normally at construction time) and
then drives the handle from its hot path. When observability is disabled
the handles are the shared null singletons below, so the hot path costs
one no-op method call and allocates nothing.

Label sets are part of a metric's identity: ``counter("x", site="NEU")``
and ``counter("x", site="WEU")`` are two series of one metric family,
exactly as in the Prometheus data model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

LabelPairs = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelPairs:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricSnapshot:
    """Point-in-time view of one metric series (export format)."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    labels: LabelPairs
    value: float = 0.0  # counter total / gauge last value
    count: int = 0
    sum: float = 0.0
    min: float = math.nan
    max: float = math.nan
    p50: float = math.nan
    p95: float = math.nan
    p99: float = math.nan

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def series_name(self) -> str:
        """Render ``name{label="v",...}`` for tables and exposition."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(
            self.kind, self.name, self.labels, value=self.value
        )


class Gauge:
    """Last-written value, with the min/max envelope seen so far."""

    __slots__ = ("name", "labels", "value", "updates", "low", "high")
    kind = "gauge"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = math.nan
        self.updates = 0
        self.low = math.inf
        self.high = -math.inf

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def snapshot(self) -> MetricSnapshot:
        has = self.updates > 0
        return MetricSnapshot(
            self.kind,
            self.name,
            self.labels,
            value=self.value,
            count=self.updates,
            min=self.low if has else math.nan,
            max=self.high if has else math.nan,
        )


class Histogram:
    """Exact-sample distribution with p50/p95/p99 at snapshot time.

    Samples are kept verbatim (append-only float list): simulation runs
    record thousands of observations, not millions, and exact percentiles
    make the exported numbers directly comparable to the offline numpy
    analysis the experiment tables use.
    """

    __slots__ = ("name", "labels", "values")
    kind = "histogram"

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.labels = labels
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the recorded samples.

        Documented edge cases (tested in ``tests/test_obs_metrics.py``):

        * ``q`` outside ``[0, 100]`` raises :class:`ValueError` — an
          out-of-range quantile is always a caller bug, never data;
        * no samples → ``nan`` (the "no data" sentinel, consistent with
          the empty :class:`MetricSnapshot`);
        * one sample → that sample, for every ``q`` — a degenerate
          distribution has only one value to report;
        * between samples, values interpolate linearly (numpy's default),
          so ``q`` exactly on a sample boundary returns that sample.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
        if not self.values:
            return math.nan
        return float(np.percentile(self.values, q))

    def snapshot(self) -> MetricSnapshot:
        if not self.values:
            return MetricSnapshot(self.kind, self.name, self.labels)
        arr = np.asarray(self.values)
        p50, p95, p99 = np.percentile(arr, (50, 95, 99))
        return MetricSnapshot(
            self.kind,
            self.name,
            self.labels,
            count=int(arr.size),
            sum=float(arr.sum()),
            min=float(arr.min()),
            max=float(arr.max()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Creates, deduplicates and snapshots metric series."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelPairs], Any] = {}

    def _get(self, cls, name: str, labels: dict[str, Any]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1])
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def snapshot(self) -> dict[str, MetricSnapshot]:
        """All series, keyed by their rendered series name."""
        out: dict[str, MetricSnapshot] = {}
        for metric in self._metrics.values():
            snap = metric.snapshot()
            out[snap.series_name()] = snap
        return out


# ----------------------------------------------------------------------
# Disabled path: shared, stateless no-op handles.
# ----------------------------------------------------------------------
class NullCounter:
    __slots__ = ()
    kind = "counter"
    name = ""
    labels: LabelPairs = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(self.kind, self.name, self.labels)


class NullGauge:
    __slots__ = ()
    kind = "gauge"
    name = ""
    labels: LabelPairs = ()
    value = math.nan
    updates = 0
    low = math.inf
    high = -math.inf

    def set(self, value: float) -> None:
        pass

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(self.kind, self.name, self.labels)


class NullHistogram:
    __slots__ = ()
    kind = "histogram"
    name = ""
    labels: LabelPairs = ()
    count = 0
    #: Never appended to: ``observe`` is a no-op, so sharing one list
    #: across all disabled handles is safe.
    values: list[float] = []

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return math.nan

    def snapshot(self) -> MetricSnapshot:
        return MetricSnapshot(self.kind, self.name, self.labels)


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullRegistry:
    """Registry façade that hands out the shared no-op singletons."""

    __slots__ = ()

    def counter(self, name: str, **labels: Any) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, **labels: Any) -> NullHistogram:
        return NULL_HISTOGRAM

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def snapshot(self) -> dict[str, MetricSnapshot]:
        return {}


NULL_REGISTRY = NullRegistry()
