"""Bounded metric history with summary statistics.

Each monitored metric keeps its recent samples in a ring buffer. The
history serves two purposes the system description calls out: scientists
profile their application against it after the run, and the decision
engine's self-healing checks look for sustained deviations in it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class MetricPoint:
    """One timestamped observation."""

    time: float
    value: float


class MetricHistory:
    """Ring buffer of :class:`MetricPoint` with windowed statistics."""

    def __init__(self, maxlen: int = 4096) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._points: deque[MetricPoint] = deque(maxlen=maxlen)

    def record(self, time: float, value: float) -> None:
        if self._points and time < self._points[-1].time:
            raise ValueError("history must be recorded in time order")
        self._points.append(MetricPoint(time, value))

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterable[MetricPoint]:
        return iter(self._points)

    @property
    def last(self) -> MetricPoint | None:
        return self._points[-1] if self._points else None

    def values(self, since: float | None = None) -> np.ndarray:
        """Sample values, optionally restricted to ``time >= since``."""
        if since is None:
            return np.array([p.value for p in self._points])
        return np.array([p.value for p in self._points if p.time >= since])

    def times(self, since: float | None = None) -> np.ndarray:
        if since is None:
            return np.array([p.time for p in self._points])
        return np.array([p.time for p in self._points if p.time >= since])

    def mean(self, since: float | None = None) -> float:
        vals = self.values(since)
        return float(vals.mean()) if vals.size else float("nan")

    def std(self, since: float | None = None) -> float:
        vals = self.values(since)
        return float(vals.std()) if vals.size else float("nan")

    def percentile(self, q: float, since: float | None = None) -> float:
        vals = self.values(since)
        return float(np.percentile(vals, q)) if vals.size else float("nan")
