"""Window assigners for event-time aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Window:
    """A half-open event-time interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("window end must be after start")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class TumblingWindows:
    """Fixed, non-overlapping windows of one length.

    Window ``k`` is ``[k * length, (k + 1) * length)``, both bounds the
    float products, so consecutive windows share a bound and tile the
    line. An event time belongs to the window with the largest ``k``
    whose start is ``<= t``: it lies inside that window by construction,
    and the index never decreases as ``t`` grows. (``t // length`` is
    not that index in general — with a length of 1.1, ``5.5 // 1.1`` is
    4.0 — but for lengths whose multiples are exact, such as 7.5, 10, 30
    or 3600 s, the two agree.)
    """

    def __init__(self, length: float) -> None:
        if length <= 0:
            raise ValueError("window length must be positive")
        self.length = length

    def index(self, event_time: float) -> int:
        """Index of the window that contains ``event_time``."""
        length = self.length
        # The correctly rounded quotient floors to the index or one past
        # it, either way: one step down, then one step up, settles it.
        k = math.floor(event_time / length)
        if k * length > event_time:
            k -= 1
        if (k + 1) * length <= event_time:
            k += 1
        return k

    def indices(self, event_times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`index`: the same int64 index per record."""
        length = self.length
        k = np.floor(event_times / length)
        k -= k * length > event_times
        k += (k + 1.0) * length <= event_times
        return k.astype(np.int64)

    def end(self, index: int) -> float:
        """End of window ``index``, the start of the next one."""
        return (index + 1) * self.length

    def window(self, index: int) -> Window:
        return Window(index * self.length, self.end(index))

    def assign(self, event_time: float) -> list[Window]:
        return [self.window(self.index(event_time))]

    def assign_starts(self, event_times: np.ndarray) -> np.ndarray:
        """Vectorized window starts, bit-identical to :meth:`assign`."""
        return self.indices(event_times) * self.length
