"""Window assigners for event-time aggregation."""

from __future__ import annotations

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
    """Fixed, non-overlapping windows of one length."""

    def __init__(self, length: float) -> None:
        if length <= 0:
            raise ValueError("window length must be positive")
        self.length = length

    def assign(self, event_time: float) -> list[Window]:
        start = (event_time // self.length) * self.length
        return [Window(start, start + self.length)]

    def assign_starts(self, event_times: np.ndarray) -> np.ndarray:
        """Vectorized window starts, bit-identical to :meth:`assign`.

        The scalar path computes ``(t // length) * length`` with
        CPython float floor-division, which is *not* ``floor(t /
        length)``: CPython derives the quotient from ``fmod`` and
        applies a half-ulp correction, so e.g. large ``t`` just below a
        window boundary can floor differently than naive division.
        This replicates that algorithm (for the non-negative operands
        the stream plane uses) so both planes bucket every record into
        the same window.
        """
        length = self.length
        mod = np.fmod(event_times, length)
        div = (event_times - mod) / length
        floordiv = np.floor(div)
        # CPython rounds the reconstructed quotient to the nearest
        # integer when it lands within half a unit — mirror it.
        floordiv[(div - floordiv) > 0.5] += 1.0
        if np.any(event_times < 0.0):
            # Negative event times take CPython's sign-correction
            # branch; defer to the scalar path for exactness.
            neg = event_times < 0.0
            floordiv[neg] = [
                t // length for t in event_times[neg].tolist()
            ]
            return floordiv * length
        return floordiv * length
