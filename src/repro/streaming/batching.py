"""Batching policies: how long to hold partials before crossing the WAN.

Per-record shipping wastes the wide area (each transfer pays chunk
metadata, acknowledgement latency, and a TCP ramp); huge batches add
staleness. Policies decide when the buffered set is "full":

* :class:`SizeBatchPolicy` — flush at a byte threshold;
* :class:`TimeBatchPolicy` — flush at a maximum hold time;
* :class:`HybridBatchPolicy` — whichever fires first (the common default);
* :class:`AdaptiveBatchPolicy` — picks the byte threshold from the current
  link estimate so each batch occupies the pipe for approximately a target
  duration: batches grow when the link is fast (efficiency is cheap) and
  shrink when it is slow (latency already suffers).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.obs.lineage import BatchTrace
from repro.streaming.events import Batch, Record


class BatchPolicy:
    """Decides whether the buffer must be flushed."""

    def should_flush(
        self, buffered_bytes: float, buffered_count: int, oldest_age: float
    ) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def first_flush(
        self, cum_bytes: np.ndarray, start_count: int, oldest_age: float
    ) -> int:  # pragma: no cover - interface
        """First index at which :meth:`should_flush` turns true.

        ``cum_bytes[i]`` is the buffered byte total once element ``i``
        of a column block is appended, ``start_count + i + 1`` the
        buffered count at that point, and ``oldest_age`` the (constant
        within one offer) age of the oldest buffered element. Returns
        ``len(cum_bytes)`` when the policy never fires. The built-in
        policies answer with one ``searchsorted`` on the non-decreasing
        ``cum_bytes``.
        """
        raise NotImplementedError


class SizeBatchPolicy(BatchPolicy):
    def __init__(self, max_bytes: float) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes

    def should_flush(self, buffered_bytes, buffered_count, oldest_age) -> bool:
        return buffered_bytes >= self.max_bytes

    def first_flush(self, cum_bytes, start_count, oldest_age) -> int:
        return int(np.searchsorted(cum_bytes, self.max_bytes, side="left"))


class TimeBatchPolicy(BatchPolicy):
    def __init__(self, max_delay: float) -> None:
        if max_delay <= 0:
            raise ValueError("max_delay must be positive")
        self.max_delay = max_delay

    def should_flush(self, buffered_bytes, buffered_count, oldest_age) -> bool:
        return oldest_age >= self.max_delay

    def first_flush(self, cum_bytes, start_count, oldest_age) -> int:
        return 0 if oldest_age >= self.max_delay else len(cum_bytes)


class HybridBatchPolicy(BatchPolicy):
    def __init__(self, max_bytes: float, max_delay: float) -> None:
        self.size = SizeBatchPolicy(max_bytes)
        self.time = TimeBatchPolicy(max_delay)

    def should_flush(self, buffered_bytes, buffered_count, oldest_age) -> bool:
        return self.size.should_flush(
            buffered_bytes, buffered_count, oldest_age
        ) or self.time.should_flush(buffered_bytes, buffered_count, oldest_age)

    def first_flush(self, cum_bytes, start_count, oldest_age) -> int:
        if oldest_age >= self.time.max_delay:
            return 0
        return self.size.first_flush(cum_bytes, start_count, oldest_age)


class AdaptiveBatchPolicy(BatchPolicy):
    """Link-aware thresholding.

    ``throughput_fn`` returns the current estimated link throughput in
    bytes/s (normally the monitoring agent's estimate for the site's WAN
    link). The byte threshold is ``throughput × target_occupancy`` clamped
    to sane bounds; a hard ``max_delay`` bounds staleness regardless.
    """

    def __init__(
        self,
        throughput_fn: Callable[[], float],
        target_occupancy: float = 0.5,
        max_delay: float = 5.0,
        min_bytes: float = 16_384.0,
        max_bytes: float = 64 * 1024 * 1024.0,
    ) -> None:
        if target_occupancy <= 0:
            raise ValueError("target_occupancy must be positive")
        self.throughput_fn = throughput_fn
        self.target_occupancy = target_occupancy
        self.max_delay = max_delay
        self.min_bytes = min_bytes
        self.max_bytes = max_bytes

    def current_threshold(self) -> float:
        thr = self.throughput_fn()
        if thr != thr or thr <= 0:  # NaN or unmonitored: be conservative
            return self.min_bytes
        return min(self.max_bytes, max(self.min_bytes, thr * self.target_occupancy))

    def should_flush(self, buffered_bytes, buffered_count, oldest_age) -> bool:
        if oldest_age >= self.max_delay:
            return True
        return buffered_bytes >= self.current_threshold()

    def first_flush(self, cum_bytes, start_count, oldest_age) -> int:
        if oldest_age >= self.max_delay:
            return 0
        # The link estimate cannot move inside one offer (virtual time
        # stands still), so the threshold is read once.
        return int(
            np.searchsorted(cum_bytes, self.current_threshold(), side="left")
        )


class Batcher:
    """Buffers records and cuts batches according to a policy.

    Takes its input one kind at a time: ``Record`` objects (hand-built
    partials or raw records) through :meth:`offer` / :meth:`offer_many`,
    or column blocks — a site's closed windows
    (:class:`~repro.streaming.operators.PartialBlock`) or raw records
    (:class:`~repro.streaming.records.RecordBatch`) — through
    ``offer_many(block, now)``. A cut batch carries the kind that was
    buffered; one batcher never mixes them.
    """

    def __init__(self, policy: BatchPolicy, origin: str) -> None:
        self.policy = policy
        self.origin = origin
        self._buffer: list[Record] = []
        #: Buffered column blocks (views into upstream arrays), oldest
        #: first; concatenated once, at cut time.
        self._columns: list = []
        self._buffered_count = 0
        self._buffered_bytes = 0.0
        self._oldest_arrival: float | None = None
        self._seq = 0
        self.batches_cut = 0
        self.records_buffered = 0

    def offer(self, record: Record, now: float) -> Batch | None:
        """Add a record; returns a batch when the policy fires."""
        if self._columns:
            raise TypeError("batcher already holds column blocks")
        self._buffer.append(record)
        self._buffered_count += 1
        self._buffered_bytes += record.size_bytes
        self.records_buffered += 1
        if self._oldest_arrival is None:
            self._oldest_arrival = now
        return self.maybe_flush(now)

    def offer_many(self, records, now: float) -> list[Batch]:
        """Offer records in order; returns every batch the policy cut.

        Semantically identical to calling :meth:`offer` per record —
        the policy is consulted after each append, so batch boundaries
        land exactly where the one-at-a-time path puts them. A column
        block (anything but a list) gets there without touching its
        elements: see :meth:`_offer_columns`.
        """
        if not isinstance(records, list):
            return self._offer_columns(records, now)
        out: list[Batch] = []
        for record in records:
            batch = self.offer(record, now)
            if batch is not None:
                out.append(batch)
        return out

    def _offer_columns(self, block, now: float) -> list[Batch]:
        """Cut a column block where per-element :meth:`offer` would.

        Between two cuts the per-element path adds sizes one by one to
        ``_buffered_bytes`` and asks the policy after each; here the
        same running totals come from one sequential
        ``np.add.accumulate`` (seeded with the bytes already buffered,
        restarted at 0.0 after each cut, so every float equals the
        ``+=`` chain's) and the policy names the first firing index.
        Virtual time stands still inside the call, so the oldest
        element's age is ``now - oldest_arrival`` up to the first cut
        and 0.0 after it.
        """
        if self._buffer:
            raise TypeError("batcher already holds Record objects")
        out: list[Batch] = []
        n = len(block)
        self.records_buffered += n
        start = 0
        while start < n:
            sizes = block.size[start:]
            if self._buffered_bytes:
                cum = np.add.accumulate(
                    np.concatenate(([self._buffered_bytes], sizes)),
                    dtype=np.float64,
                )[1:]
            else:
                cum = np.add.accumulate(sizes, dtype=np.float64)
            if self._oldest_arrival is None:
                self._oldest_arrival = now
            fire_at = self.policy.first_flush(
                cum, self._buffered_count, now - self._oldest_arrival
            )
            fired = fire_at < len(cum)
            take = fire_at + 1 if fired else len(cum)
            self._columns.append(block[start:start + take])
            self._buffered_count += take
            self._buffered_bytes = float(cum[take - 1])
            start += take
            if fired:
                out.append(self.flush(now))
        return out

    def maybe_flush(self, now: float) -> Batch | None:
        """Check the policy (also called on timer ticks)."""
        if not self._buffered_count:
            return None
        age = now - (self._oldest_arrival if self._oldest_arrival is not None else now)
        if self.policy.should_flush(
            self._buffered_bytes, self._buffered_count, age
        ):
            return self.flush(now)
        return None

    def flush(self, now: float) -> Batch | None:
        """Unconditionally cut a batch from whatever is buffered."""
        if not self._buffered_count:
            return None
        columns = self._columns
        payload = type(columns[0]).concat(columns) if columns else self._buffer
        batch = Batch(
            payload,
            self.origin,
            created_at=now,
            seq=self._seq,
            size_bytes=self._buffered_bytes,
        )
        batch.trace = BatchTrace.stamp(self.origin, self._seq, now)
        self._seq += 1
        self.batches_cut += 1
        self._buffer = []
        self._columns = []
        self._buffered_count = 0
        self._buffered_bytes = 0.0
        self._oldest_arrival = None
        return batch

    @property
    def buffered_bytes(self) -> float:
        return self._buffered_bytes

    @property
    def buffered_count(self) -> int:
        return self._buffered_count
