"""The record plane: batches of records as parallel arrays.

A :class:`RecordBatch` carries one chunk of stream records as four
parallel numpy columns — event time ``t``, ``key_idx`` (indices into a
shared per-batch key table), ``value``, and ``size`` — plus the batch's
``origin`` site. Sources emit one batch per tick, operators transform
whole batches (vectorized where possible), and the windowed aggregator
folds grouped slices — a handful of array operations per chunk instead
of one ``Record`` instance, one dict lookup and one method call per
record.

Semantics are those of a record list: a batch is *defined* as
equivalent to the ordered list ``batch.to_records()``, and every
consumer preserves record order, per-record arithmetic (sequential
left-to-right folds), and front-of-chunk admission/backpressure
slicing. What a per-record implementation of the whole pipeline
produced — window results, loss identities, soak digests — is frozen in
``tests/golden/record_plane.json`` and replayed against this plane.

Memory layout:

* ``t``     — float64, event times (non-decreasing within one source
  emission);
* ``key_idx`` — int64 indices into ``keys``, a per-batch tuple of key
  strings (sources with a fixed key universe share one table across
  every batch they emit);
* ``value`` — float64, always: record values are numbers, and
  ``from_records`` refuses anything else;
* ``size``  — float64 record sizes in bytes.

Slicing (``batch[a:b]``) returns array *views* — deferring a rejected
tail or splitting a backlog chunk never copies record data.
"""

from __future__ import annotations

from collections import deque
from numbers import Real
from typing import Iterator

import numpy as np

from repro.streaming.events import Record

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


class RecordBatch:
    """One chunk of stream records in columnar form."""

    __slots__ = ("t", "key_idx", "value", "size", "keys", "origin")

    def __init__(
        self,
        t: np.ndarray,
        key_idx: np.ndarray,
        value: np.ndarray,
        size: np.ndarray,
        keys: tuple[str, ...],
        origin: str = "",
    ) -> None:
        self.t = t
        self.key_idx = key_idx
        self.value = value
        self.size = size
        self.keys = keys
        self.origin = origin

    # -- construction --------------------------------------------------
    @classmethod
    def empty(cls, origin: str = "") -> "RecordBatch":
        return cls(_EMPTY_F, _EMPTY_I, _EMPTY_F, _EMPTY_F, (), origin)

    @classmethod
    def from_records(
        cls, records: list[Record], origin: str | None = None
    ) -> "RecordBatch":
        """Columnarize a record list.

        Values become the float64 ``value`` column: a number of any
        other type is converted, and anything else raises ``TypeError``.
        """
        n = len(records)
        if n == 0:
            return cls.empty(origin or "")
        t = np.fromiter((r.event_time for r in records), np.float64, n)
        size = np.fromiter((r.size_bytes for r in records), np.float64, n)
        table: dict[str, int] = {}
        key_idx = np.fromiter(
            (
                table.setdefault(r.key, len(table))
                for r in records
            ),
            np.int64,
            n,
        )
        values = [r.value for r in records]
        for v in values:
            if type(v) is not float and not isinstance(v, Real):
                raise TypeError(f"record value {v!r} is not a number")
        return cls(
            t,
            key_idx,
            np.asarray(values, dtype=np.float64),
            size,
            tuple(table),
            records[0].origin if origin is None else origin,
        )

    # -- sequence protocol ---------------------------------------------
    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return RecordBatch(
                self.t[idx],
                self.key_idx[idx],
                self.value[idx],
                self.size[idx],
                self.keys,
                self.origin,
            )
        i = int(idx)
        return Record(
            event_time=self.t[i].item(),
            key=self.keys[self.key_idx[i]],
            value=self.value[i].item(),
            origin=self.origin,
            size_bytes=self.size[i].item(),
        )

    def __add__(self, other: "RecordBatch") -> "RecordBatch":
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return RecordBatch.concat([self, other])

    @classmethod
    def concat(cls, batches: "list[RecordBatch]") -> "RecordBatch":
        """Concatenate in order. Empty inputs are skipped and a single
        non-empty input is returned as is (no copy); key tables that
        differ are merged first-seen and the indices remapped."""
        parts = [b for b in batches if len(b)]
        if not parts:
            return batches[0] if batches else cls.empty()
        first = parts[0]
        if len(parts) == 1:
            return first
        keys = first.keys
        if all(b.keys == keys for b in parts):
            key_cols = [b.key_idx for b in parts]
        else:
            lookup = {k: i for i, k in enumerate(keys)}
            key_cols = [first.key_idx]
            for b in parts[1:]:
                remap = np.empty(len(b.keys), dtype=np.int64)
                for j, key in enumerate(b.keys):
                    remap[j] = lookup.setdefault(key, len(lookup))
                key_cols.append(remap[b.key_idx])
            keys = tuple(lookup)
        return cls(
            np.concatenate([b.t for b in parts]),
            np.concatenate(key_cols),
            np.concatenate([b.value for b in parts]),
            np.concatenate([b.size for b in parts]),
            keys,
            next((b.origin for b in parts if b.origin), ""),
        )

    # -- transforms ----------------------------------------------------
    def where(self, mask: np.ndarray) -> "RecordBatch":
        """Records where ``mask`` is True (order preserved)."""
        return RecordBatch(
            self.t[mask],
            self.key_idx[mask],
            self.value[mask],
            self.size[mask],
            self.keys,
            self.origin,
        )

    def with_key(self, key: str) -> "RecordBatch":
        """Rekey every record to one key (zero-copy on data columns)."""
        return RecordBatch(
            self.t,
            np.zeros(len(self.t), dtype=np.int64),
            self.value,
            self.size,
            (key,),
            self.origin,
        )

    def split(self, chunk_records: int) -> Iterator["RecordBatch"]:
        """Yield views of at most ``chunk_records`` records each."""
        n = len(self)
        if n <= chunk_records:
            yield self
            return
        for start in range(0, n, chunk_records):
            yield self[start:start + chunk_records]

    # -- record materialization ----------------------------------------
    def to_records(self) -> list[Record]:
        """The equivalent record list (bit-identical fields)."""
        return list(self.iter_records())

    def iter_records(self) -> Iterator[Record]:
        t, key_idx, value, size = self.t, self.key_idx, self.value, self.size
        keys, origin = self.keys, self.origin
        for i in range(len(t)):
            yield Record(
                event_time=t[i].item(),
                key=keys[key_idx[i]],
                value=value[i].item(),
                origin=origin,
                size_bytes=size[i].item(),
            )

    # -- introspection -------------------------------------------------
    @property
    def first_event_time(self) -> float:
        """Event time of the first (oldest-queued) record."""
        return float(self.t[0])

    @property
    def total_bytes(self) -> float:
        """Sum of ``size`` taken left to right — the float chain a
        per-record ``+=`` produces (``ndarray.sum`` is pairwise and can
        differ in the last bit)."""
        if not len(self.size):
            return 0.0
        return float(np.add.accumulate(self.size, dtype=np.float64)[-1])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecordBatch(n={len(self)}, keys={len(self.keys)}, "
            f"origin={self.origin!r})"
        )


class ChunkedBacklog:
    """A site ingest backlog holding :class:`RecordBatch` chunks.

    Presents *record-count* semantics (``len`` is records, not chunks)
    so overload policies and watermark logic read it like a queue of
    records: ``extend`` appends at the tail,
    ``pop_upto``/``trim_to`` consume/drop from the head, preserving
    record order across chunk boundaries. Oversized batches are split
    into chunks of at most ``chunk_records`` on the way in.
    """

    __slots__ = ("chunk_records", "_chunks", "_count")

    def __init__(self, chunk_records: int = 4096) -> None:
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self.chunk_records = chunk_records
        self._chunks: deque[RecordBatch] = deque()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def extend(self, records: RecordBatch) -> None:
        n = len(records)
        if not n:
            return
        for chunk in records.split(self.chunk_records):
            self._chunks.append(chunk)
        self._count += n

    def pop_upto(self, budget: int) -> list[RecordBatch]:
        """Remove and return up to ``budget`` records from the head.

        The final chunk is split when the budget lands inside it, so
        exactly ``min(budget, len(self))`` records are returned.
        """
        out: list[RecordBatch] = []
        taken = 0
        chunks = self._chunks
        while chunks and taken < budget:
            head = chunks[0]
            room = budget - taken
            if len(head) <= room:
                out.append(chunks.popleft())
                taken += len(head)
            else:
                out.append(head[:room])
                chunks[0] = head[room:]
                taken = budget
        self._count -= taken
        return out

    def trim_to(self, bound: int) -> int:
        """Drop oldest records until at most ``bound`` remain."""
        drop = self._count - bound
        if drop <= 0:
            return 0
        remaining = drop
        chunks = self._chunks
        while remaining > 0:
            head = chunks[0]
            if len(head) <= remaining:
                chunks.popleft()
                remaining -= len(head)
            else:
                chunks[0] = head[remaining:]
                remaining = 0
        self._count = bound
        return drop

    @property
    def first_event_time(self) -> float | None:
        """Event time of the oldest backlogged record."""
        return self._chunks[0].first_event_time if self._chunks else None
