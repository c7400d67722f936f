"""Stream operators and mergeable aggregates.

The site-local analysis chain is a list of operators. The last stage is
usually a :class:`WindowedAggregator`, which turns raw records into
*partial aggregates* — the crucial data-reduction step before the wide
area. Partials are mergeable: the global aggregator combines partials from
every site into the exact global result, so shipping partials instead of
raw records loses nothing but volume.

Operators have one protocol: ``process_batch(batch) -> RecordBatch``
transforms one :class:`~repro.streaming.records.RecordBatch` at a time
(vectorized where possible). A function written record by record —
``process(record) -> list[Record]`` — joins a chain through an explicit
:class:`PerRecordAdapter`; the site runtime refuses a bare one.

The window fold has one path: windows are tumbling and values float64,
so every batch is held and each (window, key) group folded by the
aggregate's ``fold_groups``, or else by its own ``add`` chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Protocol

import numpy as np

from repro.streaming.events import Record
from repro.streaming.records import RecordBatch
from repro.streaming.windows import Window


class Operator(Protocol):
    """A batch transformation: one :class:`RecordBatch` in, one out.

    The built-ins also expose ``process(record) -> list[Record]`` with
    identical semantics, as the small pure reference tests compare
    ``process_batch`` against; the runtime never calls it.
    """

    def process_batch(
        self, batch: RecordBatch
    ) -> RecordBatch:  # pragma: no cover
        ...


class PerRecordAdapter:
    """The bridge for an operator written one record at a time.

    Materializes each batch into :class:`Record` objects, runs the
    wrapped operator's ``process`` on every one, and re-columnarizes the
    outputs — the results a native ``process_batch`` must reproduce, at
    one Python object per record. Write hot operators natively.
    """

    def __init__(self, inner) -> None:
        self.inner = inner

    def process(self, record: Record) -> list[Record]:
        return self.inner.process(record)

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        out: list[Record] = []
        process = self.inner.process
        for record in batch.iter_records():
            out.extend(process(record))
        return RecordBatch.from_records(out, origin=batch.origin)


class MapOperator:
    """Apply a function to each record's value (and optionally key).

    ``batch_fn`` is the optional vectorized form (whole
    :class:`RecordBatch` in/out); without it, batches are materialized
    record-by-record through ``fn`` — identical results, slower.
    """

    def __init__(
        self,
        fn: Callable[[Record], Record],
        batch_fn: Callable[[RecordBatch], RecordBatch] | None = None,
    ) -> None:
        self.fn = fn
        self.batch_fn = batch_fn

    def process(self, record: Record) -> list[Record]:
        out = self.fn(record)
        return [out] if out is not None else []

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        if self.batch_fn is not None:
            return self.batch_fn(batch)
        out: list[Record] = []
        fn = self.fn
        for record in batch.iter_records():
            mapped = fn(record)
            if mapped is not None:
                out.append(mapped)
        return RecordBatch.from_records(out, origin=batch.origin)


class FilterOperator:
    """Keep records matching a predicate.

    ``batch_predicate`` is the optional vectorized form: it receives
    the whole :class:`RecordBatch` and returns a boolean mask over its
    records. Without it, the scalar ``predicate`` is applied per
    materialized record.
    """

    def __init__(
        self,
        predicate: Callable[[Record], bool],
        batch_predicate: Callable[[RecordBatch], np.ndarray] | None = None,
    ) -> None:
        self.predicate = predicate
        self.batch_predicate = batch_predicate

    def process(self, record: Record) -> list[Record]:
        return [record] if self.predicate(record) else []

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        if self.batch_predicate is not None:
            mask = np.asarray(self.batch_predicate(batch), dtype=bool)
        else:
            predicate = self.predicate
            mask = np.fromiter(
                (bool(predicate(r)) for r in batch.iter_records()),
                dtype=bool,
                count=len(batch),
            )
        return batch.where(mask)


@dataclass(frozen=True)
class AggregateFn:
    """A mergeable aggregation: zero / add / merge / result.

    ``add`` folds one raw value into a partial state; ``merge`` combines
    two partial states; ``result`` finalises. The merge must be
    associative and commutative — the property-based tests verify this for
    the built-ins.
    """

    name: str
    zero: Callable[[], Any]
    add: Callable[[Any, Any], Any]
    merge: Callable[[Any, Any], Any]
    result: Callable[[Any], Any]
    #: Optional vectorized fold over every group of a flush:
    #: ``fold_groups(states, values, starts, lengths)`` takes one prior
    #: state per group and a float64 array holding the groups back to back
    #: (group ``g`` is ``values[starts[g]:starts[g] + lengths[g]]``, never
    #: empty) and returns the new states, each **bit-identical** to
    #: applying ``add`` left-to-right over its group. Aggregates without
    #: one fold each group through its own ``add`` chain.
    fold_groups: (
        Callable[[list, np.ndarray, np.ndarray, np.ndarray], list] | None
    ) = None


#: Fewer groups than this fold one by one: packing them (a mask, a
#: scatter and a gather) costs a few microseconds whatever its width,
#: more than a few scalar chains.
_MIN_GROUPS = 8


def _seq_sums(
    states: list, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> list[float]:
    # np.add.accumulate is a strictly sequential left-to-right fold
    # (unlike the pairwise np.add.reduce), also along axis 1 of a 2-D
    # array: with each group a row seeded by its prior state in column 0,
    # the row read at its own length is the scalar add-chain bit for bit,
    # and the padding past it never enters a sum.
    rows = len(lengths)
    if rows >= _MIN_GROUPS:
        width = int(lengths.max())
        if rows * width <= 4 * len(values):
            pack = np.zeros((rows, width + 1))
            pack[:, 0] = states
            pack[:, 1:][np.arange(width) < lengths[:, None]] = values
            np.add.accumulate(pack, axis=1, out=pack)
            return pack[np.arange(rows), lengths].tolist()
    # Few groups, or one so long that the pack's padding would outgrow
    # 4x the flush: each group's own chain.
    sums = []
    for state, lo, n in zip(states, starts.tolist(), lengths.tolist()):
        chain = np.empty(n + 1)
        chain[0] = state
        chain[1:] = values[lo:lo + n]
        np.add.accumulate(chain, out=chain)
        sums.append(chain[-1].item())
    return sums


def _reduce_groups(ufunc: np.ufunc) -> Callable[..., list[float]]:
    # Each group prefixed by its prior state and reduced with reduceat:
    # per group that is the reduction ``ufunc.reduce(group, initial=state)``
    # performs (the state as accumulator, then the same inner loop over
    # the same values), so ties of +-0.0 and NaN come out alike.
    def fold(states, values, starts, lengths):
        at = starts + np.arange(len(starts))
        prefixed = np.empty(len(values) + len(starts))
        taken = np.ones(len(prefixed), dtype=bool)
        taken[at] = False
        prefixed[at] = states
        prefixed[taken] = values
        return ufunc.reduceat(prefixed, at).tolist()

    return fold


def _mean_groups(states, values, starts, lengths) -> list[tuple]:
    sums = _seq_sums([s[1] for s in states], values, starts, lengths)
    return [
        (s[0] + n, total)
        for s, n, total in zip(states, lengths.tolist(), sums)
    ]


def builtin_aggregate(name: str) -> AggregateFn:
    """Built-in aggregates: count, sum, mean, min, max, var."""
    if name == "count":
        return AggregateFn(
            "count",
            zero=lambda: 0,
            add=lambda s, v: s + 1,
            merge=lambda a, b: a + b,
            result=lambda s: s,
            fold_groups=lambda states, values, starts, lengths: [
                s + n for s, n in zip(states, lengths.tolist())
            ],
        )
    if name == "sum":
        return AggregateFn(
            "sum",
            zero=lambda: 0.0,
            add=lambda s, v: s + float(v),
            merge=lambda a, b: a + b,
            result=lambda s: s,
            fold_groups=_seq_sums,
        )
    if name == "min":
        return AggregateFn(
            "min",
            zero=lambda: math.inf,
            add=lambda s, v: min(s, float(v)),
            merge=min,
            result=lambda s: s,
            fold_groups=_reduce_groups(np.minimum),
        )
    if name == "max":
        return AggregateFn(
            "max",
            zero=lambda: -math.inf,
            add=lambda s, v: max(s, float(v)),
            merge=max,
            result=lambda s: s,
            fold_groups=_reduce_groups(np.maximum),
        )
    if name == "mean":
        # Partial state: (count, sum).
        return AggregateFn(
            "mean",
            zero=lambda: (0, 0.0),
            add=lambda s, v: (s[0] + 1, s[1] + float(v)),
            merge=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            result=lambda s: s[1] / s[0] if s[0] else float("nan"),
            fold_groups=_mean_groups,
        )
    if name == "var":
        # Partial state: (count, mean, M2) — population variance via the
        # Welford/Chan update. The naive (count, sum, sum-of-squares)
        # state cancels catastrophically when the mean is large relative
        # to the spread, so merged and sequential results diverged.
        return AggregateFn(
            "var",
            zero=lambda: (0, 0.0, 0.0),
            add=_var_add,
            merge=_var_merge,
            result=lambda s: s[2] / s[0] if s[0] else float("nan"),
        )
    raise ValueError(f"unknown aggregate {name!r}")


def _var_add(s: tuple, v: float) -> tuple:
    n, mean, m2 = s
    v = float(v)
    n += 1
    delta = v - mean
    mean += delta / n
    return (n, mean, m2 + delta * (v - mean))


def _add_chains(add, states, values, starts, lengths) -> list:
    # The fold of an aggregate without ``fold_groups``: each group's own
    # scalar ``add`` chain, left to right, so exact by construction.
    folded = []
    for state, lo, n in zip(states, starts.tolist(), lengths.tolist()):
        for v in values[lo:lo + n].tolist():
            state = add(state, v)
        folded.append(state)
    return folded


def _var_merge(a: tuple, b: tuple) -> tuple:
    na, mean_a, m2a = a
    nb, mean_b, m2b = b
    if na == 0:
        return b
    if nb == 0:
        return a
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    return (n, mean, m2a + m2b + delta * delta * na * nb / n)


@dataclass(frozen=True)
class PartialAggregate:
    """Value payload of a partial-aggregate record shipped over the WAN."""

    window: Window
    key: str
    state: Any
    count: int


#: Most records the window fold holds unfolded (beside
#: ``ChunkedBacklog``'s 4 096-record chunks): reaching it flushes, so
#: memory does not grow with window length. Kept this small so a flush's
#: columns (16 KB each) are reused from the heap: at 8 192 the allocator
#: trimmed and re-faulted them every flush (8x the parent's page faults).
HOLD_RECORDS = 2048

#: Wire size of one partial-aggregate record (window, key, state, count).
PARTIAL_RECORD_BYTES = 120.0


class WindowedAggregator:
    """Keyed, windowed aggregation producing mergeable partials.

    Windows close on *watermark*: once the operator has seen (or been
    told) event time past ``window.end``, the window's partial records
    are emitted. Records behind the watermark are counted and dropped —
    the global aggregator must never block on a straggler site's slow
    clock.

    Batches are counted and late-filtered at ingest but only *held*;
    they are folded as one concatenation when a window can close, the
    hold reaches :data:`HOLD_RECORDS`, or the fold state is read. Each
    (window, key) group folds left to right and the sort is stable, so
    that equals folding batch by batch, bit for bit.
    """

    def __init__(self, windows, aggregate: AggregateFn) -> None:
        self.windows = windows
        self.aggregate = aggregate
        #: Folded slots: ``(window, key) -> [state, count]``, updated in
        #: place so a fold hashes its slot once (twice when it opens it).
        self._folded: dict[tuple[Window, str], list] = {}
        #: Admitted batches not folded yet, and how many records they hold.
        self._held: list[RecordBatch] = []
        self._held_n = 0
        #: Earliest ``window.end`` over held records and folded slots: no
        #: window closes below this watermark.
        self._next_close = math.inf
        self.records_seen = 0
        self.late_dropped = 0
        self._watermark = -math.inf

    @property
    def _slots(self) -> dict[tuple[Window, str], list]:
        """Open slots, the hold folded in first."""
        self._flush()
        return self._folded

    def process(self, record: Record) -> list[Record]:
        """Fold a record in; emits nothing (emission is watermark-driven)."""
        self._flush()
        self.records_seen += 1
        if record.event_time < self._watermark:
            self.late_dropped += 1
            return []
        for window in self.windows.assign(record.event_time):
            held = self._open((window, record.key))
            held[0] = self.aggregate.add(held[0], record.value)
            held[1] += 1
        return []

    def _open(self, slot: tuple[Window, str]) -> list:
        """The slot's ``[state, count]``, opened at zero if new."""
        held = self._folded.get(slot)
        if held is None:
            held = self._folded[slot] = [self.aggregate.zero(), 0]
            close = slot[0].end
            if close < self._next_close:
                self._next_close = close
        elif held[0] is None:
            held[0] = self.aggregate.zero()
        return held

    def process_batch(self, batch: RecordBatch) -> RecordBatch:
        """Fold a whole batch in; emits nothing (emission is watermark-driven).

        The batch is held for :meth:`_flush`, which folds it into the
        slots :meth:`process` would, bit for bit.
        """
        n = len(batch)
        if not n:
            return batch
        self.records_seen += n
        # The earliest record says whether any is late — and, window
        # starts being monotone in t, which held window can close first.
        first = batch.t.min().item()
        if first < self._watermark:
            keep = batch.t >= self._watermark
            n_keep = int(np.count_nonzero(keep))
            self.late_dropped += n - n_keep
            if not n_keep:
                return RecordBatch.empty(batch.origin)
            batch = batch.where(keep)
            first = batch.t.min().item()
        self._held.append(batch)
        self._held_n += len(batch.t)
        close = self.windows.assign(first)[0].end
        if close < self._next_close:
            self._next_close = close
        if self._held_n >= HOLD_RECORDS:
            self._flush()
        return RecordBatch.empty(batch.origin)

    def _flush(self) -> None:
        """Fold the held batches, as one, into the slots."""
        if self._held:
            batch = RecordBatch.concat(self._held)
            self._held, self._held_n = [], 0
            self._fold_tumbling(batch)

    def _fold_tumbling(self, batch: RecordBatch) -> None:
        """Group by (window, key) with one stable lexsort and fold every
        contiguous group in one ``fold_groups`` call (or its ``add``
        chains)."""
        starts = self.windows.assign_starts(batch.t)
        # Stable sort: within one (window, key) group, values keep their
        # arrival order, so sequential folds match interleaved
        # per-record adds (:meth:`process`) exactly.
        order = np.lexsort((batch.key_idx, starts))
        starts = starts[order]
        key_idx = batch.key_idx[order]
        n = len(starts)
        # Group edges, the flush's end included: a group starts wherever
        # the window or the key changes.
        edge = np.empty(n + 1, dtype=bool)
        edge[0] = edge[n] = True
        np.not_equal(starts[1:], starts[:-1], out=edge[1:n])
        edge[1:n] |= key_idx[1:] != key_idx[:-1]
        edges = np.flatnonzero(edge)
        group_starts = edges[:-1]
        lengths = edges[1:] - group_starts
        length = self.windows.length
        keys = batch.keys
        open_slot = self._open
        cells = []
        last = None
        # One pass opens every group's slot, with one Window per start.
        for start, k in zip(
            starts[group_starts].tolist(), key_idx[group_starts].tolist()
        ):
            if start != last:
                window = Window(start, start + length)
                last = start
            cells.append(open_slot((window, keys[k])))
        fold = self.aggregate.fold_groups or partial(
            _add_chains, self.aggregate.add
        )
        states = fold(
            [cell[0] for cell in cells], batch.value[order], group_starts, lengths
        )
        for cell, state, count in zip(cells, states, lengths.tolist()):
            cell[0] = state
            cell[1] += count

    def advance_watermark(self, watermark: float) -> list[Record]:
        """Close all windows ending before the watermark; emit partials."""
        if watermark < self._watermark:
            raise ValueError("watermark cannot move backwards")
        self._watermark = watermark
        if watermark < self._next_close:
            return []
        self._flush()
        slots = self._folded
        closed = []
        next_close = math.inf
        for slot in slots:
            close = slot[0].end
            if close <= watermark:
                closed.append(slot)
            elif close < next_close:
                next_close = close
        self._next_close = next_close
        out: list[Record] = []
        for slot in sorted(closed, key=lambda s: (s[0], s[1])):
            window, key = slot
            state, count = slots.pop(slot)
            out.append(
                Record(
                    event_time=window.end,
                    key=key,
                    value=PartialAggregate(window, key, state, count),
                    size_bytes=PARTIAL_RECORD_BYTES,
                )
            )
        return out

    @property
    def open_windows(self) -> int:
        return len({w for w, _ in self._slots})

    # -- checkpoint/restore --------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of all open window state.

        Aggregate states are stored verbatim; the built-in aggregates use
        scalars and tuples, and tuples survive a JSON round trip as lists
        whose element access the add/merge closures are agnostic to.
        """
        return {
            "watermark": (
                None if self._watermark == -math.inf else self._watermark
            ),
            "records_seen": self.records_seen,
            "late_dropped": self.late_dropped,
            "slots": [
                [w.start, w.end, key, state, count]
                for (w, key), (state, count) in sorted(
                    self._slots.items(), key=lambda kv: kv[0]
                )
            ],
        }

    def restore(self, payload: dict) -> None:
        """Replace all state with a :meth:`snapshot` payload."""
        wm = payload["watermark"]
        self._watermark = -math.inf if wm is None else wm
        self.records_seen = payload["records_seen"]
        self.late_dropped = payload["late_dropped"]
        self._held, self._held_n = [], 0
        self._folded = {
            (Window(start, end), key): [state, count]
            for start, end, key, state, count in payload["slots"]
        }
        self._next_close = -math.inf  # unknown: the next advance rescans
