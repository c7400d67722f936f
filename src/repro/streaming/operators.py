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
aggregate's ``fold_groups`` column kernel. Window
state is columns: each open window holds one numpy array per state
component with a row per key id of the aggregator's own key table, so a
flush folds every group in one radix argsort, one ``bincount`` and one
kernel call, with no Python per group. When a flush's earliest and
latest records fall in one window (window index is monotone in event
time), no per-record window index is computed at all.

Closing windows keeps them columns: the watermark hands out one
:class:`PartialBlock` (a row per closed (window, key)), which the
batcher cuts and the WAN carries to the global merge as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
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
    #: The column kernel. The window fold keeps each state as numeric
    #: columns, one per component of ``zero()`` (the items of a tuple,
    #: else the state itself), and folds every group of a flush in one
    #: call: ``fold_groups(columns, values, starts, lengths)`` takes each
    #: group's prior state as those columns and a float64 array holding
    #: the groups back to back (group ``g`` is
    #: ``values[starts[g]:starts[g] + lengths[g]]``, never empty), and
    #: returns the new states as columns, each row **bit-identical** to
    #: applying ``add`` left to right over its group.
    fold_groups: Callable[[list, np.ndarray, np.ndarray, np.ndarray], list]


#: Fewer groups than this fold one by one: packing them (a mask, a
#: scatter and a gather) costs a few microseconds whatever its width,
#: more than a few scalar chains.
_MIN_GROUPS = 8


def _seq_sums(
    prior: np.ndarray, values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
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
            pack[:, 0] = prior
            pack[:, 1:][np.arange(width) < lengths[:, None]] = values
            np.add.accumulate(pack, axis=1, out=pack)
            return pack[np.arange(rows), lengths]
    # Few groups, or one so long that the pack's padding would outgrow
    # 4x the flush: each group's own chain.
    sums = np.empty(rows)
    for g, (lo, n) in enumerate(zip(starts.tolist(), lengths.tolist())):
        chain = np.empty(n + 1)
        chain[0] = prior[g]
        chain[1:] = values[lo:lo + n]
        np.add.accumulate(chain, out=chain)
        sums[g] = chain[-1]
    return sums


def _sum_groups(columns, values, starts, lengths) -> list[np.ndarray]:
    return [_seq_sums(columns[0], values, starts, lengths)]


def _mean_groups(columns, values, starts, lengths) -> list[np.ndarray]:
    n, total = columns
    return [n + lengths, _seq_sums(total, values, starts, lengths)]


def _count_groups(columns, values, starts, lengths) -> list[np.ndarray]:
    return [columns[0] + lengths]


# min and max order every float: NaN propagates (whatever its position)
# and -0.0 lies below +0.0, so the per-record chain, the column fold and
# a merge in either argument order give one answer.
def _min(a: float, b: float) -> float:
    if a < b:
        return a
    if b < a:
        return b
    if a != a:
        return a
    if b != b:
        return b
    return a if math.copysign(1.0, a) < 0.0 else b


def _max(a: float, b: float) -> float:
    if a > b:
        return a
    if b > a:
        return b
    if a != a:
        return a
    if b != b:
        return b
    return b if math.copysign(1.0, a) < 0.0 else a


def _extreme_groups(ufunc: np.ufunc, signed: np.ufunc) -> Callable[..., list]:
    # Each group prefixed by its prior state and reduced with reduceat,
    # which propagates NaN. A zero result ties +0.0 and -0.0, which the
    # ufunc orders by position: it is -0.0 when ``signed`` (any for min,
    # all for max) of the group's operands carry a sign bit.
    def fold(columns, values, starts, lengths):
        at = starts + np.arange(len(starts))
        prefixed = np.empty(len(values) + len(starts))
        taken = np.ones(len(prefixed), dtype=bool)
        taken[at] = False
        prefixed[at] = columns[0]
        prefixed[taken] = values
        out = ufunc.reduceat(prefixed, at)
        zero = out == 0.0
        if zero.any():
            negative = signed.reduceat(np.signbit(prefixed), at)
            out[zero] = np.where(negative[zero], -0.0, 0.0)
        return [out]

    return fold


def builtin_aggregate(name: str) -> AggregateFn:
    """Built-in aggregates: count, sum, mean, min, max."""
    if name == "count":
        return AggregateFn(
            "count",
            zero=lambda: 0,
            add=lambda s, v: s + 1,
            merge=lambda a, b: a + b,
            result=lambda s: s,
            fold_groups=_count_groups,
        )
    if name == "sum":
        return AggregateFn(
            "sum",
            zero=lambda: 0.0,
            add=lambda s, v: s + float(v),
            merge=lambda a, b: a + b,
            result=lambda s: s,
            fold_groups=_sum_groups,
        )
    if name == "min":
        return AggregateFn(
            "min",
            zero=lambda: math.inf,
            add=lambda s, v: _min(s, float(v)),
            merge=_min,
            result=lambda s: s,
            fold_groups=_extreme_groups(np.minimum, np.logical_or),
        )
    if name == "max":
        return AggregateFn(
            "max",
            zero=lambda: -math.inf,
            add=lambda s, v: _max(s, float(v)),
            merge=_max,
            result=lambda s: s,
            fold_groups=_extreme_groups(np.maximum, np.logical_and),
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
    raise ValueError(f"unknown aggregate {name!r}")


@dataclass(frozen=True)
class PartialAggregate:
    """One partial as a record value: the per-record form of a
    :class:`PartialBlock` row, for hand-built batches and the tests."""

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

#: Most key-table remaps one window fold keeps: a rekeying operator
#: whose tables never repeat cannot grow the cache past this.
_REMAPS = 64

#: Wire size of one partial-aggregate record (window, key, state, count).
PARTIAL_RECORD_BYTES = 120.0

_EMPTY_COUNT = np.empty(0, dtype=np.int64)
_EMPTY_SIZE = np.empty(0, dtype=np.float64)

#: A column's least and greatest element: what ``t.min()``/``t.max()``
#: compute, minus numpy's Python-level ``_amin``/``_amax`` wrapper.
_least = np.minimum.reduce
_greatest = np.maximum.reduce


class PartialBlock:
    """Closed (window, key) partials as columns: what a site ships.

    Row ``i`` is the partial of window ``[start[i], end[i])`` and key
    ``key[i]``: the aggregate's state ``state[i]``, the ``count[i]``
    records folded into it, and its wire size ``size[i]``. Rows come in
    (window, key) order. ``start``, ``end``, ``key`` and ``state`` are
    lists (tuples in the shared empty block) of the Python values a
    per-partial record would carry (window bounds keep their type: a
    window of an integer length has integer bounds); ``count`` (int64)
    and ``size`` (float64) are numpy columns. A row's event time is its
    window's end.

    The block is a sequence of partials for the batcher (``len``,
    slicing, :meth:`concat`, :attr:`size`, :attr:`total_bytes`) and
    needs no object per row on its way to the global merge;
    :meth:`from_records` / :meth:`to_records` bridge to the
    ``Record(PartialAggregate)`` form.
    """

    __slots__ = ("start", "end", "key", "state", "count", "size")

    def __init__(
        self,
        start: list,
        end: list,
        key: list[str],
        state: list,
        count: np.ndarray,
        size: np.ndarray,
    ) -> None:
        self.start = start
        self.end = end
        self.key = key
        self.state = state
        self.count = count
        self.size = size

    @classmethod
    def from_records(cls, records: list[Record]) -> "PartialBlock":
        """Columnize ``Record(PartialAggregate)`` partials, in order."""
        values = [r.value for r in records]
        n = len(values)
        return cls(
            [pa.window.start for pa in values],
            [pa.window.end for pa in values],
            [pa.key for pa in values],
            [pa.state for pa in values],
            np.fromiter((pa.count for pa in values), np.int64, n),
            np.fromiter((r.size_bytes for r in records), np.float64, n),
        )

    def to_records(self) -> list[Record]:
        """The equivalent ``Record(PartialAggregate)`` list, one per row."""
        out = []
        window = None
        for start, end, key, state, count, size in zip(
            self.start, self.end, self.key, self.state,
            self.count.tolist(), self.size.tolist(),
        ):
            if window is None or (window.start, window.end) != (start, end):
                window = Window(start, end)
            out.append(
                Record(
                    event_time=end,
                    key=key,
                    value=PartialAggregate(window, key, state, count),
                    size_bytes=size,
                )
            )
        return out

    def __len__(self) -> int:
        return len(self.key)

    def __getitem__(self, rows: slice) -> "PartialBlock":
        return PartialBlock(
            self.start[rows],
            self.end[rows],
            self.key[rows],
            self.state[rows],
            self.count[rows],
            self.size[rows],
        )

    @classmethod
    def concat(cls, blocks: "list[PartialBlock]") -> "PartialBlock":
        """Concatenate in order (a single block is returned as is)."""
        if len(blocks) == 1:
            return blocks[0]
        return cls(
            [v for b in blocks for v in b.start],
            [v for b in blocks for v in b.end],
            [v for b in blocks for v in b.key],
            [v for b in blocks for v in b.state],
            np.concatenate([b.count for b in blocks]),
            np.concatenate([b.size for b in blocks]),
        )

    @property
    def total_bytes(self) -> float:
        """Sum of ``size`` left to right (the per-record ``+=`` chain)."""
        if not len(self.size):
            return 0.0
        return float(np.add.accumulate(self.size)[-1])


class _WindowColumns:
    """One open window's state: a row per key id of the aggregator's key
    table, in each state column and in ``count`` (records folded)."""

    __slots__ = ("count", "state")

    def __init__(self, count: np.ndarray, state: list[np.ndarray]) -> None:
        self.count = count
        self.state = state


#: What a watermark that closes no window returns (every tick but a
#: window's last): shared, its columns empty tuples.
_NO_PARTIALS = PartialBlock((), (), (), (), _EMPTY_COUNT, _EMPTY_SIZE)


class WindowedAggregator:
    """Keyed, windowed aggregation producing mergeable partials.

    Windows close on *watermark*: once the operator has seen (or been
    told) event time past ``window.end``, the window's partial records
    are emitted. Records behind the watermark are counted and dropped —
    the global aggregator must never block on a straggler site's slow
    clock.

    Batches are counted and late-filtered at ingest but only *held*;
    they are folded as one concatenation when a window can close, the
    hold reaches :data:`HOLD_RECORDS`, or the fold state is read.

    State is columns, not slots: the aggregator numbers every key it
    sees in its own key table, and each open window (by index) holds one
    array per state component with a row per key id, plus a row count;
    a (window, key) slot exists once a record has folded into it. A
    flush remaps each held batch's key indices into that table once,
    groups the records by ``window offset * n_keys + key id`` with one
    stable radix argsort (when the earliest and the latest record fall
    in one window, window index being monotone in event time, the key
    id alone), takes the group lengths from one ``bincount``, and folds
    every group of every window in one ``fold_groups`` call straight
    from the columns and back into them. Each group folds left to right
    and the sort is stable, so that equals folding batch by batch, bit
    for bit. Emission and snapshots read the rows back in (window, key)
    order as the aggregate's Python states.
    """

    def __init__(self, windows, aggregate: AggregateFn) -> None:
        self.windows = windows
        self.aggregate = aggregate
        zero = aggregate.zero()
        self._zeros: tuple = zero if isinstance(zero, tuple) else (zero,)
        #: The key table: key -> id, ids in order of first sight, and
        #: (built when read) the ids sorted by key.
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._by_key: np.ndarray | None = None
        #: Rows per column: at least one per key id, doubled to grow.
        self._rows = 0
        #: Every batch key table seen, with its ids here (None: the same
        #: ids), and the last one looked up.
        self._remaps: dict[tuple[str, ...], np.ndarray | None] = {}
        self._table: tuple[str, ...] | None = None
        self._remap: np.ndarray | None = None
        #: Open windows: window index -> its columns.
        self._folded: dict[int, _WindowColumns] = {}
        #: Admitted batches not folded yet, and how many records they hold.
        self._held: list[RecordBatch] = []
        self._held_n = 0
        #: Earliest ``window.end`` over held records and open windows: no
        #: window closes below this watermark.
        self._next_close = math.inf
        self.records_seen = 0
        self.late_dropped = 0
        self._watermark = -math.inf

    # -- key table and columns -----------------------------------------
    def _key_id(self, key: str) -> int:
        """The key's id, numbered (and every window's rows grown) if new."""
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self._names)
            self._names.append(key)
            self._by_key = None
            if i >= self._rows:
                self._grow(max(2 * self._rows, 1))
        return i

    def _grow(self, rows: int) -> None:
        def grown(column, zero):
            return np.concatenate((column, np.full(rows - len(column), zero)))

        for cols in self._folded.values():
            cols.count = grown(cols.count, 0)
            cols.state = [grown(c, z) for c, z in zip(cols.state, self._zeros)]
        self._rows = rows

    def _key_ids(self, batch: RecordBatch) -> np.ndarray:
        """The batch's ``key_idx`` as ids of this aggregator's key table."""
        keys = batch.keys
        # Sources share one table across their batches, a site with two
        # sources alternates two, and a rekeying operator builds an
        # equal one per batch: a table's remap is built once, the first
        # time it is seen.
        if keys is not self._table:
            remaps = self._remaps
            if keys in remaps:
                remap = remaps[keys]
            else:
                if len(remaps) >= _REMAPS:
                    remaps.clear()
                ids = [self._key_id(key) for key in keys]
                same = ids == list(range(len(ids)))
                remap = remaps[keys] = None if same else np.array(ids)
            self._table, self._remap = keys, remap
        if self._remap is None:
            return batch.key_idx
        return self._remap[batch.key_idx]

    def _window(self, index: int) -> _WindowColumns:
        """The window's columns, opened at zero if new."""
        cols = self._folded.get(index)
        if cols is None:
            rows = self._rows
            cols = self._folded[index] = _WindowColumns(
                np.zeros(rows, dtype=np.int64),
                [np.full(rows, zero) for zero in self._zeros],
            )
            close = self.windows.end(index)
            if close < self._next_close:
                self._next_close = close
        return cols

    def _states(self, cols: _WindowColumns, ids: np.ndarray) -> list:
        """The Python states of rows ``ids``: scalars, or tuples of the
        components."""
        components = [c[ids].tolist() for c in cols.state]
        if len(components) == 1:
            return components[0]
        return list(zip(*components))

    def _set_state(self, cols: _WindowColumns, i: int, state: Any) -> None:
        components = (state,) if len(cols.state) == 1 else state
        for column, value in zip(cols.state, components):
            column[i] = value

    def _rows_by_key(self, cols: _WindowColumns) -> np.ndarray:
        """Ids of the window's open slots, in key order."""
        if self._by_key is None:
            names = self._names
            self._by_key = np.array(
                sorted(range(len(names)), key=names.__getitem__), dtype=np.int64
            )
        by_key = self._by_key
        return by_key[cols.count[by_key] > 0]

    # -- ingest and fold -----------------------------------------------
    def process(self, record: Record) -> list[Record]:
        """Fold a record in; emits nothing (emission is watermark-driven)."""
        self._flush()
        self.records_seen += 1
        if record.event_time < self._watermark:
            self.late_dropped += 1
            return []
        i = self._key_id(record.key)
        cols = self._window(self.windows.index(record.event_time))
        state = self._states(cols, np.array([i]))[0]
        self._set_state(cols, i, self.aggregate.add(state, record.value))
        cols.count[i] += 1
        return []

    def process_batch(self, batch: RecordBatch) -> None:
        """Fold a whole batch in; emits nothing (emission is watermark-driven).

        The batch is held for :meth:`_flush`, which folds it into the
        columns :meth:`process` would, bit for bit.
        """
        n = len(batch)
        if not n:
            return
        self.records_seen += n
        # The earliest record says whether any is late — and, window
        # index being monotone in t, which held window can close first.
        first = _least(batch.t).item()
        if first < self._watermark:
            keep = batch.t >= self._watermark
            n_keep = int(np.count_nonzero(keep))
            self.late_dropped += n - n_keep
            if not n_keep:
                return
            batch = batch.where(keep)
            first = _least(batch.t).item()
        self._held.append(batch)
        self._held_n += len(batch.t)
        close = self.windows.end(self.windows.index(first))
        if close < self._next_close:
            self._next_close = close
        if self._held_n >= HOLD_RECORDS:
            self._flush()

    def _flush(self) -> None:
        """Fold the held batches, as one, into the columns."""
        held = self._held
        if not held:
            return
        self._held, self._held_n = [], 0
        ids = [self._key_ids(b) for b in held]
        if len(held) == 1:
            self._fold_columns(held[0].t, ids[0], held[0].value)
        else:
            self._fold_columns(
                np.concatenate([b.t for b in held]),
                np.concatenate(ids),
                np.concatenate([b.value for b in held]),
            )

    def _fold_columns(
        self, t: np.ndarray, ids: np.ndarray, values: np.ndarray
    ) -> None:
        """Group by (window, key) with one stable radix argsort and fold
        every group from the columns and back in one ``fold_groups``
        call."""
        windows = self.windows
        lo = windows.index(_least(t).item())
        span = windows.index(_greatest(t).item()) - lo + 1
        n_keys = len(self._names)
        codes = ids
        if span > 1:
            codes = (windows.indices(t) - lo) * n_keys + ids
        n_codes = span * n_keys
        # Stable sort: within one (window, key) group, values keep their
        # arrival order, so sequential folds match interleaved
        # per-record adds (:meth:`process`) exactly. Codes that fit 16
        # bits sort by radix.
        order = np.argsort(
            codes.astype(np.uint16 if n_codes <= 1 << 16 else np.int64),
            kind="stable",
        )
        lengths = np.bincount(codes, minlength=n_codes)
        groups = np.flatnonzero(lengths)
        lengths = lengths[groups]
        starts = np.cumsum(lengths) - lengths
        # Groups come window by window: cut them where the offset changes.
        if span == 1:
            parts = [(self._window(lo), groups)]
        else:
            offsets, rows = np.divmod(groups, n_keys)
            cuts = (np.flatnonzero(np.diff(offsets)) + 1).tolist()
            parts = [
                (self._window(lo + int(offsets[a])), rows[a:b])
                for a, b in zip([0, *cuts], [*cuts, len(groups)])
            ]
        prior = [
            np.concatenate([cols.state[c][r] for cols, r in parts])
            for c in range(len(self._zeros))
        ]
        folded = self.aggregate.fold_groups(prior, values[order], starts, lengths)
        at = 0
        for cols, r in parts:
            nxt = at + len(r)
            for column, new in zip(cols.state, folded):
                column[r] = new[at:nxt]
            cols.count[r] += lengths[at:nxt]
            at = nxt

    # -- emission ------------------------------------------------------
    def advance_watermark(self, watermark: float) -> PartialBlock:
        """Close all windows ending before the watermark; return their
        partials as one block, in (window, key) order."""
        if watermark < self._watermark:
            raise ValueError("watermark cannot move backwards")
        self._watermark = watermark
        if watermark < self._next_close:
            return _NO_PARTIALS
        self._flush()
        end = self.windows.end
        open_ = self._folded
        closed = sorted(k for k in open_ if end(k) <= watermark)
        starts: list = []
        ends: list = []
        keys: list[str] = []
        states: list = []
        counts = []
        key_of = self._names.__getitem__
        for k in closed:
            cols = open_.pop(k)
            window = self.windows.window(k)
            ids = self._rows_by_key(cols)
            n = len(ids)
            starts += [window.start] * n
            ends += [window.end] * n
            keys += map(key_of, ids.tolist())
            states += self._states(cols, ids)
            counts.append(cols.count[ids])
        self._next_close = min(map(end, open_), default=math.inf)
        return PartialBlock(
            starts,
            ends,
            keys,
            states,
            np.concatenate(counts) if counts else _EMPTY_COUNT,
            np.full(len(keys), PARTIAL_RECORD_BYTES),
        )

    @property
    def open_windows(self) -> int:
        self._flush()
        return len(self._folded)

    # -- checkpoint/restore --------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable view of all open window state.

        Slots are rows ``[start, end, key, state, count]`` in (window,
        key) order. Aggregate states are stored verbatim; the built-in
        aggregates use scalars and tuples, and tuples survive a JSON round
        trip as lists whose element access the add/merge closures are
        agnostic to.
        """
        self._flush()
        slots: list[list] = []
        key_of = self._names.__getitem__
        for k in sorted(self._folded):
            cols = self._folded[k]
            window = self.windows.window(k)
            ids = self._rows_by_key(cols)
            slots += map(
                list,
                zip(
                    repeat(window.start),
                    repeat(window.end),
                    map(key_of, ids.tolist()),
                    self._states(cols, ids),
                    cols.count[ids].tolist(),
                ),
            )
        return {
            "watermark": (
                None if self._watermark == -math.inf else self._watermark
            ),
            "records_seen": self.records_seen,
            "late_dropped": self.late_dropped,
            "slots": slots,
        }

    def restore(self, payload: dict) -> None:
        """Replace all state with a :meth:`snapshot` payload."""
        wm = payload["watermark"]
        self._watermark = -math.inf if wm is None else wm
        self.records_seen = payload["records_seen"]
        self.late_dropped = payload["late_dropped"]
        self._held, self._held_n = [], 0
        self._folded = {}
        self._next_close = math.inf
        for start, _end, key, state, count in payload["slots"]:
            i = self._key_id(key)
            cols = self._window(self.windows.index(start))
            self._set_state(cols, i, state)
            cols.count[i] = count
