"""Emitted window results: the outward record, and the table that keeps them.

The global aggregator's output is one small record per (window, key): a
:class:`WindowResult` with its :class:`~repro.obs.lineage.WindowLineage`.
A run keeps none of those objects. Every result is a row of one
:class:`ResultTable` (columns, plus what a finalize group's rows share),
and :class:`ResultView` — what ``GeoStreamRuntime.results`` and its kin
return — builds a ``WindowResult`` only when a caller reads a row. The
column readers give counts, latencies, emission times, epochs and
lineage completeness without building one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.obs.lineage import SiteLeg, WindowLineage, new_lineage, slot_setters
from repro.streaming.windows import Window


@dataclass(frozen=True, slots=True)
class WindowResult:
    """One emitted global aggregate."""

    window: Window
    key: str
    value: object
    record_count: int
    sites: int
    emitted_at: float
    #: Causal provenance (which sites/links/attempts produced this
    #: result, with per-hop timings); ``None`` only for results built
    #: before lineage existed or by hand in tests.
    lineage: WindowLineage | None = None
    #: Leader-lease epoch the emitting aggregator served under (0 when
    #: no control plane is armed). The split-brain/exactly-once audit
    #: uses it to attribute every window to one leadership term.
    epoch: int = 0
    #: Control-plane config version active at emission (0 = the boot
    #: config). Lets the auditor attribute each window to the exact
    #: configuration it ran under across live reconfigurations.
    config_version: int = 0

    @property
    def latency(self) -> float:
        """End-to-end: window close (event time) → global emission."""
        return self.emitted_at - self.window.end


(
    _set_window, _set_key, _set_value, _set_count, _set_sites, _set_emitted_at,
    _set_lineage, _set_epoch, _set_config_version,
) = slot_setters(WindowResult)


def _new_result(
    window, key, value, record_count, sites, emitted_at, lineage, epoch,
    config_version,
) -> WindowResult:
    """``WindowResult(...)`` with every field given, one slot write each
    instead of the frozen ``__init__``'s ``object.__setattr__`` call."""
    out = object.__new__(WindowResult)
    _set_window(out, window)
    _set_key(out, key)
    _set_value(out, value)
    _set_count(out, record_count)
    _set_sites(out, sites)
    _set_emitted_at(out, emitted_at)
    _set_lineage(out, lineage)
    _set_epoch(out, epoch)
    _set_config_version(out, config_version)
    return out


@dataclass
class LatencyStats:
    """Summary of result latencies.

    An empty summary (no results emitted) is falsy and carries NaN
    percentiles; test with ``if stats:`` or format with :meth:`describe`
    instead of printing raw fields, so ``nan`` never leaks into reports.
    """

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    max: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The no-results sentinel (falsy; all percentiles NaN)."""
        return cls(0, *[float("nan")] * 5)

    @classmethod
    def from_latencies(cls, lat: np.ndarray) -> "LatencyStats":
        """The summary of latencies given in result order."""
        if not lat.size:
            return cls.empty()
        if lat.size == 1:
            # Degenerate distribution: every quantile is the one sample.
            value = float(lat[0])
            return cls(1, value, value, value, value, value)
        return cls(
            count=len(lat),
            mean=float(lat.mean()),
            p50=float(np.percentile(lat, 50)),
            p95=float(np.percentile(lat, 95)),
            p99=float(np.percentile(lat, 99)),
            max=float(lat.max()),
        )

    def __bool__(self) -> bool:
        return self.count > 0

    def describe(self) -> str:
        """One-line human summary; safe on the empty sentinel."""
        if not self:
            return "latency: no results emitted"
        return (
            f"latency p50 {self.p50:.1f}s p95 {self.p95:.1f}s "
            f"p99 {self.p99:.1f}s max {self.max:.1f}s"
        )


class ResultTable:
    """Every emitted result, one row each, in emission order.

    Rows are appended one finalize group at a time. A row is its slot —
    the ``(start, end, key)`` tuple the emitted log holds — with the
    aggregate's result ``values[i]``, the merged record ``counts[i]`` and
    ``sizes[i]``, the bytes of the partial that armed it. What a group's
    rows share is stored once: ``(emitted_at, epoch, config_version,
    site, mark, arrived)``, the last three being the arming batch's
    site, :class:`~repro.obs.lineage.TraceMark` and arrival time. A row's
    lineage is that batch's one leg, unless ``legs`` holds the
    :class:`SiteLeg` tuple the merge built for it (a row other batches
    added to, or one restored from a checkpoint); rows of a group with
    no site (raw-record windows) have no legs. :meth:`row` builds the
    :class:`WindowResult` a caller reads.

    Rows below ``cursor`` are committed. A crashed aggregator's rows past
    it are dropped by :meth:`truncate` when its successor takes the
    table over, so the table reads in delivery order: rows committed by
    every earlier aggregator, then the live one's committed rows, then
    its uncommitted ones.
    """

    __slots__ = (
        "slots", "values", "counts", "sizes", "legs", "cursor", "writer",
        "_starts", "_groups",
    )

    def __init__(self) -> None:
        self.slots: list[tuple] = []
        self.values: list = []
        self.counts = array("q")
        self.sizes = array("d")
        self.legs: dict[int, tuple[SiteLeg, ...]] = {}
        self.cursor = 0
        #: The aggregator appending rows (the one whose rows past the
        #: cursor are uncommitted).
        self.writer = None
        #: First row of each group, and the group's shared fields.
        self._starts: list[int] = []
        self._groups: list[tuple] = []

    def __len__(self) -> int:
        return len(self.slots)

    def append(self, slots, values, counts, sizes, legs, group: tuple) -> None:
        """One group's rows; ``legs`` maps a row of the group to its
        per-site legs, ``group`` is the fields the rows share."""
        first = len(self.slots)
        self._starts.append(first)
        self._groups.append(group)
        self.slots += slots
        self.values += values
        self.counts.extend(counts)
        self.sizes.extend(sizes)
        for row, site_legs in legs.items():
            self.legs[first + row] = tuple(site_legs[s] for s in sorted(site_legs))

    def commit(self) -> None:
        self.cursor = len(self.slots)

    def truncate(self) -> None:
        """Drop the uncommitted rows."""
        n = self.cursor
        if n == len(self.slots):
            return
        del self.slots[n:], self.values[n:], self.counts[n:], self.sizes[n:]
        for row in [row for row in self.legs if row >= n]:
            del self.legs[row]
        g = bisect_left(self._starts, n)
        del self._starts[g:], self._groups[g:]

    def row(self, i: int) -> WindowResult:
        group = self._groups[bisect_right(self._starts, i) - 1]
        start, end, _ = self.slots[i]
        return self._build(i, Window(start, end), group)

    def rows(self, lo: int, hi: int):
        """The results of rows ``lo`` to ``hi``; rows of one window share
        its :class:`Window`."""
        window = None
        for group, a, b in self._spans(lo, hi):
            for i in range(a, b):
                start, end, _ = self.slots[i]
                if window is None or window.start is not start or window.end is not end:
                    window = Window(start, end)
                yield self._build(i, window, group)

    def _build(self, i: int, window: Window, group: tuple) -> WindowResult:
        emitted_at, epoch, version, site, mark, arrived = group
        start, end, key = self.slots[i]
        count = self.counts[i]
        legs = self.legs.get(i)
        sites = 1
        if legs is not None:
            sites = len(legs)
        elif site is None:
            legs = ()
        else:
            legs = (SiteLeg.of_batch(site, mark, count, self.sizes[i], arrived),)
        return _new_result(
            window, key, self.values[i], count, sites, emitted_at,
            new_lineage(start, end, key, emitted_at, legs), epoch, version,
        )

    def _spans(self, lo: int, hi: int):
        """``(group, first, stop)`` for each group with rows in ``[lo, hi)``,
        clipped to it."""
        if lo >= hi:
            return
        starts, groups = self._starts, self._groups
        g = bisect_right(starts, lo) - 1
        while g < len(starts) and starts[g] < hi:
            stop = starts[g + 1] if g + 1 < len(starts) else len(self.slots)
            yield groups[g], max(starts[g], lo), min(stop, hi)
            g += 1

    def _per_row(self, lo: int, hi: int, field: int, dtype) -> np.ndarray:
        """A group field repeated over each group's rows in ``[lo, hi)``."""
        spans = list(self._spans(lo, hi))
        return np.repeat(
            np.array([group[field] for group, _, _ in spans], dtype=dtype),
            [stop - first for _, first, stop in spans],
        )


class ResultView(Sequence):
    """Rows ``lo`` to ``hi`` of a :class:`ResultTable`, read-only.

    Indexing and iteration build each :class:`WindowResult` on access;
    the column readers (:meth:`latencies`, :meth:`counts`, ...) read the
    rows without building one. A view compares equal to the list of the
    results it reads.
    """

    __slots__ = ("_table", "_lo", "_hi")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, table: ResultTable, lo: int, hi: int) -> None:
        self._table = table
        self._lo = lo
        self._hi = max(lo, hi)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            if step == 1:
                return ResultView(self._table, self._lo + lo, self._lo + hi)
            return [self[i] for i in range(lo, hi, step)]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("result index out of range")
        return self._table.row(self._lo + index)

    def __iter__(self):
        return self._table.rows(self._lo, self._hi)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, ResultView)):
            return list(self) == list(other)
        return NotImplemented

    def __add__(self, other) -> list[WindowResult]:
        return list(self) + list(other)

    def __radd__(self, other) -> list[WindowResult]:
        return list(other) + list(self)

    def __repr__(self) -> str:
        return repr(list(self))

    # -- column readers ------------------------------------------------
    def slots(self) -> list[tuple]:
        """Each row's ``(start, end, key)``."""
        return self._table.slots[self._lo:self._hi]

    def counts(self) -> np.ndarray:
        """Each row's record count."""
        return np.frombuffer(self._table.counts[self._lo:self._hi], np.int64)

    def records(self) -> int:
        """Records counted by the rows."""
        return sum(self._table.counts[self._lo:self._hi])

    def emitted_at(self) -> np.ndarray:
        return self._table._per_row(self._lo, self._hi, 0, np.float64)

    def epochs(self) -> np.ndarray:
        return self._table._per_row(self._lo, self._hi, 1, np.int64)

    def latencies(self) -> np.ndarray:
        """Each row's :attr:`WindowResult.latency`, bit for bit."""
        ends = np.array([slot[1] for slot in self.slots()], dtype=np.float64)
        return self.emitted_at() - ends

    def complete(self) -> np.ndarray:
        """Whether each row's lineage is complete."""
        table, lo, hi = self._table, self._lo, self._hi
        out = np.zeros(hi - lo, dtype=bool)
        for (_, _, _, site, mark, arrived), first, stop in table._spans(lo, hi):
            if site is not None:
                # Every row of the group has the group batch's one leg,
                # complete or not by its timestamps alone.
                out[first - lo:stop - lo] = SiteLeg.of_batch(
                    site, mark, 0, 0.0, arrived
                ).complete
        if table.legs:
            get = table.legs.get
            for row in range(lo, hi):
                legs = get(row)
                if legs is not None:
                    out[row - lo] = bool(legs) and all(leg.complete for leg in legs)
        return out


__all__ = ["LatencyStats", "ResultTable", "ResultView", "WindowResult"]
