"""Causal trace context for streamed batches and per-window lineage.

Every batch cut by a :class:`~repro.streaming.batching.Batcher` is
stamped with a :class:`BatchTrace` — a deterministic trace ID derived
from ``(origin, seq)`` plus an append-only list of :class:`Hop` entries,
one per shipping attempt. The trace rides the batch object itself, so it
survives everything the batch survives: ReliableShipping retries append
extra hops, duplicate deliveries share the same trace, and retained
batches replayed after a checkpoint restore keep their original ID (the
``(origin, seq)`` dedup key *is* the trace ID, so replay can never mint
a second identity for the same payload).

At the global aggregator a pending window's lineage is the leg of the
batch that first delivered it — that batch's :class:`TraceMark`, kept
once per batch — until a second batch adds to the window, which gives it
one :class:`SiteLeg` per contributing origin. The emitted result's row
keeps either form, and reading the result builds its
:class:`WindowLineage`, answering "how long did window W take from
event-time to emission, through which sites and links, and with how
many shipping attempts?".

Trace IDs and all timestamps are virtual-time values — no wall clock,
no randomness — so lineage is byte-identical across runs and safe to
embed in canonical scenario output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple


def trace_id(origin: str, seq: int) -> str:
    """The deterministic trace identity of a batch: ``origin/seq``."""
    return f"{origin}/{seq}"


@dataclass
class Hop:
    """One shipping attempt over one link.

    ``arrived_at`` stays NaN until the delivery callback fires; a hop
    that never arrives (UDP loss, cancelled retry) records the attempt
    without claiming completion.
    """

    link: str
    backend: str
    sent_at: float
    arrived_at: float = math.nan

    @property
    def delivered(self) -> bool:
        return not math.isnan(self.arrived_at)

    @property
    def transit_s(self) -> float:
        return self.arrived_at - self.sent_at

    def to_dict(self) -> dict:
        return {
            "link": self.link,
            "backend": self.backend,
            "sent_at": self.sent_at,
            "arrived_at": self.arrived_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Hop":
        return cls(
            link=payload["link"],
            backend=payload["backend"],
            sent_at=payload["sent_at"],
            arrived_at=payload.get("arrived_at", math.nan),
        )


@dataclass
class BatchTrace:
    """Causal context stamped on a batch at cut time."""

    trace_id: str
    origin: str
    seq: int
    created_at: float
    hops: list[Hop] = field(default_factory=list)

    @classmethod
    def stamp(cls, origin: str, seq: int, created_at: float) -> "BatchTrace":
        return cls(
            trace_id=trace_id(origin, seq),
            origin=origin,
            seq=seq,
            created_at=created_at,
        )

    def begin_hop(self, link: str, backend: str, now: float) -> Hop:
        """Record a shipping attempt; returns the hop so the delivery
        callback can close it."""
        hop = Hop(link=link, backend=backend, sent_at=now)
        self.hops.append(hop)
        return hop

    def mark(self) -> "TraceMark":
        """What :meth:`SiteLeg.absorb` reads of this trace, as of now."""
        return TraceMark(
            self.trace_id, len(self.hops), self.created_at, self.first_sent_at
        )

    @property
    def attempts(self) -> int:
        return len(self.hops)

    @property
    def first_sent_at(self) -> float:
        return self.hops[0].sent_at if self.hops else math.nan

    @property
    def delivered_at(self) -> float:
        """Arrival time of the last delivered hop (NaN if none landed)."""
        arrived = [h.arrived_at for h in self.hops if h.delivered]
        return arrived[-1] if arrived else math.nan

    @property
    def delivered(self) -> bool:
        return any(h.delivered for h in self.hops)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "origin": self.origin,
            "seq": self.seq,
            "created_at": self.created_at,
            "hops": [h.to_dict() for h in self.hops],
        }


class TraceMark(NamedTuple):
    """A :class:`BatchTrace` as one delivery saw it: later retries of the
    same batch append hops, which a leg absorbed at that delivery must
    not count."""

    trace_id: str
    attempts: int
    created_at: float
    first_sent_at: float


@dataclass(slots=True)
class SiteLeg:
    """One origin's contribution to one pending window.

    Absorbs every batch that delivered a partial for the window:
    ``created_at`` keeps the earliest batch cut (the window closed at
    the site no later than that), ``arrived_at`` the latest arrival
    (the window could not finalize before it), and ``attempts`` the
    total shipping attempts across all contributing batches — retries
    included.
    """

    site: str
    records: int = 0
    partials: int = 0
    batches: int = 0
    attempts: int = 0
    bytes: float = 0.0
    created_at: float = math.nan
    first_sent_at: float = math.nan
    arrived_at: float = math.nan
    _seen: set = field(default_factory=set, repr=False)

    @classmethod
    def of_batch(
        cls,
        site: str,
        trace: "BatchTrace | TraceMark | None",
        records: int,
        nbytes: float,
        now: float,
    ) -> "SiteLeg":
        """``SiteLeg(site)`` after one :meth:`absorb`, field for field,
        built in one step (the global merge makes one per result)."""
        leg = object.__new__(cls)
        leg.site = site
        leg.records = 0 + records
        leg.partials = 1
        leg.bytes = 0.0 + nbytes
        leg.arrived_at = now
        if trace is None:
            leg.batches = leg.attempts = 0
            leg.created_at = leg.first_sent_at = math.nan
            leg._seen = set()
        else:
            leg.batches = 1
            leg.attempts = 0 + trace.attempts
            leg.created_at = trace.created_at
            leg.first_sent_at = trace.first_sent_at
            leg._seen = {trace.trace_id}
        return leg

    def absorb(
        self,
        trace: "BatchTrace | TraceMark | None",
        records: int,
        nbytes: float,
        now: float,
    ) -> None:
        self.partials += 1
        self.records += records
        self.bytes += nbytes
        self.arrived_at = now if math.isnan(self.arrived_at) else max(
            self.arrived_at, now
        )
        if trace is None:
            return
        if trace.trace_id not in self._seen:
            self._seen.add(trace.trace_id)
            self.batches += 1
            self.attempts += trace.attempts
        self.created_at = _nan_min(self.created_at, trace.created_at)
        self.first_sent_at = _nan_min(self.first_sent_at, trace.first_sent_at)

    @property
    def complete(self) -> bool:
        return not (
            math.isnan(self.created_at)
            or math.isnan(self.first_sent_at)
            or math.isnan(self.arrived_at)
        )

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "records": self.records,
            "partials": self.partials,
            "batches": self.batches,
            "attempts": self.attempts,
            "bytes": self.bytes,
            "created_at": self.created_at,
            "first_sent_at": self.first_sent_at,
            "arrived_at": self.arrived_at,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SiteLeg":
        leg = cls(site=payload["site"])
        leg.records = int(payload.get("records", 0))
        leg.partials = int(payload.get("partials", 0))
        leg.batches = int(payload.get("batches", 0))
        leg.attempts = int(payload.get("attempts", 0))
        leg.bytes = float(payload.get("bytes", 0.0))
        leg.created_at = _nan_float(payload.get("created_at"))
        leg.first_sent_at = _nan_float(payload.get("first_sent_at"))
        leg.arrived_at = _nan_float(payload.get("arrived_at"))
        return leg


#: Per-site hop names in causal order, used as the ``hop`` label on the
#: ``lineage_hop_seconds`` histogram family.
HOP_NAMES = ("site_close", "queue", "transit", "merge")


@dataclass(frozen=True, slots=True)
class WindowLineage:
    """Frozen provenance of one emitted window result."""

    window_start: float
    window_end: float
    key: str
    emitted_at: float
    legs: tuple[SiteLeg, ...]

    @property
    def e2e_latency(self) -> float:
        """Event-time horizon → global emission."""
        return self.emitted_at - self.window_end

    @property
    def complete(self) -> bool:
        return bool(self.legs) and all(leg.complete for leg in self.legs)

    @property
    def egress_bytes(self) -> float:
        return sum(leg.bytes for leg in self.legs)

    @property
    def sites(self) -> tuple[str, ...]:
        return tuple(leg.site for leg in self.legs)

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-site latency decomposition, keyed by site then hop name:

        * ``site_close`` — window end → batch cut at the site (local
          watermark lag plus batching hold);
        * ``queue`` — batch cut → first shipping attempt;
        * ``transit`` — first attempt → last arrival (retries and
          backoff included);
        * ``merge`` — last arrival → global emission (finalize grace).
        """
        out: dict[str, dict[str, float]] = {}
        for leg in self.legs:
            out[leg.site] = {
                "site_close": leg.created_at - self.window_end,
                "queue": leg.first_sent_at - leg.created_at,
                "transit": leg.arrived_at - leg.first_sent_at,
                "merge": self.emitted_at - leg.arrived_at,
            }
        return out

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "key": self.key,
            "emitted_at": self.emitted_at,
            "legs": [leg.to_dict() for leg in self.legs],
        }


def slot_setters(cls) -> list:
    """The slot setters of a slotted dataclass, in field order. Filling
    a frozen one through them skips its ``__init__``, which pays one
    ``object.__setattr__`` call per field."""
    return [cls.__dict__[f.name].__set__ for f in fields(cls)]


(
    _set_window_start, _set_window_end, _set_key, _set_emitted_at, _set_legs,
) = slot_setters(WindowLineage)


def new_lineage(
    window_start: float,
    window_end: float,
    key: str,
    emitted_at: float,
    legs: tuple[SiteLeg, ...],
) -> WindowLineage:
    """``WindowLineage(...)``, one slot write per field."""
    lineage = object.__new__(WindowLineage)
    _set_window_start(lineage, window_start)
    _set_window_end(lineage, window_end)
    _set_key(lineage, key)
    _set_emitted_at(lineage, emitted_at)
    _set_legs(lineage, legs)
    return lineage


def _nan_min(a: float, b: float) -> float:
    if math.isnan(a):
        return b
    if math.isnan(b):
        return a
    return min(a, b)


def _nan_float(value) -> float:
    return math.nan if value is None else float(value)
