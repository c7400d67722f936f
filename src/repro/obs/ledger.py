"""Cost ledger: per-link / per-site / per-window dollar attribution.

The :class:`~repro.cloud.pricing.CostMeter` answers "what did this run
cost in total"; the ledger answers "where did the money go". It
subscribes to the meter's charge stream (every accrual carries the exact
USD charged plus a context — a WAN link for egress, a region for VM
time) and folds the charges into attribution buckets. Because the
listener receives the *actual* charged amounts, the ledger's totals
reconcile with the meter to within float tolerance by construction —
there is no separate re-pricing that could drift.

``$ per window`` and ``$ per 1k records`` — the paper's bounded-cost
headline metrics — come out of :meth:`CostLedger.summary` once a run
knows its emitted-window and record counts, and are pushed as gauges
through the observer for the dashboard and exporters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class LinkCost:
    """Accrued egress on one WAN link (``src->dst``)."""

    link: str
    bytes: float = 0.0
    usd: float = 0.0


@dataclass
class RegionCost:
    """Accrued VM lease time in one region."""

    region: str
    seconds: float = 0.0
    usd: float = 0.0


@dataclass
class CostSummary:
    """Run-level attribution rollup (JSON-safe via :meth:`to_dict`)."""

    egress_usd: float
    egress_bytes: float
    vm_usd: float
    vm_seconds: float
    storage_usd: float
    other_usd: float
    per_link: dict[str, LinkCost] = field(default_factory=dict)
    per_region: dict[str, RegionCost] = field(default_factory=dict)
    usd_per_window: float = math.nan
    usd_per_1k_records: float = math.nan

    @property
    def total_usd(self) -> float:
        return self.egress_usd + self.vm_usd + self.storage_usd + self.other_usd

    def to_dict(self) -> dict:
        return {
            "egress_usd": self.egress_usd,
            "egress_bytes": self.egress_bytes,
            "vm_usd": self.vm_usd,
            "vm_seconds": self.vm_seconds,
            "storage_usd": self.storage_usd,
            "other_usd": self.other_usd,
            "total_usd": self.total_usd,
            "usd_per_window": self.usd_per_window,
            "usd_per_1k_records": self.usd_per_1k_records,
            "per_link": {
                link: {"bytes": c.bytes, "usd": c.usd}
                for link, c in sorted(self.per_link.items())
            },
            "per_region": {
                region: {"seconds": c.seconds, "usd": c.usd}
                for region, c in sorted(self.per_region.items())
            },
        }


class CostLedger:
    """Attributes every :class:`CostMeter` charge to a link or region.

    Always on (one listener call per charge — charges happen per flow
    completion and per lease close, never per record), observer-optional:
    gauges are only written when an enabled observer is bound.
    """

    def __init__(self, meter, observer=None) -> None:
        self.meter = meter
        self.baseline = meter.snapshot()
        self.per_link: dict[str, LinkCost] = {}
        self.per_region: dict[str, RegionCost] = {}
        #: Charges whose context named neither a link nor a region
        #: (storage capacity, transactions, context-less callers).
        self.storage_usd = 0.0
        self.other_usd = 0.0
        self.other_egress_bytes = 0.0
        self._obs = None
        self._obs_on = False
        if observer is not None:
            self.bind_observer(observer)
        meter.on_charge(self._observe)

    def bind_observer(self, observer) -> None:
        self._obs = observer
        self._obs_on = observer.enabled

    # ------------------------------------------------------------------
    def _observe(self, kind: str, amount: float, usd: float, context) -> None:
        if kind == "egress":
            if isinstance(context, str) and "->" in context:
                cost = self.per_link.get(context)
                if cost is None:
                    cost = self.per_link[context] = LinkCost(link=context)
                cost.bytes += amount
                cost.usd += usd
                if self._obs_on:
                    self._obs.gauge(
                        "ledger_link_egress_usd", link=context
                    ).set(cost.usd)
            else:
                self.other_usd += usd
                self.other_egress_bytes += amount
        elif kind == "vm":
            region = context if isinstance(context, str) else "?"
            cost = self.per_region.get(region)
            if cost is None:
                cost = self.per_region[region] = RegionCost(region=region)
            cost.seconds += amount
            cost.usd += usd
            if self._obs_on:
                self._obs.gauge("ledger_vm_usd", region=region).set(cost.usd)
        elif kind in ("storage", "transactions"):
            self.storage_usd += usd
        else:  # pragma: no cover - future charge kinds
            self.other_usd += usd

    # ------------------------------------------------------------------
    @property
    def egress_usd(self) -> float:
        return sum(c.usd for c in self.per_link.values())

    @property
    def egress_bytes(self) -> float:
        return sum(c.bytes for c in self.per_link.values())

    @property
    def vm_usd(self) -> float:
        return sum(c.usd for c in self.per_region.values())

    @property
    def vm_seconds(self) -> float:
        return sum(c.seconds for c in self.per_region.values())

    def delta(self):
        """``CostMeter`` charges accrued since this ledger was attached."""
        return self.meter.snapshot() - self.baseline

    def reconcile(self, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> bool:
        """Attributed totals must equal the meter's deltas.

        Egress: per-link USD + unattributed egress == meter egress delta
        (bytes likewise). VM: per-region USD == meter VM delta. Storage:
        storage bucket == meter storage delta. Any mismatch means a
        charge site bypassed the listener — a bug, never rounding.
        """
        d = self.delta()
        checks = (
            (self.egress_usd + self.other_usd, d.egress_usd),
            (self.egress_bytes + self.other_egress_bytes, d.egress_bytes),
            (self.vm_usd, d.vm_usd),
            (self.vm_seconds, d.vm_seconds),
            (self.storage_usd, d.storage_usd),
        )
        return all(
            math.isclose(mine, meters, rel_tol=rel_tol, abs_tol=abs_tol)
            for mine, meters in checks
        )

    # ------------------------------------------------------------------
    def summary(
        self, windows: int | None = None, records: int | None = None
    ) -> CostSummary:
        """Roll up attribution; normalise per window / per 1k records.

        The normalised metrics use streaming egress + VM spend (the
        resources the stream actually consumes); storage stays separate
        so a blob-shipping baseline remains comparable.
        """
        summary = CostSummary(
            egress_usd=self.egress_usd,
            egress_bytes=self.egress_bytes,
            vm_usd=self.vm_usd,
            vm_seconds=self.vm_seconds,
            storage_usd=self.storage_usd,
            other_usd=self.other_usd,
            per_link=dict(self.per_link),
            per_region=dict(self.per_region),
        )
        spend = summary.egress_usd + summary.vm_usd
        if windows:
            summary.usd_per_window = spend / windows
        if records:
            summary.usd_per_1k_records = spend / records * 1000.0
        if self._obs_on:
            if windows:
                self._obs.gauge("ledger_usd_per_window").set(
                    summary.usd_per_window
                )
            if records:
                self._obs.gauge("ledger_usd_per_1k_records").set(
                    summary.usd_per_1k_records
                )
        return summary
