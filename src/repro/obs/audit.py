"""Continuous SLO / invariant auditor for geo-streaming runs.

The scenario contracts ("nothing lost, nothing doubled, bounded
latency") have so far been checked *after* a run, by the scenario code
itself. :class:`SLOAuditor` moves the checks online: it rides the
virtual-time clock next to a :class:`~repro.streaming.runtime.GeoStreamRuntime`
and evaluates, every ``check_interval`` seconds of simulated time:

* **watermark monotonicity** — a site's event-time watermark must never
  move backwards (a regression silently reopens closed windows);
* **exactly-once emission** — no ``(window, key)`` pair may appear twice
  in the delivered result stream, crashes and restarts included;
* **latency SLO** — each emitted window's end-to-end latency (event-time
  window close → global emission) against a user-declared bound.

At :meth:`finish` time — once the run has drained to quiescence — it
additionally checks the **loss identity** (every missing record must be
explained by a counter in the runtime's ``loss_terms()``) and the **cost
SLO** (attributed streaming $ per 1k records from the engine's
:class:`~repro.obs.ledger.CostLedger`).

Every violation becomes a structured :class:`Violation`, a fault-bus
event (``audit.<kind>`` — which also lands in the event log's ring when
observability is on), and an ``audit_violations_total{kind=}``
counter increment. All inputs are virtual-time and deterministic, so
the resulting :class:`AuditReport` is safe in canonical scenario output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Violation kinds the auditor can emit, in check order.
AUDIT_KINDS = (
    "watermark_regression",
    "duplicate_window",
    "latency_slo",
    "split_brain",
    "failover_mttr",
    "loss_identity",
    "cost_slo",
)


@dataclass(frozen=True)
class Violation:
    """One invariant or SLO breach, timestamped in virtual time."""

    t: float
    kind: str
    target: str
    value: float
    limit: float
    detail: str

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "target": self.target,
            "value": self.value,
            "limit": self.limit,
            "detail": self.detail,
        }


@dataclass
class AuditReport:
    """Outcome of one audited run (JSON-safe via :meth:`to_dict`)."""

    checks: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.kind] = counts.get(v.kind, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "checks": self.checks,
            "clean": self.clean,
            "violation_count": len(self.violations),
            "counts_by_kind": self.counts_by_kind(),
            "violations": [v.to_dict() for v in self.violations],
        }


class SLOAuditor:
    """Online invariant checks over a running geo-stream.

    Attach before :meth:`~repro.streaming.runtime.GeoStreamRuntime.start`
    (or any time mid-run), call :meth:`start`, and collect the
    :class:`AuditReport` from :meth:`finish` after the drain. The
    auditor never mutates the runtime — it only reads public counters
    and the result list — so an audited run produces byte-identical
    canonical output to an unaudited one.
    """

    def __init__(
        self,
        engine,
        runtime,
        max_latency_s: float | None = None,
        max_usd_per_1k: float | None = None,
        check_interval: float = 5.0,
        continuous_loss: bool = False,
        control=None,
    ) -> None:
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.engine = engine
        self.runtime = runtime
        self.max_latency_s = max_latency_s
        self.max_usd_per_1k = max_usd_per_1k
        self.check_interval = check_interval
        #: Check the loss *bound* every tick, not only the identity at
        #: quiescence: mid-run, records still in flight are neither
        #: counted nor explained, so ``lost == explained`` cannot hold —
        #: but ``counted + explained <= ingested`` must (breaking it
        #: means a record was double-counted or double-explained). Long
        #: soaks arm this so an accounting bug surfaces at the audit
        #: tick where it happens, days of virtual time before drain.
        self.continuous_loss = continuous_loss
        #: Optional :class:`repro.control.ControlPlane`. When set, every
        #: tick also checks the split-brain invariant (never two live
        #: leader replicas at once) and each completed failover's MTTR
        #: against the plane's configured bound.
        self.control = control
        self._failover_cursor = 0
        self.violations: list[Violation] = []
        self.checks = 0
        self._task = None
        self._last_watermarks: dict[str, float] = {}
        #: Incremental result scan state. Results are scanned exactly
        #: once each via a flat cursor (``results_since`` on real
        #: runtimes, a list slice on anything exposing a plain
        #: ``results``), so a multi-day soak pays O(new results) per
        #: tick, not O(all results ever). ``_seen`` counts persist
        #: across ticks — that is what makes the scan equivalent to the
        #: old full re-scan. Both are keyed by ``(start, end, key)``.
        self._cursor = 0
        self._seen: dict[tuple, int] = {}
        self._counted_records = 0
        self._latency_checked: set[tuple] = set()
        self._dup_flagged: set[tuple] = set()
        obs = engine.observer
        self._obs = obs
        self._obs_on = obs.enabled

    # ------------------------------------------------------------------
    def start(self) -> "SLOAuditor":
        """Begin periodic checks on the engine's virtual clock."""
        if self._task is None:
            self._task = self.engine.sim.add_periodic(
                self.check_interval, self.check_now
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # ------------------------------------------------------------------
    def _violate(
        self, kind: str, target: str, value: float, limit: float, detail: str
    ) -> None:
        violation = Violation(
            t=self.engine.sim.now,
            kind=kind,
            target=target,
            value=value,
            limit=limit,
            detail=detail,
        )
        self.violations.append(violation)
        # Fault-bus broadcast: reaches subscribed components and the
        # event log's ring, so a post-mortem dump shows the breach in
        # sequence with the faults around it.
        self.engine.emit_fault(f"audit.{kind}", target)
        if self._obs_on:
            self._obs.counter("audit_violations_total", kind=kind).inc()

    # ------------------------------------------------------------------
    def check_now(self) -> None:
        """Run every online check once (also called by the periodic task)."""
        self.checks += 1
        self._check_watermarks()
        self._check_results()
        if self.control is not None:
            self._check_control()
        if self.continuous_loss:
            self._check_loss_bound()

    def _check_watermarks(self) -> None:
        for region, site in self.runtime.sites.items():
            wm = site.watermark
            last = self._last_watermarks.get(region)
            if last is not None and wm < last:
                self._violate(
                    "watermark_regression",
                    region,
                    value=wm,
                    limit=last,
                    detail=(
                        f"site {region} watermark moved backwards: "
                        f"{last:.3f}s -> {wm:.3f}s"
                    ),
                )
            self._last_watermarks[region] = wm

    def _new_results(self, include_uncommitted: bool = False):
        """``(start, end, key)``, record count and latency of each result
        not yet scanned, advancing the flat cursor.

        Real runtimes expose :meth:`GeoStreamRuntime.results_since`
        (O(new), uncommitted excluded until the terminal sweep — a
        crash discards and later re-derives them, which a persistent
        counter would misread as duplicate emission), whose rows are
        read as columns. Stub runtimes with a plain ``results`` list of
        results are sliced directly.
        """
        since = getattr(self.runtime, "results_since", None)
        if since is not None:
            new = since(self._cursor, include_uncommitted=include_uncommitted)
            rows = zip(
                new.slots(), new.counts().tolist(), new.latencies().tolist()
            )
        else:
            new = self.runtime.results[self._cursor:]
            rows = (
                (
                    (r.window.start, r.window.end, r.key),
                    getattr(r, "record_count", 0),
                    r.latency,
                )
                for r in new
            )
        self._cursor += len(new)
        return rows

    def _check_results(self, include_uncommitted: bool = False) -> None:
        seen = self._seen
        for ident, count, latency in self._new_results(include_uncommitted):
            self._counted_records += count
            start, end, key = ident
            seen[ident] = seen.get(ident, 0) + 1
            if seen[ident] > 1 and ident not in self._dup_flagged:
                self._dup_flagged.add(ident)
                self._violate(
                    "duplicate_window",
                    f"{key}@{start:.0f}",
                    value=float(seen[ident]),
                    limit=1.0,
                    detail=(
                        f"window [{start:.0f}, {end:.0f}) key={key} "
                        f"emitted {seen[ident]} times"
                    ),
                )
            if self.max_latency_s is not None and ident not in self._latency_checked:
                self._latency_checked.add(ident)
                if latency > self.max_latency_s:
                    self._violate(
                        "latency_slo",
                        f"{key}@{start:.0f}",
                        value=latency,
                        limit=self.max_latency_s,
                        detail=(
                            f"window [{start:.0f}, {end:.0f}) key={key} "
                            f"e2e latency {latency:.1f}s exceeds "
                            f"SLO {self.max_latency_s:.1f}s"
                        ),
                    )

    # ------------------------------------------------------------------
    def _check_control(self) -> None:
        """Control-plane invariants: split brain and failover MTTR.

        Split brain — at no audit tick may two live replicas act as
        leader simultaneously. MTTR — every completed failover must have
        recovered within the plane's configured ``mttr_bound``; a cursor
        keeps each failover checked exactly once.
        """
        leaders = self.control.active_leaders()
        if len(leaders) > 1:
            self._violate(
                "split_brain",
                ",".join(sorted(leaders)),
                value=float(len(leaders)),
                limit=1.0,
                detail=(
                    f"{len(leaders)} live leader replicas at once: "
                    + ", ".join(sorted(leaders))
                ),
            )
        bound = self.control.config.mttr_bound
        failovers = self.control.failovers
        for event in failovers[self._failover_cursor:]:
            if event.mttr > bound + 1e-9:
                self._violate(
                    "failover_mttr",
                    event.new_leader,
                    value=event.mttr,
                    limit=bound,
                    detail=(
                        f"failover to {event.new_leader} (epoch "
                        f"{event.epoch}) took {event.mttr:.1f}s, bound "
                        f"{bound:.1f}s"
                    ),
                )
        self._failover_cursor = len(failovers)

    # ------------------------------------------------------------------
    def _check_loss_bound(self) -> None:
        """Mid-run loss invariant: ``counted + explained <= ingested``.

        ``counted`` uses the incrementally accumulated record count of
        scanned (durable) results, so the check is O(1) per tick.
        """
        ingested = self.runtime.records_ingested()
        explained = sum(self.runtime.loss_terms().values())
        counted = self._counted_records
        if counted + explained > ingested:
            self._violate(
                "loss_identity",
                "runtime",
                value=float(counted + explained),
                limit=float(ingested),
                detail=(
                    f"counted {counted} + explained {explained} exceeds "
                    f"ingested {ingested} mid-run (double-counted or "
                    f"double-explained records)"
                ),
            )

    def _check_loss_identity(self) -> None:
        runtime = self.runtime
        lost = max(0, runtime.records_ingested() - runtime.records_in_results())
        terms = runtime.loss_terms()
        explained = sum(terms.values())
        if lost != explained:
            self._violate(
                "loss_identity",
                "runtime",
                value=float(lost),
                limit=float(explained),
                detail=(
                    f"lost {lost} != explained {explained} "
                    f"(shed {terms['shed']} + "
                    f"late_dropped {terms['late_dropped']} + "
                    f"late_partial {terms['late_partial_records']} + "
                    f"abandoned {terms['abandoned_records']} + "
                    f"admission_rejected {terms['admission_rejected']})"
                ),
            )

    def _check_cost(self) -> None:
        if self.max_usd_per_1k is None:
            return
        ledger = getattr(self.engine, "ledger", None)
        if ledger is None:
            return
        records = self.runtime.records_ingested()
        if not records:
            return
        summary = ledger.summary(
            windows=len(self.runtime.results) or None, records=records
        )
        usd_per_1k = summary.usd_per_1k_records
        if usd_per_1k > self.max_usd_per_1k:
            self._violate(
                "cost_slo",
                "ledger",
                value=usd_per_1k,
                limit=self.max_usd_per_1k,
                detail=(
                    f"${usd_per_1k:.4f} per 1k records exceeds "
                    f"SLO ${self.max_usd_per_1k:.4f}"
                ),
            )

    # ------------------------------------------------------------------
    def finish(self, quiescent: bool = True) -> AuditReport:
        """Final sweep; cancels the periodic task and returns the report.

        ``quiescent=False`` skips the loss identity (records still in
        flight are neither counted nor lost — the identity only holds
        once the pipe has drained).
        """
        self.checks += 1
        self._check_watermarks()
        # Terminal sweep includes still-uncommitted results: nothing can
        # crash-discard them after this point, so scanning them once is
        # safe and the exactly-once / latency checks cover every result
        # the report will expose.
        self._check_results(include_uncommitted=True)
        if self.control is not None:
            self._check_control()
        if self.continuous_loss:
            self._check_loss_bound()
        if quiescent:
            self._check_loss_identity()
        self._check_cost()
        self.stop()
        return AuditReport(checks=self.checks, violations=list(self.violations))


__all__ = ["AUDIT_KINDS", "AuditReport", "SLOAuditor", "Violation"]
