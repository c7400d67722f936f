"""The scripted fault-recovery scenario behind ``repro chaos``.

One function, :func:`run_chaos`, builds a deterministic geo-streaming run
(two producing sites, one aggregation site, reliable shipping over the
managed substrate), arms the scripted :func:`~repro.faults.plan.chaos_scenario`
— two sender VMs crash, one inter-region link blackholes, shipped batches
are duplicated for a while — and drains the job cleanly so the recovery
contract can be checked *exactly*:

* **zero lost records** — every ingested record is counted in exactly one
  emitted global window result;
* **zero double-counted records** — injected duplicates and at-least-once
  re-sends are removed by the aggregator's dedup;
* **bounded recovery** — crash detection latency stays within the
  detector's bound and the drain completes within the finalize grace;
* **honest accounting** — retried batches pay wide-area egress like any
  other bytes.

The same seed always produces the same fault log, retry counts, and
result set; the chaos test and the E11 benchmark both call this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ChaosConfig, resolve_config
from repro.faults.injector import AppliedFault
from repro.faults.plan import FaultPlan, chaos_scenario
from repro.report import ScenarioReport
from repro.scenarios.harness import Scenario, ScenarioPayload, ScenarioRun, sites_of
from repro.simulation.units import format_bytes
from repro.streaming.sources import PoissonSource


@dataclass
class ChaosResult(ScenarioPayload):
    """Everything the recovery report needs, in plain numbers."""

    duration: float
    faults: list[AppliedFault] = field(default_factory=list)
    abandoned: int = 0
    duplicates_delivered: int = 0
    suspicions: int = 0
    recoveries: int = 0
    detection_latencies: list[float] = field(default_factory=list)
    detection_bound: float = 0.0
    drain_seconds: float = 0.0
    egress_bytes: float = 0.0
    egress_usd: float = 0.0

    @property
    def double_counted(self) -> int:
        return max(0, self.counted - self.ingested)

    @property
    def clean(self) -> bool:
        """The recovery contract held: nothing lost, nothing doubled
        (and, under ``strict_slo``, zero auditor violations)."""
        return self.lost == 0 and self.double_counted == 0 and self.slo_ok

    def describe(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} duration={self.duration:.0f}s",
            "",
            f"faults applied: {len(self.faults)}",
        ]
        for f in self.faults:
            extra = f" ({f.param:.0f}s)" if f.param else ""
            lines.append(f"  t={f.time:7.1f}s  {f.kind:<12} {f.target}{extra}")
        max_lat = max(self.detection_latencies, default=0.0)
        lines += [
            "",
            f"failure detector: {self.suspicions} suspicions, "
            f"{self.recoveries} recoveries, worst detection latency "
            f"{max_lat:.1f}s (bound {self.detection_bound:.1f}s)",
            f"shipping: {self.retries} retries, {self.abandoned} abandoned, "
            f"{self.duplicates_delivered} duplicate deliveries",
            f"aggregator: {self.duplicates_dropped} duplicate batches dropped",
            f"drain after sources stopped: {self.drain_seconds:.1f}s",
            "",
            f"records ingested: {self.ingested}",
            f"records counted:  {self.counted} "
            f"in {self.results} window results",
            f"lost: {self.lost}, double-counted: {self.double_counted}",
            f"wide-area bytes (incl. retries): {format_bytes(self.wan_bytes)}, "
            f"egress ${self.egress_usd:.4f}",
            self.audit_line(),
            "",
            "verdict: " + ("CLEAN — zero loss, zero double-counting"
                           if self.clean else "DATA INTEGRITY VIOLATED"),
        ]
        return "\n".join(lines)


def run_chaos(
    config: ChaosConfig | dict | None = None,
    *,
    plan: FaultPlan | dict | None = None,
    observer=None,
) -> ScenarioReport:
    """Run the scripted chaos scenario to completion (virtual time).

    Takes a :class:`~repro.config.ChaosConfig` (or its dict form) and
    returns a :class:`~repro.report.ScenarioReport` whose ``details`` is
    the :class:`ChaosResult` payload (attribute access falls through).

    ``plan=None`` arms the canonical scenario: the first site's first two
    sender VMs crash at t≈60s (restarting 90s later) and the first
    site → aggregation link blackholes for 60s at t=90s, with a batch
    duplication window early on. ``inject=False`` runs the identical
    workload fault-free — the baseline arm of experiment E11.
    """
    cfg = resolve_config(ChaosConfig, config)
    if isinstance(plan, dict):
        plan = FaultPlan.from_dict(plan)
    first, second = cfg.site_regions

    def build_plan(engine) -> FaultPlan | None:
        if not cfg.inject:
            return None
        if plan is not None:
            return plan
        senders = [vm.vm_id for vm in engine.deployment.vms(first)]
        return chaos_scenario(senders, (first, cfg.aggregation_region))

    scenario = Scenario(
        name="chaos",
        config=cfg,
        deployment={first: 4, second: 3, cfg.aggregation_region: 4},
        sites=sites_of(
            cfg.site_regions,
            lambda name: PoissonSource(name, rate=cfg.records_per_s, keys=["k1", "k2"]),
        ),
        aggregation_region=cfg.aggregation_region,
        phases=[(0.0, cfg.duration)],
        payload=lambda run: run.fill(ChaosResult, duration=cfg.duration),
        # Detection (≤ 20s) or stall (≤ 30s), then timed-out retries with
        # backoff until the route heals (~45s for the 60s blackhole, because
        # the stall feedback reroutes around the dead link): 90s holds all of
        # it with margin.
        finalize_grace=90.0,
        delivery_timeout=cfg.delivery_timeout,
        max_retries=cfg.max_retries,
        plan=build_plan,
    )
    return ScenarioRun(scenario, observer).execute()


__all__ = ["ChaosResult", "run_chaos"]
