"""The resident-service scenario behind ``sage serve``.

:func:`run_serve` builds a long-lived geo-streaming session with the
control plane armed — leader lease, warm standbys in dedicated regions,
checkpoint shipping — then scripts the service lifecycle on top of it:

1. **unplanned leader kills** on a fixed cadence (``leader.kill``
   adversities through the fault plan), each of which must resolve by
   standby promotion within the configured MTTR bound;
2. a **live reconfiguration** mid-run — backlog bound doubled and the
   latency SLO tightened through :meth:`ControlPlane.apply`, stamping a
   new config version into every subsequent window;
3. a modest **2× ingest burst** in the middle third, so failovers land
   under load, not in a quiet pipe.

The run drains to quiescence and the service contract is checked
exactly: every kill produced exactly one failover, every failover's
measured MTTR is within bound, the split-brain audit never fired, no
window was emitted twice across any epoch change, and the loss identity
(now including admission-rejected records) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ServeConfig, resolve_config
from repro.faults.plan import FaultPlan
from repro.report import ScenarioReport
from repro.scenarios.harness import Scenario, ScenarioPayload, ScenarioRun, sites_of
from repro.simulation.units import format_bytes
from repro.streaming.runtime import LatencyStats
from repro.streaming.sources import BurstSource


@dataclass
class ServeResult(ScenarioPayload):
    """Everything the service report needs, in plain numbers."""

    policy: str
    duration: float
    kills: int
    failovers: int
    #: Per-failover records (:meth:`FailoverEvent.to_dict` form).
    failover_log: list[dict] = field(default_factory=list)
    mttr_max: float = 0.0
    mttr_mean: float = 0.0
    mttr_bound: float = 0.0
    #: Final lease epoch (1 + completed failovers when all kills resolve).
    epochs: int = 0
    config_versions: int = 0
    config_log: list[dict] = field(default_factory=list)
    standby_syncs: int = 0
    respawns: int = 0
    #: Window-result counts keyed by leadership epoch (string keys so
    #: the canonical-JSON digest round-trips).
    results_by_epoch: dict[str, int] = field(default_factory=dict)
    admission_rejected: int = 0
    shed: int = 0
    late_dropped: int = 0
    late_partial_records: int = 0
    abandoned_records: int = 0
    retry_budget_exhausted: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    aggregator_crashes: int = 0
    batches_dropped_while_down: int = 0
    drained: bool = False
    latency: LatencyStats = field(default_factory=LatencyStats.empty)

    @property
    def mttr_ok(self) -> bool:
        return self.mttr_max <= self.mttr_bound + 1e-9

    @property
    def clean(self) -> bool:
        """The service contract held across every failover, and a service
        that ingested records counted some of them."""
        return (
            self.failovers == self.kills
            and (self.counted > 0 or self.ingested == 0)
            and self.accounted
            and self.drained
            and self.mttr_ok
            and self.slo_ok
        )

    def describe(self) -> str:
        by_epoch = ", ".join(
            f"e{epoch}={count}"
            for epoch, count in sorted(
                self.results_by_epoch.items(), key=lambda kv: int(kv[0])
            )
        )
        lines = [
            f"serve run: policy={self.policy} seed={self.seed} "
            f"duration={self.duration:.0f}s",
            "",
            f"leader kills: {self.kills}, failovers completed: "
            f"{self.failovers}, final epoch {self.epochs}",
            f"MTTR: max {self.mttr_max:.1f}s, mean {self.mttr_mean:.1f}s "
            f"(bound {self.mttr_bound:.1f}s"
            + (")" if self.mttr_ok else ")  ** BOUND EXCEEDED **"),
            f"standby syncs: {self.standby_syncs}, respawns: {self.respawns}",
            f"config versions applied: {self.config_versions}",
            f"admission rejected at ingress: {self.admission_rejected}",
            f"shipping: {self.retries} retries, "
            f"{self.retry_budget_exhausted} budget-deferred",
            f"checkpoints: {self.checkpoints} "
            f"({format_bytes(float(self.checkpoint_bytes))} durable), "
            f"aggregator crashes {self.aggregator_crashes}, "
            f"{self.batches_dropped_while_down} deliveries while down",
            f"aggregator dedup: {self.duplicates_dropped} duplicate batches",
            "",
            f"records ingested: {self.ingested}",
            f"records counted:  {self.counted} in {self.results} windows "
            f"({by_epoch})",
            f"lost {self.lost}, explained {self.explained} "
            + ("(accounted)" if self.accounted else "** UNACCOUNTED **"),
            self.latency.describe(),
            f"wide-area bytes: {format_bytes(self.wan_bytes)}",
            self.audit_line(),
            "",
            "verdict: "
            + (
                "CLEAN — service contract held across failovers"
                if self.clean
                else "SERVICE CONTRACT VIOLATED"
            ),
        ]
        return "\n".join(lines)


def run_serve(
    config: ServeConfig | dict | None = None,
    *,
    observer=None,
) -> ScenarioReport:
    """Run the resident-service scenario to completion (virtual time).

    Returns a :class:`~repro.report.ScenarioReport` whose ``details``
    is the :class:`ServeResult` payload (attribute access falls
    through). Same seed, same numbers — the determinism tests and the
    CI chaos job rely on it.
    """
    cfg = resolve_config(ServeConfig, config)
    control = cfg.control()
    duration = cfg.duration

    def plan(engine) -> FaultPlan | None:
        # Kills stop after 75 % of the run (and at ``max_kills``) so the tail
        # can drain; each holds the plan open for a full recovery, so the
        # harness outlives the last promotion before it drains.
        recovery = control.mttr_bound + control.respawn_delay
        kills, every = FaultPlan(), cfg.kill_leader_every
        t = every
        while every > 0 and t <= 0.75 * duration:
            kills.kill_leader(t, recovery=recovery)
            if cfg.max_kills and len(kills) >= cfg.max_kills:
                break
            t += every
        return kills if len(kills) else None

    actions = ()
    if cfg.reconfigure_at > 0:
        changes = {
            "max_backlog": cfg.max_backlog * 2,
            "slo_max_latency_s": cfg.slo_max_latency_s,
        }
        actions = ((cfg.reconfigure_at, lambda run: run.plane.apply(changes)),)
    deployment = {r: 2 for r in (*cfg.site_regions, *cfg.standby_regions)}
    deployment[cfg.aggregation_region] = 4
    scenario = Scenario(
        name="serve",
        config=cfg,
        deployment=deployment,
        sites=sites_of(
            cfg.site_regions,
            lambda name: BurstSource(
                name,
                base_rate=cfg.base_rate,
                burst_rate=cfg.base_rate * 2.0,
                burst_start=duration / 3.0,
                burst_end=2.0 * duration / 3.0,
                keys=["k1", "k2"],
            ),
        ),
        aggregation_region=cfg.aggregation_region,
        phases=[(0.0, duration)],
        payload=lambda run: run.fill(ServeResult, policy=cfg.policy, duration=duration),
        policy=cfg.policy,
        max_backlog=cfg.max_backlog,
        per_vm_records_per_s=cfg.base_rate,
        delivery_timeout=cfg.delivery_timeout,
        max_retries=cfg.max_retries,
        retry_budget=cfg.retry_budget or None,
        checkpoint_interval=cfg.checkpoint_interval,
        standbys=cfg.standby_regions,
        control=control,
        plan=plan,
        actions=actions,
    )
    return ScenarioRun(scenario, observer).execute()


__all__ = ["ServeResult", "run_serve"]
