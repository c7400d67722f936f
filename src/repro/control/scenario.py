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

import time
from dataclasses import dataclass, field

from repro.cloud.deployment import CloudEnvironment
from repro.config import ServeConfig, resolve_config
from repro.core.engine import SageEngine
from repro.control.plane import ControlPlane
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flow.policy import FlowConfig
from repro.obs.audit import SLOAuditor
from repro.report import ScenarioReport, metrics_snapshot
from repro.simulation.units import format_bytes
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, LatencyStats
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.sources import BurstSource
from repro.streaming.windows import TumblingWindows


@dataclass
class ServeResult:
    """Everything the service report needs, in plain numbers."""

    seed: int
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
    ingested: int = 0
    counted: int = 0
    results: int = 0
    #: Window-result counts keyed by leadership epoch (string keys so
    #: the canonical-JSON digest round-trips).
    results_by_epoch: dict[str, int] = field(default_factory=dict)
    admission_rejected: int = 0
    shed: int = 0
    late_dropped: int = 0
    late_partial_records: int = 0
    abandoned_records: int = 0
    duplicates_dropped: int = 0
    retries: int = 0
    retry_budget_exhausted: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    aggregator_crashes: int = 0
    batches_dropped_while_down: int = 0
    drained: bool = False
    latency: LatencyStats = field(default_factory=LatencyStats.empty)
    wan_bytes: float = 0.0
    audit: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    slo_violations: int = 0
    strict_slo: bool = True

    @property
    def lost(self) -> int:
        return max(0, self.ingested - self.counted)

    @property
    def explained(self) -> int:
        """Loss the shed/late/abandoned/admission counters explain."""
        return (
            self.shed
            + self.late_dropped
            + self.late_partial_records
            + self.abandoned_records
            + self.admission_rejected
        )

    @property
    def accounted(self) -> bool:
        return self.lost == self.explained

    @property
    def mttr_ok(self) -> bool:
        return self.mttr_max <= self.mttr_bound + 1e-9

    @property
    def clean(self) -> bool:
        """The service contract held across every failover."""
        ok = (
            self.failovers == self.kills
            and self.accounted
            and self.drained
            and self.mttr_ok
        )
        if self.strict_slo:
            ok = ok and self.slo_violations == 0
        return ok

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
            f"auditor: {self.audit.get('checks', 0)} checks, "
            f"{self.slo_violations} violations"
            + (" (strict)" if self.strict_slo else ""),
            "",
            "verdict: "
            + (
                "CLEAN — service contract held across failovers"
                if self.clean
                else "SERVICE CONTRACT VIOLATED"
            ),
        ]
        return "\n".join(lines)


def _kill_times(cfg: ServeConfig) -> list[float]:
    """Scheduled leader-kill instants (relative to runtime start)."""
    if cfg.kill_leader_every <= 0:
        return []
    times = []
    t = cfg.kill_leader_every
    while t <= 0.75 * cfg.duration:
        times.append(t)
        if cfg.max_kills and len(times) >= cfg.max_kills:
            break
        t += cfg.kill_leader_every
    return times


def run_serve(
    config: ServeConfig | str | dict | None = None,
    *,
    observer=None,
) -> ScenarioReport:
    """Run the resident-service scenario to completion (virtual time).

    Returns a :class:`~repro.report.ScenarioReport` whose ``details``
    is the :class:`ServeResult` payload (attribute access falls
    through). Same seed, same numbers — the determinism tests and the
    CI chaos job rely on it.
    """
    cfg = resolve_config(
        ServeConfig, config, {},
        "run_serve(ServeConfig(...))",
        "run_serve(ServeConfig(...))",
    )
    wall0 = time.perf_counter()
    seed = cfg.seed
    duration = cfg.duration
    site_regions = cfg.site_regions

    flow = FlowConfig(
        policy=cfg.policy,
        max_backlog=cfg.max_backlog,
        max_inflight=8,
        max_pending=None if cfg.policy == "block" else 64,
        breaker_threshold=3,
        breaker_reset=20.0,
    )
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    spec = {region: 2 for region in site_regions}
    spec[cfg.aggregation_region] = 4
    for region in cfg.standby_regions:
        spec[region] = 2
    engine = SageEngine(env, deployment_spec=spec, observer=observer)
    engine.start(learning_phase=120.0)

    job = StreamJob(
        name="serve",
        sites=[
            SiteSpec(
                region,
                [
                    BurstSource(
                        f"src-{region}",
                        base_rate=cfg.base_rate,
                        burst_rate=cfg.base_rate * 2.0,
                        burst_start=duration / 3.0,
                        burst_end=2.0 * duration / 3.0,
                        keys=["k1", "k2"],
                    )
                ],
            )
            for region in site_regions
        ],
        aggregation_region=cfg.aggregation_region,
        windows=TumblingWindows(10.0),
        finalize_grace=120.0,
        aggregate=builtin_aggregate("count"),
        flow=flow,
    )
    factory = ReliableShipping.factory(
        SageShipping.factory(n_nodes=2, plan_ttl=30.0),
        delivery_timeout=cfg.delivery_timeout,
        max_retries=cfg.max_retries,
        max_inflight=flow.max_inflight,
        max_pending=flow.max_pending,
        breaker=True,
        breaker_threshold=flow.breaker_threshold,
        breaker_reset=flow.breaker_reset,
        retry_budget=cfg.retry_budget or None,
    )
    runtime = GeoStreamRuntime(
        engine, job, factory, per_vm_records_per_s=cfg.base_rate
    )
    store = runtime.enable_checkpointing(
        interval=cfg.checkpoint_interval
    ).store

    plane = ControlPlane(engine, runtime, cfg.control())
    plane.add_leader()
    for region in cfg.standby_regions:
        plane.add_standby(region)
    auditor = SLOAuditor(
        engine,
        runtime,
        max_latency_s=cfg.slo_max_latency_s,
        max_usd_per_1k=cfg.slo_max_usd_per_1k,
        control=plane,
    ).start()
    plane.auditor = auditor
    plane.start()

    kill_times = _kill_times(cfg)
    recovery = plane.config.mttr_bound + plane.config.respawn_delay
    plan = FaultPlan()
    for t in kill_times:
        plan.kill_leader(t, recovery=recovery)
    injector = FaultInjector(engine, plan) if len(plan) else None

    t0 = engine.sim.now
    if injector is not None:
        injector.arm()  # plan times are relative to arming
    if cfg.reconfigure_at > 0:
        engine.sim.schedule(
            cfg.reconfigure_at,
            plane.apply,
            {
                "max_backlog": cfg.max_backlog * 2,
                "slo_max_latency_s": cfg.slo_max_latency_s,
            },
        )
    runtime.start()
    engine.run_until(t0 + duration)
    for site in runtime.sites.values():
        site.stop_sources(drain=True)
    # Outlive the fault plan (last kill + full recovery) before draining.
    horizon = max(t0 + duration, t0 + plan.horizon())
    if engine.sim.now < horizon:
        engine.run_until(horizon)
    drain_cap = engine.sim.now + 1800.0
    while runtime.in_pipe() and engine.sim.now < drain_cap:
        engine.run_until(engine.sim.now + 10.0)
    drained = runtime.in_pipe() == 0
    engine.run_until(engine.sim.now + job.watermark_lag + 30.0)
    runtime.stop()
    plane.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
    engine.env.finalize()

    audit_report = auditor.finish()
    cost = engine.ledger.summary(
        windows=len(runtime.results) or None,
        records=runtime.records_ingested() or None,
    )
    sites = list(runtime.sites.values())
    backends = [site.shipping for site in sites]
    agg = runtime.aggregator
    mttr = plane.mttr_stats()
    results_by_epoch: dict[str, int] = {}
    for r in runtime.results:
        key = str(r.epoch)
        results_by_epoch[key] = results_by_epoch.get(key, 0) + 1
    result = ServeResult(
        seed=seed,
        policy=cfg.policy,
        duration=duration,
        kills=plane.kills,
        failovers=len(plane.failovers),
        failover_log=[f.to_dict() for f in plane.failovers],
        mttr_max=mttr["mttr_max"],
        mttr_mean=mttr["mttr_mean"],
        mttr_bound=mttr["mttr_bound"],
        epochs=plane.lease.epoch,
        config_versions=plane.config_version,
        config_log=list(plane.config_log),
        standby_syncs=plane.standby_syncs,
        respawns=plane.respawns,
        ingested=runtime.records_ingested(),
        counted=runtime.records_in_results(),
        results=len(runtime.results),
        results_by_epoch=results_by_epoch,
        admission_rejected=runtime.records_admission_rejected(),
        shed=runtime.records_shed(),
        late_dropped=sum(site.aggregator.late_dropped for site in sites),
        late_partial_records=agg.late_partial_records,
        abandoned_records=sum(b.records_abandoned for b in backends),
        duplicates_dropped=agg.duplicates_dropped,
        retries=sum(b.retries for b in backends),
        retry_budget_exhausted=sum(
            getattr(b, "retry_budget_exhausted", 0) for b in backends
        ),
        checkpoints=store.saves,
        checkpoint_bytes=store.size_bytes("aggregator"),
        aggregator_crashes=runtime.aggregator_crashes,
        batches_dropped_while_down=runtime.batches_dropped_while_down,
        drained=drained,
        latency=runtime.latency_stats(),
        wan_bytes=runtime.wan_bytes(),
        audit=audit_report.to_dict(),
        cost=cost.to_dict(),
        slo_violations=len(audit_report.violations),
        strict_slo=cfg.strict_slo,
    )
    return ScenarioReport(
        scenario="serve",
        config=cfg.to_dict(),
        seed=seed,
        virtual_seconds=engine.sim.now,
        wall_seconds=time.perf_counter() - wall0,
        details=result,
        metrics=metrics_snapshot(observer),
    )


__all__ = ["ServeResult", "run_serve"]
