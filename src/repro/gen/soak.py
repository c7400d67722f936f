"""The long-horizon soak harness.

:func:`run_soak` expands a :class:`~repro.config.SoakConfig` through the
:class:`~repro.gen.scenario.ScenarioGenerator` and runs the generated
scenario for simulated *days*, with the SLO auditor armed the whole way
(watermark monotonicity, exactly-once emission, and the continuous loss
bound checked at every audit tick — not only at quiescence). The run
drains to true quiescence before the final loss-identity check, and the
resulting :class:`SoakResult` carries a canonical sha256 digest: two
runs with the same seed must produce the same digest, byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from hashlib import sha256

from repro.cloud.deployment import CloudEnvironment
from repro.config import ControlConfig, SoakConfig, resolve_config
from repro.control.plane import ControlPlane
from repro.core.engine import SageEngine
from repro.faults.injector import FaultInjector
from repro.flow.policy import FlowConfig
from repro.gen.scenario import ScenarioGenerator
from repro.obs.audit import SLOAuditor
from repro.report import ScenarioReport, canonical_json, canonical_value, metrics_snapshot
from repro.simulation.units import format_bytes
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, LatencyStats
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.windows import TumblingWindows


@dataclass
class SoakResult:
    """Deterministic outcome of one generated soak (digest-stable)."""

    seed: int
    profile: str
    hours: float
    scenario: dict = field(default_factory=dict)
    #: Applied-fault counts by kind plus total, from the injector log.
    fault_counts: dict = field(default_factory=dict)
    faults_applied: int = 0
    sources: int = 0
    ingested: int = 0
    counted: int = 0
    results: int = 0
    shed: int = 0
    late_dropped: int = 0
    late_partial_records: int = 0
    abandoned_records: int = 0
    duplicates_dropped: int = 0
    retries: int = 0
    #: Control-plane rollups (all zero when ``failovers`` is unarmed).
    failovers: int = 0
    failover_mttr_max: float = 0.0
    epochs: int = 0
    standby_syncs: int = 0
    admission_rejected: int = 0
    retry_budget_exhausted: int = 0
    backlog_peaks: dict[str, int] = field(default_factory=dict)
    max_deferred: int = 0
    checkpoints: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats.empty)
    lineage: dict = field(default_factory=dict)
    #: Per-phase rollups: results, p99 latency, lineage completeness,
    #: cumulative violations at phase end.
    phases: list[dict] = field(default_factory=list)
    wan_bytes: float = 0.0
    audit: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    usd_per_1k: float = 0.0
    slo_violations: int = 0
    strict_slo: bool = True
    drained: bool = True

    @property
    def lost(self) -> int:
        return max(0, self.ingested - self.counted)

    @property
    def explained(self) -> int:
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
    def clean(self) -> bool:
        ok = self.accounted and self.drained
        if self.strict_slo:
            ok = ok and self.slo_violations == 0
        return ok

    @property
    def digest(self) -> str:
        """Canonical sha256 over the deterministic payload.

        Same seed + same config → byte-identical digest; this is the
        acceptance handle for soak reproducibility (a property, not a
        field, so it never feeds back into its own hash).
        """
        return sha256(canonical_json(canonical_value(self)).encode()).hexdigest()

    def describe(self) -> str:
        regions = ", ".join(self.scenario.get("site_regions", []))
        peaks = ", ".join(
            f"{region}={peak}"
            for region, peak in sorted(self.backlog_peaks.items())
        )
        lines = [
            f"soak run: profile={self.profile} seed={self.seed} "
            f"{self.hours:.1f} simulated hours",
            "",
            f"generated scenario: sites [{regions}] -> "
            f"{self.scenario.get('aggregation_region', '?')}, "
            f"{self.sources} sources, "
            f"mean {self.scenario.get('traffic', {}).get('mean_rate', 0.0):.1f} rec/s",
            f"adversity: {self.faults_applied} faults applied "
            + (
                "("
                + ", ".join(
                    f"{kind}={n}" for kind, n in sorted(self.fault_counts.items())
                )
                + ")"
                if self.fault_counts
                else "(none)"
            ),
            (
                f"failovers: {self.failovers} "
                f"(MTTR max {self.failover_mttr_max:.1f}s, "
                f"final epoch {self.epochs}, "
                f"{self.standby_syncs} standby syncs)"
                if self.failovers
                else "failovers: none (control plane unarmed)"
            ),
            f"backlog peaks: {peaks or '-'}; "
            f"peak source deferral {self.max_deferred}",
            f"shipping: {self.retries} retries, "
            f"{self.abandoned_records} records abandoned; "
            f"aggregator dedup {self.duplicates_dropped} batches; "
            f"checkpoints {self.checkpoints}",
            "",
            f"records ingested: {self.ingested}",
            f"records counted:  {self.counted} in {self.results} windows "
            f"(lost {self.lost}, "
            + ("accounted" if self.accounted else "UNACCOUNTED")
            + ")",
            self.latency.describe(),
            f"wide-area bytes: {format_bytes(self.wan_bytes)}; "
            f"${self.usd_per_1k:.4f} per 1k records",
            f"auditor: {self.audit.get('checks', 0)} checks, "
            f"{self.slo_violations} violations"
            + (" (strict)" if self.strict_slo else ""),
        ]
        for phase in self.phases:
            p99 = phase.get("p99")
            lines.append(
                f"  phase {phase['phase']:>2}  "
                f"[{phase['t0'] / 3600.0:5.1f}h, {phase['t1'] / 3600.0:5.1f}h)  "
                f"{phase['results']:>6} windows  "
                + (f"p99 {p99:7.1f}s  " if p99 is not None else "p99     -    ")
                + f"lineage {phase['lineage_complete']:>6}  "
                f"violations {phase['violations']}"
            )
        lines += [
            "",
            f"digest: {self.digest}",
            "verdict: "
            + ("CLEAN — soak invariants held" if self.clean
               else "SOAK INVARIANTS VIOLATED"),
        ]
        return "\n".join(lines)


class SoakRunner:
    """Executes one generated scenario end to end.

    Split from :func:`run_soak` so tests can reach into the pieces
    (generator output, fault plan, phase boundaries) without rerunning
    the whole horizon.
    """

    def __init__(self, config: SoakConfig, observer=None) -> None:
        self.config = config
        self.observer = observer
        self.generator = ScenarioGenerator(config.seed, profile=config.profile)
        self.scenario = self.generator.generate(config.hours)

    # ------------------------------------------------------------------
    def phase_bounds(self) -> list[tuple[float, float]]:
        """Relative [t0, t1) phase windows covering the horizon."""
        cfg = self.config
        horizon = self.scenario.horizon_s
        if cfg.phase_hours > 0:
            n = max(1, int(math.ceil(cfg.hours / cfg.phase_hours)))
        else:
            n = min(6, max(1, int(cfg.hours)))
        width = horizon / n
        return [(i * width, (i + 1) * width) for i in range(n)]

    # ------------------------------------------------------------------
    def _schedule_kills(self, plan, plane) -> None:
        """Spread exactly N unplanned leader kills across the middle.

        Kills are evenly spaced over ``[15%, 70%]`` of the horizon — the
        same deterministic-event window the generated adversity uses —
        and must be at least one full recovery (MTTR bound + respawn
        delay + margin) apart, so every kill hits a settled plane with a
        live leader and the run measures N independent failovers.
        """
        n = self.config.failovers
        horizon = self.scenario.horizon_s
        recovery = plane.config.mttr_bound + plane.config.respawn_delay
        lo, hi = 0.15 * horizon, 0.70 * horizon
        step = (hi - lo) / (n - 1) if n > 1 else 0.0
        if n > 1 and step < recovery + 60.0:
            raise ValueError(
                f"{n} failovers need at least "
                f"{(recovery + 60.0) * (n - 1) / 0.55 / 3600.0:.2f} soak "
                f"hours to keep kills a full recovery apart"
            )
        for i in range(n):
            plan.kill_leader(lo + i * step, recovery=recovery)

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        cfg = self.config
        scn = self.scenario
        wall0 = time.perf_counter()

        flow = FlowConfig(
            policy=cfg.policy,
            max_backlog=cfg.max_backlog,
            max_inflight=8,
            max_pending=None if cfg.policy == "block" else 64,
            breaker_threshold=3,
            breaker_reset=20.0,
        )
        env = CloudEnvironment(
            seed=cfg.seed, variability_sigma=0.0, glitches=False
        )
        engine = SageEngine(
            env, deployment_spec=dict(scn.deployment), observer=self.observer
        )
        engine.start(learning_phase=120.0)

        by_region = scn.traffic.by_region()
        job = StreamJob(
            name="soak",
            sites=[
                SiteSpec(
                    region,
                    [p.build_source() for p in by_region.get(region, [])],
                )
                for region in scn.site_regions
            ],
            aggregation_region=scn.aggregation_region,
            windows=TumblingWindows(scn.window_s),
            aggregate=builtin_aggregate("count"),
            finalize_grace=120.0,
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
        )
        # Site capacity sits at ~2.5× the generated mean: diurnal peaks
        # clear it comfortably, flash crowds exceed it — so overload
        # handling is actually exercised, not idled through.
        per_vm = max(
            5.0,
            max(
                2.5 * scn.traffic.mean_rate(region) / scn.deployment[region]
                for region in scn.site_regions
            ),
        )
        runtime = GeoStreamRuntime(
            engine, job, factory, per_vm_records_per_s=per_vm
        )
        store = None
        # Failover soaks need the exactly-once substrate even when the
        # config left checkpointing off.
        checkpoint_interval = cfg.checkpoint_interval
        if cfg.failovers > 0 and checkpoint_interval <= 0:
            checkpoint_interval = 30.0
        if checkpoint_interval > 0:
            store = runtime.enable_checkpointing(
                interval=checkpoint_interval
            ).store
        plane = None
        if cfg.failovers > 0:
            # Standbys co-locate with the first two site regions (each
            # has >= 2 VMs; the standby takes the last one), so the
            # generated layout needs no extra regions and a promotion
            # exercises the site->local-aggregator handover path too.
            plane = ControlPlane(engine, runtime, ControlConfig())
            plane.add_leader()
            for region in scn.site_regions[:2]:
                plane.add_standby(region)
            plane.start()
        auditor = SLOAuditor(
            engine,
            runtime,
            max_latency_s=cfg.slo_max_latency_s,
            max_usd_per_1k=cfg.slo_max_usd_per_1k,
            check_interval=cfg.check_interval,
            continuous_loss=True,
            control=plane,
        ).start()
        if plane is not None:
            plane.auditor = auditor

        vm_ids = {
            region: [vm.vm_id for vm in engine.deployment.vms(region)]
            for region in scn.site_regions
        }
        plan = self.generator.adversity(scn, vm_ids)
        if plane is not None:
            self._schedule_kills(plan, plane)
        injector = FaultInjector(engine, plan, observer=self.observer).arm()

        t0 = engine.sim.now
        runtime.start()
        phase_marks: list[dict] = []
        for i, (_, rel_end) in enumerate(self.phase_bounds()):
            engine.run_until(t0 + rel_end)
            phase_marks.append(
                {
                    "phase": i,
                    "t1": rel_end,
                    "violations": len(auditor.violations),
                }
            )

        # Quiet the sources (drain the deferred tail), outlive the last
        # windowed fault, then drain to true quiescence — the terminal
        # loss identity is only meaningful over an empty pipe.
        for site in runtime.sites.values():
            site.stop_sources(drain=True)
        fault_end = t0 + plan.horizon() + 60.0
        if engine.sim.now < fault_end:
            engine.run_until(fault_end)
        drain_cap = engine.sim.now + 3600.0

        def drain_pipe() -> None:
            while runtime.in_pipe() and engine.sim.now < drain_cap:
                engine.run_until(engine.sim.now + 10.0)

        drain_pipe()
        # The last window closes up to one window length (plus the
        # watermark lag) after the last record, and only then do its
        # partials enter the batcher: drain again before the ticks
        # stop, or a horizon ending one tick into a window strands them
        # there (the batcher's flush delay outlasts the wait).
        engine.run_until(engine.sim.now + job.watermark_lag + scn.window_s)
        drain_pipe()
        drained = runtime.in_pipe() == 0
        runtime.stop()
        if plane is not None:
            plane.stop()
        engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
        engine.env.finalize()

        audit_report = auditor.finish(quiescent=True)
        cost = engine.ledger.summary(
            windows=len(runtime.results) or None,
            records=runtime.records_ingested() or None,
        )

        all_results = runtime.results
        phases = []
        for i, (rel_start, rel_end) in enumerate(self.phase_bounds()):
            lo, hi = t0 + rel_start, t0 + rel_end
            last = i == len(phase_marks) - 1
            bucket = [
                r for r in all_results
                if lo <= r.emitted_at < hi or (last and r.emitted_at >= hi)
            ]
            stats = LatencyStats.from_results(bucket)
            p99 = stats.p99 if stats else None
            phases.append(
                {
                    "phase": i,
                    "t0": rel_start,
                    "t1": rel_end,
                    "results": len(bucket),
                    "records": sum(r.record_count for r in bucket),
                    "p99": p99,
                    "lineage_complete": sum(
                        1 for r in bucket
                        if r.lineage is not None and r.lineage.complete
                    ),
                    "violations": phase_marks[i]["violations"],
                }
            )

        sites = list(runtime.sites.values())
        backends = [site.shipping for site in sites]
        sources = [src for site in sites for src in site.spec.sources]
        agg = runtime.aggregator
        result = SoakResult(
            seed=cfg.seed,
            profile=cfg.profile,
            hours=cfg.hours,
            scenario=scn.summary(),
            fault_counts=_fault_counts(injector),
            faults_applied=len(injector.log),
            sources=len(sources),
            ingested=runtime.records_ingested(),
            counted=runtime.records_in_results(),
            results=len(all_results),
            shed=runtime.records_shed(),
            late_dropped=sum(s.aggregator.late_dropped for s in sites),
            late_partial_records=agg.late_partial_records,
            abandoned_records=sum(b.records_abandoned for b in backends),
            duplicates_dropped=agg.duplicates_dropped,
            retries=sum(b.retries for b in backends),
            failovers=len(plane.failovers) if plane is not None else 0,
            failover_mttr_max=(
                plane.mttr_stats()["mttr_max"] if plane is not None else 0.0
            ),
            epochs=plane.lease.epoch if plane is not None else 0,
            standby_syncs=plane.standby_syncs if plane is not None else 0,
            admission_rejected=runtime.records_admission_rejected(),
            retry_budget_exhausted=sum(
                getattr(b, "retry_budget_exhausted", 0) for b in backends
            ),
            backlog_peaks={s.spec.region: s.max_backlog for s in sites},
            max_deferred=sum(src.max_deferred for src in sources),
            checkpoints=store.saves if store is not None else 0,
            latency=runtime.latency_stats(),
            lineage=runtime.lineage_stats(),
            phases=phases,
            wan_bytes=runtime.wan_bytes(),
            audit=audit_report.to_dict(),
            cost=cost.to_dict(),
            usd_per_1k=cost.usd_per_1k_records,
            slo_violations=len(audit_report.violations),
            strict_slo=cfg.strict_slo,
            drained=drained,
        )
        return ScenarioReport(
            scenario="soak",
            config=cfg.to_dict(),
            seed=cfg.seed,
            virtual_seconds=engine.sim.now,
            wall_seconds=time.perf_counter() - wall0,
            details=result,
            metrics=metrics_snapshot(self.observer),
        )


def _fault_counts(injector: FaultInjector) -> dict[str, int]:
    counts: dict[str, int] = {}
    for applied in injector.log:
        counts[applied.kind] = counts.get(applied.kind, 0) + 1
    return dict(sorted(counts.items()))


def run_soak(
    config: SoakConfig | dict | None = None,
    *,
    observer=None,
    **legacy,
) -> ScenarioReport:
    """Generate a scenario from the seed and soak it (virtual time).

    Accepts a :class:`~repro.config.SoakConfig` (or its dict form) like
    every other scenario entry point; returns a
    :class:`~repro.report.ScenarioReport` whose payload is the
    :class:`SoakResult` — ``report.digest`` is the reproducibility
    handle.
    """
    cfg = resolve_config(
        SoakConfig, config, legacy,
        "run_soak(seed=..., hours=..., ...)",
        "run_soak(SoakConfig(...))",
    )
    return SoakRunner(cfg, observer=observer).run()


__all__ = ["SoakResult", "SoakRunner", "run_soak"]
