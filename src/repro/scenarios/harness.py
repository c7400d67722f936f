"""The one scenario harness: a single lifecycle and a single quiescence rule.

``chaos``, ``overload``, ``serve`` and ``soak`` are :class:`Scenario` values;
everything else happens here, once, in a fixed order::

    env + engine + learning phase -> job + runtime -> checkpointing
      -> control plane -> auditor -> injector -> timed actions
      -> runtime.start -> phases -> quiesce -> auditor.finish + ledger
      -> rollup -> payload -> ScenarioReport

The auditor is armed the same way for every scenario (continuous loss bound on
every tick, loss identity at the quiescent finish), and ``virtual_seconds``, VM
cost and checkpoint counts all measure the one accounting window that
:meth:`ScenarioRun._quiesce` closes. DESIGN.md, "Scenario harness", has the why.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cloud.deployment import CloudEnvironment
from repro.config import ControlConfig, ScenarioConfig
from repro.control.plane import ControlPlane
from repro.core.engine import SageEngine
from repro.faults.injector import FaultInjector
from repro.flow.policy import FlowConfig
from repro.obs.audit import SLOAuditor
from repro.report import ScenarioReport, metrics_snapshot
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, LatencyStats
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.windows import TumblingWindows


@dataclass(kw_only=True)
class ScenarioPayload:
    """What every scenario payload shares: the common counters, the auditor
    outcome, and the one definition of ``lost`` / ``explained`` / ``accounted``.
    A payload that does not track a loss term (chaos sheds nothing, overload
    has no admission gate) inherits the zero below, so the identity always has
    the same five terms.
    """

    seed: int
    ingested: int
    counted: int
    results: int
    strict_slo: bool
    retries: int = 0
    duplicates_dropped: int = 0
    wan_bytes: float = 0.0
    #: Continuous-auditor outcome (:class:`repro.obs.audit.AuditReport` dict
    #: form) and attributed cost rollup.
    audit: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    slo_violations: int = 0

    shed = late_dropped = late_partial_records = 0
    abandoned_records = admission_rejected = 0

    @property
    def lost(self) -> int:
        return max(0, self.ingested - self.counted)

    @property
    def explained(self) -> int:
        """Loss the shed/late/abandoned/admission counters explain."""
        return (
            self.shed + self.late_dropped + self.late_partial_records
            + self.abandoned_records + self.admission_rejected
        )

    @property
    def accounted(self) -> bool:
        return self.lost == self.explained

    @property
    def slo_ok(self) -> bool:
        """Zero auditor violations — or nobody asked (``strict_slo`` off)."""
        return not self.strict_slo or self.slo_violations == 0

    def audit_line(self) -> str:
        strict = " (strict)" if self.strict_slo else ""
        checks = self.audit.get("checks", 0)
        return f"auditor: {checks} checks, {self.slo_violations} violations{strict}"


@dataclass
class Scenario:
    """What differs between scenarios; the harness owns the rest."""

    name: str
    #: The harness reads ``seed``, ``strict_slo`` and the ``slo_max_*`` bounds.
    config: ScenarioConfig
    deployment: dict[str, int]
    sites: list[SiteSpec]
    aggregation_region: str
    #: Relative ``[t0, t1)`` phase windows; sources stop at the last ``t1``.
    phases: list[tuple[float, float]]
    #: ``payload(run)`` builds the result dataclass, via :meth:`ScenarioRun.fill`.
    payload: Callable[["ScenarioRun"], Any]
    window_s: float = 10.0
    #: Must cover a batch's worst recovery path: detection or stall, source
    #: deferral under ``block``, retries with backoff until the route heals.
    finalize_grace: float = 120.0
    #: Overload policy; ``None`` = no flow control, in-flight window or breaker.
    policy: str | None = None
    max_backlog: int = 0
    per_vm_records_per_s: float = 5000.0
    delivery_timeout: float = 15.0
    max_retries: int = 8
    retry_budget: int | None = None
    #: Aggregator checkpoint cadence in seconds (0 = no checkpointing).
    checkpoint_interval: float = 0.0
    #: Warm standbys in promotion order; non-empty arms the control plane.
    standbys: tuple[str, ...] = ()
    control: ControlConfig | None = None
    check_interval: float = 5.0  # virtual seconds between auditor checks
    #: ``plan(engine) -> FaultPlan | None``; event times are relative to arming.
    plan: Callable[[SageEngine], Any] | None = None
    #: ``(seconds after arming, action(run))`` one-shot events.
    actions: tuple[tuple[float, Callable[["ScenarioRun"], None]], ...] = ()


def sites_of(regions, source: Callable[[str], Any]) -> list[SiteSpec]:
    """One ``source(name)`` per region — the scripted scenarios' layout."""
    return [SiteSpec(region, [source(f"src-{region}")]) for region in regions]


class ScenarioRun:
    """One scenario: armed by the constructor, run by :meth:`execute`."""

    def __init__(self, scenario: Scenario, observer=None) -> None:
        self._wall0 = time.perf_counter()
        self.scenario = s = scenario
        self.observer = observer
        cfg = s.config
        env = CloudEnvironment(seed=cfg.seed, variability_sigma=0.0, glitches=False)
        self.engine = engine = SageEngine(
            env, deployment_spec=dict(s.deployment), observer=observer
        )
        engine.start(learning_phase=120.0)

        flow = None
        if s.policy is not None:
            flow = FlowConfig(policy=s.policy, max_backlog=s.max_backlog)
        job = StreamJob(
            name=s.name,
            sites=s.sites,
            aggregation_region=s.aggregation_region,
            windows=TumblingWindows(s.window_s),
            aggregate=builtin_aggregate("count"),
            finalize_grace=s.finalize_grace,
            flow=flow,
        )
        factory = ReliableShipping.factory(
            SageShipping.factory(n_nodes=2, plan_ttl=30.0),
            delivery_timeout=s.delivery_timeout,
            max_retries=s.max_retries,
            retry_budget=s.retry_budget,
            flow=flow,
        )
        self.runtime = runtime = GeoStreamRuntime(
            engine, job, factory, per_vm_records_per_s=s.per_vm_records_per_s
        )
        if s.checkpoint_interval > 0:
            runtime.enable_checkpointing(interval=s.checkpoint_interval)
        self.plane = None
        if s.standbys:
            self.plane = ControlPlane(engine, runtime, s.control)
            self.plane.add_leader()
            for region in s.standbys:
                self.plane.add_standby(region)
            self.plane.start()
        self.auditor = SLOAuditor(
            engine,
            runtime,
            max_latency_s=cfg.slo_max_latency_s,
            max_usd_per_1k=cfg.slo_max_usd_per_1k,
            check_interval=s.check_interval,
            continuous_loss=True,
            control=self.plane,
        ).start()
        if self.plane is not None:
            self.plane.auditor = self.auditor
        plan = s.plan(engine) if s.plan is not None else None
        self.injector = None
        if plan is not None:
            self.injector = FaultInjector(engine, plan).arm()
        for at, action in s.actions:
            engine.sim.schedule(at, action, self)
        self.t0 = engine.sim.now
        self.rollup: dict[str, Any] = {}
        runtime.start()

    def execute(self) -> ScenarioReport:
        """Run the phases, quiesce, and assemble the report (virtual time)."""
        engine, s = self.engine, self.scenario
        marks = []  # cumulative violations at each phase end
        for _, rel_end in s.phases:
            engine.run_until(self.t0 + rel_end)
            marks.append(len(self.auditor.violations))
        stopped_at, drained = self._quiesce()
        audit = self.auditor.finish(quiescent=True)
        self.rollup = self._rollup(audit, marks, stopped_at, drained)
        return ScenarioReport(
            scenario=s.name,
            config=s.config.to_dict(),
            seed=s.config.seed,
            virtual_seconds=engine.sim.now,
            wall_seconds=time.perf_counter() - self._wall0,
            details=s.payload(self),
            metrics=metrics_snapshot(self.observer),
        )

    def _quiesce(self) -> tuple[float, bool]:
        """Stop, drain to an empty pipe, close the accounting window; returns
        when the sources stopped and whether the pipe emptied."""
        engine, runtime, job = self.engine, self.runtime, self.runtime.job
        for site in runtime.sites.values():
            # Deliver a blocked source's deferred tail: frozen, it pins the watermark.
            site.stop_sources(drain=True)
        stopped_at = engine.sim.now
        # Outlive the last windowed fault and timed action (a short run may
        # stop its sources with a crash or a blackout still ahead): the
        # terminal loss identity only means something over a healed pipe.
        scripted = [at for at, _ in self.scenario.actions]
        if self.injector is not None:
            scripted.append(self.injector.plan.horizon())
        fault_end = self.t0 + max(scripted, default=0.0) + 60.0
        if engine.sim.now < fault_end:
            engine.run_until(fault_end)
        # Drain to *quiescence*, not for a fixed time: the recovery tail is
        # data-dependent, and stopping the ticks with records in the pipe would
        # lose them silently. The cap only bounds a runaway policy bug.
        drain_cap = engine.sim.now + 3600.0

        def drain_pipe() -> None:
            while runtime.in_pipe() and engine.sim.now < drain_cap:
                engine.run_until(engine.sim.now + 10.0)

        drain_pipe()
        # The last window closes up to one window length (plus the watermark
        # lag) after the last record, and only then do its partials enter the
        # batcher: drain again before the ticks stop, or a horizon ending one
        # tick into a window strands them there (the batcher's flush delay
        # outlasts the wait).
        engine.run_until(engine.sim.now + job.watermark_lag + self.scenario.window_s)
        drain_pipe()
        drained = runtime.in_pipe() == 0
        runtime.stop()
        if self.plane is not None:
            self.plane.stop()
        engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
        engine.env.finalize()
        return stopped_at, drained

    def _rollup(self, audit, marks, stopped_at: float, drained: bool) -> dict:
        """Sum backends, sites and sources into counters — the one place."""
        engine, runtime = self.engine, self.runtime
        plane, store = self.plane, runtime.checkpoint_store
        sites = list(runtime.sites.values())
        backends = [site.shipping for site in sites]
        breakers = [b.breaker for b in backends if b.breaker is not None]
        sources = [src for site in sites for src in site.spec.sources]
        agg = runtime.aggregator
        results = runtime.results
        ingested = runtime.records_ingested()
        cost = engine.ledger.summary(
            windows=len(results) or None, records=ingested or None
        )
        meter = engine.env.meter.snapshot()
        detector = engine.detector
        faults = list(self.injector.log) if self.injector is not None else []
        fault_counts = Counter(applied.kind for applied in faults)
        emitted_at = results.emitted_at()
        latencies = results.latencies()
        last_emit = float(emitted_at.max()) if len(results) else stopped_at
        shed_site = sum(site.records_shed for site in sites)
        shed_shipping = sum(b.records_shed for b in backends)
        out = dict(
            seed=self.scenario.config.seed,
            strict_slo=self.scenario.config.strict_slo,
            ingested=ingested,
            counted=results.records(),
            results=len(results),
            # String keys so the canonical JSON round-trips.
            results_by_epoch=dict(Counter(map(str, results.epochs().tolist()))),
            faults=faults,
            fault_counts=dict(sorted(fault_counts.items())),
            faults_applied=len(faults),
            sources=len(sources),
            shed_site=shed_site,
            shed_shipping=shed_shipping,
            **runtime.loss_terms(),
            retries=sum(b.retries for b in backends),
            retry_budget_exhausted=sum(b.retry_budget_exhausted for b in backends),
            abandoned=sum(b.abandoned for b in backends),
            duplicates_delivered=sum(b.duplicates_delivered for b in backends),
            duplicates_dropped=agg.duplicates_dropped,
            breaker_opens=sum(b.opens for b in breakers),
            breaker_closes=sum(b.closes for b in breakers),
            blocked_ticks=sum(site.blocked_ticks for site in sites),
            degraded_ticks=sum(site.degraded_ticks for site in sites),
            backlog_peaks={site.spec.region: site.max_backlog for site in sites},
            deferred_final=sum(src.pending_count for src in sources),
            max_deferred=sum(src.max_deferred for src in sources),
            checkpoints=store.saves if store is not None else 0,
            checkpoint_bytes=store.size_bytes("aggregator") if store is not None else 0,
            aggregator_crashes=runtime.aggregator_crashes,
            batches_dropped_while_down=runtime.batches_dropped_while_down,
            suspicions=detector.suspicions,
            recoveries=detector.recoveries,
            detection_latencies=list(detector.detection_latencies),
            detection_bound=detector.detection_latency_bound(),
            drain_seconds=max(0.0, last_emit - stopped_at),
            drained=drained,
            latency=LatencyStats.from_latencies(latencies),
            lineage=runtime.lineage_stats(),
            phases=list(self._phases(
                emitted_at, latencies, results.counts(), results.complete(), marks
            )),
            wan_bytes=runtime.wan_bytes(),
            egress_bytes=meter.egress_bytes,
            egress_usd=meter.egress_usd,
            audit=audit.to_dict(),
            cost=cost.to_dict(),
            usd_per_1k=cost.usd_per_1k_records,
            slo_violations=len(audit.violations),
        )
        if plane is not None:
            mttr = plane.mttr_stats()  # failovers, mttr_max / _mean / _bound
            out.update(
                mttr,
                failover_mttr_max=mttr["mttr_max"],
                failover_log=[f.to_dict() for f in plane.failovers],
                kills=plane.kills,
                epochs=plane.lease.epoch,
                config_versions=plane.config_version,
                config_log=list(plane.config_log),
                standby_syncs=plane.standby_syncs,
                respawns=plane.respawns,
            )
        return out

    def _phases(self, emitted_at, latencies, counts, complete, marks: list[int]):
        """Per-phase rollups: results (columns of every result, in order)
        bucketed by emission time (the drain tail belongs to the last
        phase), p99 latency, lineage completeness."""
        for i, (rel_start, rel_end) in enumerate(self.scenario.phases):
            lo, hi = self.t0 + rel_start, self.t0 + rel_end
            bucket = (lo <= emitted_at) & (emitted_at < hi)
            if i == len(marks) - 1:
                bucket |= emitted_at >= hi
            stats = LatencyStats.from_latencies(latencies[bucket])
            yield {
                "phase": i,
                "t0": rel_start,
                "t1": rel_end,
                "results": int(bucket.sum()),
                "records": int(counts[bucket].sum()),
                "p99": stats.p99 if stats else None,
                "lineage_complete": int(complete[bucket].sum()),
                "violations": marks[i],
            }

    def fill(self, payload_cls, **own):
        """``payload_cls`` filled by field name from the rollup; ``own`` is
        what only the scenario knows (and wins on a clash)."""
        names = {f.name for f in dataclasses.fields(payload_cls)}
        picked = {k: v for k, v in self.rollup.items() if k in names}
        return payload_cls(**{**picked, **own})


__all__ = ["Scenario", "ScenarioPayload", "ScenarioRun", "sites_of"]
