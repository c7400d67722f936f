"""The scripted overload-recovery scenario behind ``sage overload``.

:func:`run_overload` builds a deterministic geo-streaming run (two
producing sites, one aggregation site, reliable shipping with a bounded
in-flight window and per-link circuit breakers, periodic checkpointing)
and scripts three stresses on top of it:

1. a **5× ingest burst** at both sites — sustained load beyond the
   sites' processing capacity, so the configured overload policy
   actually has to answer;
2. a **link brownout** — the first site's WAN link to the aggregation
   region drops to a tenth of its capacity mid-burst, saturating the
   shipping window and exercising breaker + upstream backpressure;
3. an **aggregator crash** during the recovery tail, restarted from the
   latest checkpoint with upstream batch replay.

The run drains cleanly, so the overload contract can be checked
exactly per policy:

* ``block`` — zero lost records, every site's backlog bounded by
  ``max_backlog``; the overload surfaces as deferral (source pending
  buffers) and latency;
* ``shed`` — latency stays bounded and every lost record is accounted:
  ``ingested − counted`` equals shed (site + shipping) + late drops;
* ``degrade`` — memory bounded at twice the nominal bound, coarse-mode
  ticks counted;
* all policies — the crash/restart emits every window exactly once
  (checkpoint + ``(origin, seq)`` dedup + replay), deterministically
  under a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cloud.deployment import CloudEnvironment
from repro.config import OverloadConfig, resolve_config
from repro.core.engine import SageEngine
from repro.report import ScenarioReport, metrics_snapshot
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flow.policy import FlowConfig
from repro.obs.audit import SLOAuditor
from repro.simulation.units import format_bytes
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, LatencyStats
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.sources import BurstSource
from repro.streaming.windows import TumblingWindows


@dataclass
class OverloadResult:
    """Everything the overload report needs, in plain numbers."""

    seed: int
    policy: str
    duration: float
    max_backlog_bound: int
    ingested: int
    counted: int
    results: int
    #: Per-site peak backlog depth (records), keyed by region.
    backlog_peaks: dict[str, int] = field(default_factory=dict)
    #: Source records still deferred when sources stopped (block).
    deferred_final: int = 0
    max_deferred: int = 0
    shed_site: int = 0
    shed_shipping: int = 0
    late_dropped: int = 0
    late_partial_records: int = 0
    blocked_ticks: int = 0
    degraded_ticks: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    retries: int = 0
    abandoned: int = 0
    abandoned_records: int = 0
    duplicates_dropped: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    aggregator_crashes: int = 0
    batches_dropped_while_down: int = 0
    batches_replayed: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats.empty)
    wan_bytes: float = 0.0
    #: Continuous-auditor outcome (:class:`repro.obs.audit.AuditReport`
    #: dict form) and attributed cost rollup.
    audit: dict = field(default_factory=dict)
    cost: dict = field(default_factory=dict)
    slo_violations: int = 0
    strict_slo: bool = False

    @property
    def shed(self) -> int:
        return self.shed_site + self.shed_shipping

    @property
    def lost(self) -> int:
        return max(0, self.ingested - self.counted)

    @property
    def accounted(self) -> bool:
        """Every missing record is explained by a shed/late counter."""
        return self.lost == (
            self.shed
            + self.late_dropped
            + self.late_partial_records
            + self.abandoned_records
        )

    @property
    def backlog_bounded(self) -> bool:
        """No site's buffer ever exceeded its policy bound.

        ``degrade`` trims at twice the bound by contract; ``block`` and
        ``shed`` must hold the bound itself.
        """
        bound = self.max_backlog_bound
        if self.policy == "degrade":
            bound *= 2
        return all(peak <= bound for peak in self.backlog_peaks.values())

    @property
    def clean(self) -> bool:
        """The overload contract held for the configured policy."""
        ok = self.backlog_bounded and self.accounted
        if self.policy == "block":
            ok = ok and self.lost == 0
        if self.strict_slo:
            ok = ok and self.slo_violations == 0
        return ok

    def describe(self) -> str:
        peaks = ", ".join(
            f"{region}={peak}"
            for region, peak in sorted(self.backlog_peaks.items())
        )
        lines = [
            f"overload run: policy={self.policy} seed={self.seed} "
            f"duration={self.duration:.0f}s",
            "",
            f"backlog bound {self.max_backlog_bound}, peaks: {peaks}"
            + ("" if self.backlog_bounded else "  ** BOUND EXCEEDED **"),
            f"source deferral: peak {self.max_deferred}, "
            f"final {self.deferred_final}",
            f"blocked ticks {self.blocked_ticks}, "
            f"degraded ticks {self.degraded_ticks}",
            f"shed: {self.shed_site} at sites, "
            f"{self.shed_shipping} in shipping; "
            f"late: {self.late_dropped} site-dropped, "
            f"{self.late_partial_records} in late partials",
            f"breaker: {self.breaker_opens} opens, "
            f"{self.breaker_closes} closes; "
            f"shipping: {self.retries} retries, {self.abandoned} abandoned",
            f"checkpoints: {self.checkpoints} "
            f"({format_bytes(float(self.checkpoint_bytes))} durable), "
            f"aggregator crashes {self.aggregator_crashes}, "
            f"{self.batches_dropped_while_down} deliveries while down, "
            f"{self.batches_replayed} batches replayed",
            f"aggregator dedup: {self.duplicates_dropped} duplicate batches",
            "",
            f"records ingested: {self.ingested}",
            f"records counted:  {self.counted} "
            f"in {self.results} window results "
            f"(lost {self.lost}, "
            + ("accounted" if self.accounted else "UNACCOUNTED")
            + ")",
            self.latency.describe(),
            f"wide-area bytes: {format_bytes(self.wan_bytes)}",
            f"auditor: {self.audit.get('checks', 0)} checks, "
            f"{self.slo_violations} violations"
            + (" (strict)" if self.strict_slo else ""),
            "",
            "verdict: "
            + (
                "CLEAN — overload contract held"
                if self.clean
                else "OVERLOAD CONTRACT VIOLATED"
            ),
        ]
        return "\n".join(lines)


def run_overload(
    config: OverloadConfig | str | dict | None = None,
    *,
    observer=None,
    **legacy,
) -> ScenarioReport:
    """Run the scripted overload scenario to completion (virtual time).

    Takes an :class:`~repro.config.OverloadConfig` (or its dict form);
    the pre-dataclass keyword surface (``policy=``, ``seed=``, ...) —
    including the old ``policy`` first positional — still works but
    emits :class:`DeprecationWarning`. Returns a
    :class:`~repro.report.ScenarioReport` whose ``details`` is the
    :class:`OverloadResult` payload (attribute access falls through).

    Each site's processing capacity is set to twice ``base_rate``, so
    the ``burst_factor``× spike in ``burst_window`` overloads it by a
    wide margin and the post-burst drain still completes within the
    run. ``brownout`` is ``(start, duration, capacity_scale)`` on the
    first site's link to the aggregation region (None disables it);
    ``crash_at``/``restart_after`` script the aggregator crash (None
    disables). Same seed, same numbers — the determinism test relies
    on it.
    """
    if isinstance(config, str):  # pre-dataclass positional policy
        legacy["policy"] = config
        config = None
    cfg = resolve_config(
        OverloadConfig, config, legacy,
        "run_overload(policy=..., seed=..., ...)",
        "run_overload(OverloadConfig(...))",
    )
    wall0 = time.perf_counter()
    policy = cfg.policy
    seed = cfg.seed
    duration = cfg.duration
    site_regions = cfg.site_regions
    aggregation_region = cfg.aggregation_region
    base_rate = cfg.base_rate
    burst_factor = cfg.burst_factor
    burst_window = cfg.burst_window
    max_backlog = cfg.max_backlog
    brownout = cfg.brownout
    crash_at = cfg.crash_at
    restart_after = cfg.restart_after
    checkpoint_interval = cfg.checkpoint_interval

    flow = FlowConfig(
        policy=policy,
        max_backlog=max_backlog,
        max_inflight=8,
        # ``block`` must never shed in the shipping layer; the lossy
        # policies bound the parked queue as well.
        max_pending=None if policy == "block" else 64,
        breaker_threshold=3,
        breaker_reset=20.0,
    )
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    spec = {site_regions[0]: 2, site_regions[1]: 2, aggregation_region: 4}
    engine = SageEngine(env, deployment_spec=spec, observer=observer)
    engine.start(learning_phase=120.0)

    job = StreamJob(
        name="overload",
        sites=[
            SiteSpec(
                region,
                [
                    BurstSource(
                        f"src-{region}",
                        base_rate=base_rate,
                        burst_rate=base_rate * burst_factor,
                        burst_start=burst_window[0],
                        burst_end=burst_window[1],
                        keys=["k1", "k2"],
                    )
                ],
            )
            for region in site_regions
        ],
        aggregation_region=aggregation_region,
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        # The grace must cover the worst partial-arrival delay: source
        # deferral under ``block`` (tens of seconds), plus brownout
        # retries with backoff. 120s holds all of it with margin.
        finalize_grace=120.0,
        flow=flow,
    )
    factory = ReliableShipping.factory(
        SageShipping.factory(n_nodes=2, plan_ttl=30.0),
        delivery_timeout=15.0,
        max_retries=8,
        max_inflight=flow.max_inflight,
        max_pending=flow.max_pending,
        breaker=True,
        breaker_threshold=flow.breaker_threshold,
        breaker_reset=flow.breaker_reset,
    )
    runtime = GeoStreamRuntime(
        engine, job, factory, per_vm_records_per_s=base_rate
    )
    store = runtime.enable_checkpointing(
        interval=checkpoint_interval
    ).store
    auditor = SLOAuditor(
        engine,
        runtime,
        max_latency_s=cfg.slo_max_latency_s,
        max_usd_per_1k=cfg.slo_max_usd_per_1k,
    ).start()

    if brownout is not None:
        start, length, scale = brownout
        plan = FaultPlan()
        if scale <= 0.0:
            # Full blackhole: the fault bus announces link.down, so the
            # breaker trips through detector cooperation, not timeouts.
            plan.link_down(
                start, site_regions[0], aggregation_region, duration=length
            )
        else:
            plan.flap_link(
                start, site_regions[0], aggregation_region, scale, length
            )
        FaultInjector(engine, plan).arm()

    replayed = [0]
    if crash_at is not None:

        def _crash() -> None:
            runtime.crash_aggregator()

        def _restart() -> None:
            before = sum(
                site.retained_batches for site in runtime.sites.values()
            )
            runtime.restart_aggregator()
            replayed[0] += before

        engine.sim.schedule(crash_at, _crash)
        engine.sim.schedule(crash_at + restart_after, _restart)

    t0 = engine.sim.now
    runtime.start()
    engine.run_until(t0 + duration)
    # Quiet the sources but keep ticking so backlogs drain, watermarks
    # pass every open window, and the batchers flush. ``drain`` lets a
    # blocked source deliver its deferred tail instead of freezing it
    # (which would pin the watermark and strand open windows).
    for site in runtime.sites.values():
        site.stop_sources(drain=True)
    # Outlive the scripted faults (a short run may stop the sources with
    # the crash/restart or the blackout still ahead) ...
    horizon = t0 + duration
    if crash_at is not None:
        horizon = max(horizon, t0 + crash_at + restart_after)
    if brownout is not None:
        horizon = max(horizon, t0 + brownout[0] + brownout[1])
    if engine.sim.now < horizon:
        engine.run_until(horizon)

    # ... then drain to *quiescence*, not a fixed window: the recovery
    # tail is data-dependent (stopping mid-burst leaves full buffers),
    # and killing the ticks with records still in the pipe would lose
    # them silently — exactly what the overload contract forbids. The
    # cap only bounds a runaway policy bug, never healthy recovery.
    drain_cap = engine.sim.now + 1800.0
    while runtime.in_pipe() and engine.sim.now < drain_cap:
        engine.run_until(engine.sim.now + 10.0)
    engine.run_until(engine.sim.now + job.watermark_lag + 30.0)
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
    engine.env.finalize()

    audit_report = auditor.finish()
    cost = engine.ledger.summary(
        windows=len(runtime.results) or None,
        records=runtime.records_ingested() or None,
    )
    sites = list(runtime.sites.values())
    backends = [site.shipping for site in sites]
    breakers = [b.breaker for b in backends if b.breaker is not None]
    sources = [src for site in sites for src in site.spec.sources]
    agg = runtime.aggregator
    result = OverloadResult(
        seed=seed,
        policy=policy,
        duration=duration,
        max_backlog_bound=max_backlog,
        ingested=runtime.records_ingested(),
        counted=runtime.records_in_results(),
        results=len(runtime.results),
        backlog_peaks={
            site.spec.region: site.max_backlog for site in sites
        },
        deferred_final=sum(src.pending_count for src in sources),
        max_deferred=sum(src.max_deferred for src in sources),
        shed_site=sum(site.records_shed for site in sites),
        shed_shipping=sum(b.records_shed for b in backends),
        late_dropped=sum(site.aggregator.late_dropped for site in sites),
        late_partial_records=agg.late_partial_records,
        blocked_ticks=sum(site.blocked_ticks for site in sites),
        degraded_ticks=sum(site.degraded_ticks for site in sites),
        breaker_opens=sum(b.opens for b in breakers),
        breaker_closes=sum(b.closes for b in breakers),
        retries=sum(b.retries for b in backends),
        abandoned=sum(b.abandoned for b in backends),
        abandoned_records=sum(b.records_abandoned for b in backends),
        duplicates_dropped=agg.duplicates_dropped,
        checkpoints=store.saves,
        checkpoint_bytes=store.size_bytes("aggregator"),
        aggregator_crashes=runtime.aggregator_crashes,
        batches_dropped_while_down=runtime.batches_dropped_while_down,
        batches_replayed=replayed[0],
        latency=runtime.latency_stats(),
        wan_bytes=runtime.wan_bytes(),
        audit=audit_report.to_dict(),
        cost=cost.to_dict(),
        slo_violations=len(audit_report.violations),
        strict_slo=cfg.strict_slo,
    )
    return ScenarioReport(
        scenario="overload",
        config=cfg.to_dict(),
        seed=seed,
        virtual_seconds=engine.sim.now,
        wall_seconds=time.perf_counter() - wall0,
        details=result,
        metrics=metrics_snapshot(observer),
    )


__all__ = ["OverloadResult", "run_overload"]
