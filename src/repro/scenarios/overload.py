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

from dataclasses import dataclass, field

from repro.config import OverloadConfig, resolve_config
from repro.faults.plan import FaultPlan
from repro.report import ScenarioReport
from repro.scenarios.harness import Scenario, ScenarioPayload, ScenarioRun, sites_of
from repro.simulation.units import format_bytes
from repro.streaming.runtime import LatencyStats
from repro.streaming.sources import BurstSource


@dataclass
class OverloadResult(ScenarioPayload):
    """Everything the overload report needs, in plain numbers."""

    policy: str
    duration: float
    max_backlog_bound: int
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
    abandoned: int = 0
    abandoned_records: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    aggregator_crashes: int = 0
    batches_dropped_while_down: int = 0
    batches_replayed: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats.empty)

    @property
    def shed(self) -> int:
        return self.shed_site + self.shed_shipping

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
        return ok and self.slo_ok

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
            self.audit_line(),
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
    config: OverloadConfig | dict | None = None,
    *,
    observer=None,
) -> ScenarioReport:
    """Run the scripted overload scenario to completion (virtual time).

    Takes an :class:`~repro.config.OverloadConfig` (or its dict form)
    and returns a :class:`~repro.report.ScenarioReport` whose
    ``details`` is the :class:`OverloadResult` payload (attribute access
    falls through).

    Each site's processing capacity is set to twice ``base_rate``, so
    the ``burst_factor``× spike in ``burst_window`` overloads it by a
    wide margin and the post-burst drain still completes within the
    run. ``brownout`` is ``(start, duration, capacity_scale)`` on the
    first site's link to the aggregation region (None disables it);
    ``crash_at``/``restart_after`` script the aggregator crash (None
    disables). Same seed, same numbers — the determinism test relies
    on it.
    """
    cfg = resolve_config(OverloadConfig, config)
    first, second = cfg.site_regions

    def plan(engine) -> FaultPlan | None:
        if cfg.brownout is None:
            return None
        start, length, scale = cfg.brownout
        link = (first, cfg.aggregation_region)
        if scale <= 0.0:
            # Full blackhole: the fault bus announces link.down, so the
            # breaker trips through detector cooperation, not timeouts.
            return FaultPlan().link_down(start, *link, duration=length)
        return FaultPlan().flap_link(start, *link, scale, length)

    replayed = [0]

    def restart(run) -> None:
        replayed[0] += sum(s.retained_batches for s in run.runtime.sites.values())
        run.runtime.restart_aggregator()

    actions = ()
    if cfg.crash_at is not None:
        actions = (
            (cfg.crash_at, lambda run: run.runtime.crash_aggregator()),
            (cfg.crash_at + cfg.restart_after, restart),
        )
    scenario = Scenario(
        name="overload",
        config=cfg,
        deployment={first: 2, second: 2, cfg.aggregation_region: 4},
        sites=sites_of(
            cfg.site_regions,
            lambda name: BurstSource(
                name,
                base_rate=cfg.base_rate,
                burst_rate=cfg.base_rate * cfg.burst_factor,
                burst_start=cfg.burst_window[0],
                burst_end=cfg.burst_window[1],
                keys=["k1", "k2"],
            ),
        ),
        aggregation_region=cfg.aggregation_region,
        phases=[(0.0, cfg.duration)],
        payload=lambda run: run.fill(
            OverloadResult,
            policy=cfg.policy,
            duration=cfg.duration,
            max_backlog_bound=cfg.max_backlog,
            batches_replayed=replayed[0],
        ),
        policy=cfg.policy,
        max_backlog=cfg.max_backlog,
        per_vm_records_per_s=cfg.base_rate,
        checkpoint_interval=cfg.checkpoint_interval,
        plan=plan,
        actions=actions,
    )
    return ScenarioRun(scenario, observer).execute()


__all__ = ["OverloadResult", "run_overload"]
