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
from dataclasses import dataclass, field
from hashlib import sha256

from repro.config import ControlConfig, SoakConfig, resolve_config
from repro.gen.scenario import ScenarioGenerator
from repro.report import ScenarioReport, canonical_json, canonical_value
from repro.scenarios.harness import Scenario, ScenarioPayload, ScenarioRun
from repro.simulation.units import format_bytes
from repro.streaming.dataflow import SiteSpec
from repro.streaming.runtime import LatencyStats


@dataclass
class SoakResult(ScenarioPayload):
    """Deterministic outcome of one generated soak (digest-stable)."""

    profile: str
    hours: float
    scenario: dict = field(default_factory=dict)
    #: Applied-fault counts by kind plus total, from the injector log.
    fault_counts: dict = field(default_factory=dict)
    faults_applied: int = 0
    sources: int = 0
    shed: int = 0
    late_dropped: int = 0
    late_partial_records: int = 0
    abandoned_records: int = 0
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
    usd_per_1k: float = 0.0
    drained: bool = True

    @property
    def clean(self) -> bool:
        return self.accounted and self.drained and self.slo_ok

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
            self.audit_line(),
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
    def _schedule_kills(self, plan, control: ControlConfig) -> None:
        """Spread exactly N unplanned leader kills across the middle.

        Kills are evenly spaced over ``[15%, 70%]`` of the horizon — the
        same deterministic-event window the generated adversity uses —
        and must be at least one full recovery (MTTR bound + respawn
        delay + margin) apart, so every kill hits a settled plane with a
        live leader and the run measures N independent failovers.
        """
        n = self.config.failovers
        horizon = self.scenario.horizon_s
        recovery = control.mttr_bound + control.respawn_delay
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

    def run(self) -> ScenarioReport:
        cfg, scn = self.config, self.scenario
        by_region = scn.traffic.by_region()
        armed = cfg.failovers > 0  # control plane + scheduled leader kills
        control = ControlConfig()

        def plan(engine):
            vm_ids = {
                region: [vm.vm_id for vm in engine.deployment.vms(region)]
                for region in scn.site_regions
            }
            adversity = self.generator.adversity(scn, vm_ids)
            if armed:
                self._schedule_kills(adversity, control)
            return adversity

        scenario = Scenario(
            name="soak",
            config=cfg,
            deployment=scn.deployment,
            sites=[
                SiteSpec(region, [p.build_source() for p in by_region.get(region, [])])
                for region in scn.site_regions
            ],
            aggregation_region=scn.aggregation_region,
            phases=self.phase_bounds(),
            payload=lambda run: run.fill(
                SoakResult, profile=cfg.profile, hours=cfg.hours, scenario=scn.summary()
            ),
            window_s=scn.window_s,
            policy=cfg.policy,
            max_backlog=cfg.max_backlog,
            # Site capacity sits at ~2.5× the generated mean: diurnal peaks
            # clear it comfortably, flash crowds exceed it — so overload
            # handling is actually exercised, not idled through.
            per_vm_records_per_s=max(
                5.0,
                *(
                    2.5 * scn.traffic.mean_rate(region) / scn.deployment[region]
                    for region in scn.site_regions
                ),
            ),
            delivery_timeout=cfg.delivery_timeout,
            max_retries=cfg.max_retries,
            # Failover soaks need the exactly-once substrate even when the
            # config left checkpointing off.
            checkpoint_interval=cfg.checkpoint_interval or (30.0 if armed else 0.0),
            # Standbys co-locate with the first two site regions (each has
            # >= 2 VMs; the standby takes the last one), so the generated
            # layout needs no extra regions and a promotion exercises the
            # site->local-aggregator handover path too.
            standbys=tuple(scn.site_regions[:2]) if armed else (),
            control=control,
            check_interval=cfg.check_interval,
            plan=plan,
        )
        return ScenarioRun(scenario, self.observer).execute()


def run_soak(
    config: SoakConfig | dict | None = None,
    *,
    observer=None,
) -> ScenarioReport:
    """Generate a scenario from the seed and soak it (virtual time).

    Accepts a :class:`~repro.config.SoakConfig` (or its dict form) like
    every other scenario entry point; returns a
    :class:`~repro.report.ScenarioReport` whose payload is the
    :class:`SoakResult` — ``report.digest`` is the reproducibility
    handle.
    """
    cfg = resolve_config(SoakConfig, config)
    return SoakRunner(cfg, observer=observer).run()


__all__ = ["SoakResult", "SoakRunner", "run_soak"]
