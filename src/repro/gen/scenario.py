"""The seeded scenario generator.

One root seed expands — through :func:`~repro.simulation.random.derive_seed`
sub-streams, so every sampled axis is independent and process-stable —
into a full scenario: deployment layout, per-region heterogeneous
traffic programs, and a correlated adversity program rendered as an
ordinary :class:`~repro.faults.plan.FaultPlan`. The two-step API
(:meth:`ScenarioGenerator.generate` for everything known before
deployment, :meth:`ScenarioGenerator.adversity` once VM ids exist)
mirrors how the runtime actually boots: traffic shapes the job, faults
target the deployed VMs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import GenConfig
from repro.faults.plan import FaultPlan
from repro.gen.adversity import (
    batch_window,
    event_count,
    link_flap,
    regional_outage,
    slow_burn,
)
from repro.gen.traffic import (
    FlashCrowd,
    SourceProgram,
    TrafficProgram,
    render_rates,
    render_sizes,
)
from repro.simulation.random import derive_seed
from repro.workloads.mixes import WORKLOAD_SHAPES

#: Region universe the generator samples deployments from.
REGION_CODES = ("NEU", "WEU", "NUS", "SUS", "EUS", "WUS")

#: Named generator presets (the ``profile`` axis of ``sage soak``).
GEN_PROFILES: dict[str, GenConfig] = {
    # Diurnal traffic only — the control arm: if this one trips the
    # auditor, the bug is in the pipeline, not the adversity.
    "calm": GenConfig(
        diurnal_amplitude=0.2,
        flash_crowds_per_day=1.0,
        outages_per_day=0.0,
        flaps_per_day=0.0,
        slow_burns_per_day=0.0,
        dup_windows_per_day=0.0,
        drop_windows_per_day=0.0,
    ),
    # Strong diurnal swings + flash crowds, light network trouble.
    "diurnal": GenConfig(
        diurnal_amplitude=0.7,
        flash_crowds_per_day=6.0,
        outages_per_day=0.0,
        flaps_per_day=3.0,
        slow_burns_per_day=1.0,
        dup_windows_per_day=1.0,
        drop_windows_per_day=1.0,
    ),
    # The default: everything the generator knows, at moderate rates.
    "adversarial": GenConfig(),
    # Maximum correlated hostility the recovery machinery must absorb.
    "hostile": GenConfig(
        n_sites=4,
        diurnal_amplitude=0.8,
        flash_crowds_per_day=8.0,
        flash_peak_max=10.0,
        outages_per_day=4.0,
        flaps_per_day=12.0,
        slow_burns_per_day=4.0,
        dup_windows_per_day=6.0,
        drop_windows_per_day=6.0,
    ),
}


@dataclass(frozen=True)
class GeneratedScenario:
    """Everything :meth:`ScenarioGenerator.generate` sampled."""

    seed: int
    profile: str
    hours: float
    site_regions: tuple[str, ...]
    aggregation_region: str
    #: Region → VM count, aggregation region included.
    deployment: dict[str, int] = field(default_factory=dict)
    traffic: TrafficProgram = field(default_factory=TrafficProgram)
    window_s: float = 30.0

    @property
    def horizon_s(self) -> float:
        return self.hours * 3600.0

    def summary(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "hours": self.hours,
            "site_regions": list(self.site_regions),
            "aggregation_region": self.aggregation_region,
            "deployment": dict(sorted(self.deployment.items())),
            "window_s": self.window_s,
            "traffic": self.traffic.summary(),
        }


class ScenarioGenerator:
    """Expands ``(seed, GenConfig)`` into traffic + adversity programs."""

    def __init__(
        self, seed: int, config: GenConfig | None = None, profile: str = "custom"
    ) -> None:
        if profile in GEN_PROFILES and config is None:
            config = GEN_PROFILES[profile]
        self.seed = seed
        self.profile = profile
        self.config = config or GenConfig()

    def _rng(self, *scope: str) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(derive_seed(self.seed, "gen", self.profile, *scope))
        )

    # ------------------------------------------------------------------
    def generate(self, hours: float) -> GeneratedScenario:
        """Sample layout + traffic (everything known pre-deployment)."""
        if hours <= 0:
            raise ValueError("hours must be positive")
        cfg = self.config
        horizon = hours * 3600.0
        rng = self._rng("layout")
        codes = list(REGION_CODES)
        agg_idx = int(rng.integers(len(codes)))
        aggregation_region = codes.pop(agg_idx)
        n_sites = min(cfg.n_sites, len(codes))
        site_idx = rng.choice(len(codes), size=n_sites, replace=False)
        site_regions = tuple(codes[i] for i in sorted(int(j) for j in site_idx))
        deployment = {
            region: int(
                rng.integers(cfg.vms_per_site_min, cfg.vms_per_site_max + 1)
            )
            for region in site_regions
        }
        deployment[aggregation_region] = max(4, cfg.vms_per_site_max)

        programs: list[SourceProgram] = []
        for region in site_regions:
            mix_rng = self._rng("mix", region)
            n_shapes = int(
                mix_rng.integers(
                    cfg.shapes_per_site_min, cfg.shapes_per_site_max + 1
                )
            )
            n_shapes = min(n_shapes, len(WORKLOAD_SHAPES))
            shape_idx = mix_rng.choice(
                len(WORKLOAD_SHAPES), size=n_shapes, replace=False
            )
            for i in sorted(int(j) for j in shape_idx):
                shape = WORKLOAD_SHAPES[i]
                src_rng = self._rng("traffic", region, shape.name)
                base = float(
                    src_rng.uniform(cfg.base_rate_min, cfg.base_rate_max)
                ) * shape.rate_scale
                n_keys = int(src_rng.integers(cfg.keys_min, cfg.keys_max + 1))
                crowds = [
                    FlashCrowd(
                        t_peak=float(src_rng.uniform(0.05, 0.95)) * horizon,
                        peak_factor=float(
                            src_rng.uniform(cfg.flash_peak_min, cfg.flash_peak_max)
                        ),
                        rise_s=cfg.flash_rise_s,
                        decay_s=cfg.flash_decay_s,
                    )
                    for _ in range(
                        event_count(src_rng, cfg.flash_crowds_per_day, hours)
                    )
                ]
                rates = render_rates(
                    src_rng,
                    horizon,
                    cfg.schedule_resolution_s,
                    base,
                    cfg.diurnal_amplitude,
                    cfg.diurnal_period_s,
                    crowds,
                )
                sizes = render_sizes(
                    src_rng,
                    horizon,
                    cfg.schedule_resolution_s,
                    shape.record_bytes,
                    cfg.drift_amplitude,
                    cfg.drift_period_s,
                )
                programs.append(
                    SourceProgram(
                        name=f"{shape.name}-{region.lower()}",
                        region=region,
                        shape_name=shape.name,
                        n_keys=n_keys,
                        rates=rates,
                        sizes=sizes,
                    )
                )
        return GeneratedScenario(
            seed=self.seed,
            profile=self.profile,
            hours=hours,
            site_regions=site_regions,
            aggregation_region=aggregation_region,
            deployment=deployment,
            traffic=TrafficProgram(sources=tuple(programs)),
            window_s=cfg.window_s,
        )

    # ------------------------------------------------------------------
    def adversity(
        self,
        scenario: GeneratedScenario,
        vm_ids_by_region: dict[str, list[str]],
    ) -> FaultPlan:
        """Sample the fault plan against the *deployed* VM ids.

        Times are relative to injector arming. Every event lands inside
        ``[2%, 75%]`` of the horizon and every outage is bounded, so
        the final quarter of the run is a recovery window — the soak
        asserts the loss identity at true quiescence, which requires
        the plan to actually end. The aggregation region is never
        taken down whole: a dead aggregator cannot emit, and the soak
        is measuring recovery of the *sites*, not aggregator HA (the
        overload scenario covers that separately).
        """
        cfg = self.config
        scn = scenario
        horizon = scn.horizon_s
        t_lo, t_hi = 0.02 * horizon, 0.75 * horizon
        max_outage = min(600.0, 0.1 * horizon)
        plan = FaultPlan()
        links = [(r, scn.aggregation_region) for r in scn.site_regions]

        rng = self._rng("adversity", "outage")
        for _ in range(event_count(rng, cfg.outages_per_day, scn.hours)):
            region = scn.site_regions[int(rng.integers(len(scn.site_regions)))]
            t = float(rng.uniform(t_lo, t_hi))
            outage = min(
                max_outage, float(rng.exponential(cfg.outage_mean_s)) + 30.0
            )
            peers = [scn.aggregation_region] + [
                r for r in scn.site_regions if r != region
            ]
            regional_outage(
                plan,
                rng,
                t,
                region,
                vm_ids_by_region.get(region, []),
                peers,
                outage,
                cfg.outage_jitter_s,
            )

        rng = self._rng("adversity", "flap")
        for _ in range(event_count(rng, cfg.flaps_per_day, scn.hours)):
            link = links[int(rng.integers(len(links)))]
            t = float(rng.uniform(t_lo, t_hi))
            link_flap(
                plan, rng, t, link,
                cfg.flap_scale_min, cfg.flap_scale_max,
                min(cfg.flap_mean_s, max_outage),
            )

        rng = self._rng("adversity", "burn")
        for _ in range(event_count(rng, cfg.slow_burns_per_day, scn.hours)):
            link = links[int(rng.integers(len(links)))]
            t = float(rng.uniform(t_lo, t_hi))
            slow_burn(
                plan, rng, t, link,
                min(cfg.slow_burn_ramp_s, 2.0 * max_outage),
                cfg.slow_burn_floor,
            )

        rng = self._rng("adversity", "batch")
        for _ in range(event_count(rng, cfg.dup_windows_per_day, scn.hours)):
            t = float(rng.uniform(t_lo, t_hi))
            batch_window(plan, rng, t, "dup", cfg.batch_window_mean_s)
        for _ in range(event_count(rng, cfg.drop_windows_per_day, scn.hours)):
            t = float(rng.uniform(t_lo, t_hi))
            batch_window(plan, rng, t, "drop", cfg.batch_window_mean_s)

        # Leader kills are the one sanctioned aggregator-side adversity:
        # they do not take the region down whole — an armed control
        # plane fails over to a warm standby, which is exactly what the
        # event exists to exercise. Without a control plane the events
        # are recorded no-ops.
        if cfg.leader_kills_per_day > 0:
            rng = self._rng("adversity", "leader")
            for _ in range(
                event_count(rng, cfg.leader_kills_per_day, scn.hours)
            ):
                t = float(rng.uniform(t_lo, t_hi))
                plan.kill_leader(t, recovery=max_outage)
        return plan


__all__ = [
    "GEN_PROFILES",
    "REGION_CODES",
    "GeneratedScenario",
    "ScenarioGenerator",
]
