"""Frozen configuration dataclasses — the one constructor surface.

Every tunable surface is a frozen dataclass deriving from
:class:`ConfigBase`, which adds symmetric ``to_dict``/``from_dict`` (JSON
round-trip safe — tuple-typed fields are re-tupled on the way in) and
``replace``. Dict form is what the sweep runner hashes for cache keys and
ships across process boundaries, so the round trip must be loss-free.

Scenario entry points and the baseline constructors take a config
object, its dict, or ``None`` and nothing else, see
:func:`resolve_config`. A scenario field is declared once, here: the CLI
reads each flag's type, default and ``choices`` off the field.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field

from repro.simulation.units import MB


class ConfigBase:
    """Mixin giving frozen config dataclasses a symmetric dict form."""

    def to_dict(self) -> dict:
        """Plain-dict form (nested dataclasses included). JSON-safe
        modulo tuples, which ``from_dict`` restores."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ConfigBase":
        """Rebuild from :meth:`to_dict` output (or parsed JSON).

        Unknown keys raise ``TypeError`` — a config dict is also a cache
        key, so silently dropping a field would alias distinct
        configurations.
        """
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise TypeError(
                f"{cls.__name__}.from_dict: unknown fields {sorted(unknown)}"
            )
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, value in data.items():
            hint = str(hints.get(key, ""))
            if isinstance(value, list) and "tuple" in hint.lower():
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)

    def replace(self, **changes) -> "ConfigBase":
        return dataclasses.replace(self, **changes)


def _require_positive(cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) <= 0:
            raise ValueError(f"{name} must be positive")


def _require_non_negative(cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be >= 0")


# ----------------------------------------------------------------------
# Scenario configurations
# ----------------------------------------------------------------------
#: Overload policy names (:mod:`repro.flow.policy` implements them).
POLICIES = ("block", "shed", "degrade")

#: Named generator presets the soak harness accepts (see
#: :data:`repro.gen.GEN_PROFILES` for the corresponding knob sets).
SOAK_PROFILES = ("calm", "diurnal", "adversarial", "hostile")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig(ConfigBase):
    """What every scenario config shares — the part the harness reads.

    A field whose metadata carries ``choices`` is checked against them
    here; the CLI offers the same tuple.
    """

    seed: int = 2013
    #: When set, invariant/SLO violations found by the continuous
    #: auditor fail the scenario (``report.clean`` turns False).
    strict_slo: bool = False
    #: Per-window end-to-end latency SLO in seconds (None = no SLO).
    slo_max_latency_s: float | None = None
    #: Cost SLO: attributed streaming $ per 1000 raw records.
    slo_max_usd_per_1k: float | None = None

    def __post_init__(self) -> None:
        for name in ("slo_max_latency_s", "slo_max_usd_per_1k"):
            bound = getattr(self, name)
            if bound is not None and bound <= 0:
                raise ValueError(f"{name} must be positive")
        for f in dataclasses.fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ValueError(
                    f"unknown {f.name} {getattr(self, f.name)!r}; "
                    f"choose from {choices}"
                )


@dataclass(frozen=True)
class ChaosConfig(ScenarioConfig):
    """Configuration of the scripted fault-recovery scenario."""

    duration: float = 240.0
    site_regions: tuple[str, str] = ("NEU", "WEU")
    aggregation_region: str = "NUS"
    records_per_s: float = 300.0
    #: Arm the scripted fault plan (False = fault-free control run).
    inject: bool = True
    delivery_timeout: float = 15.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(self, "duration", "records_per_s")
        _require_non_negative(self, "max_retries")


@dataclass(frozen=True)
class OverloadConfig(ScenarioConfig):
    """Configuration of the scripted overload-recovery scenario."""

    policy: str = field(default="block", metadata={"choices": POLICIES})
    duration: float = 240.0
    site_regions: tuple[str, str] = ("NEU", "WEU")
    aggregation_region: str = "NUS"
    base_rate: float = 100.0
    burst_factor: float = 5.0
    burst_window: tuple[float, float] = (60.0, 90.0)
    max_backlog: int = 1500
    #: ``(start, duration, capacity_scale)`` brownout on the first
    #: site's aggregation link; ``None`` disables it.
    brownout: tuple[float, float, float] | None = (70.0, 40.0, 0.0)
    #: Aggregator crash time (``None`` disables the crash).
    crash_at: float | None = 150.0
    restart_after: float = 15.0
    checkpoint_interval: float = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(self, "duration", "max_backlog")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")


@dataclass(frozen=True)
class GenConfig(ConfigBase):
    """Knobs of the seeded adversarial scenario generator.

    Traffic knobs shape per-region rate programs (diurnal curves, flash
    crowds, slow drift in record sizes); adversity knobs are expected
    event counts *per simulated day* — a two-hour soak scales them down
    proportionally, a two-day soak scales them up. All sampling is
    driven by seeds derived via :func:`repro.simulation.random.derive_seed`,
    so the same ``(seed, GenConfig)`` pair always renders the same
    schedules and fault plans, in any process.
    """

    # -- deployment shape ----------------------------------------------
    n_sites: int = 3
    vms_per_site_min: int = 2
    vms_per_site_max: int = 4
    # -- traffic programs ----------------------------------------------
    shapes_per_site_min: int = 1
    shapes_per_site_max: int = 3
    keys_min: int = 2
    keys_max: int = 6
    #: Per-shape base rates are modest on purpose: a soak's point is
    #: *duration* (simulated days), and wall-clock scales with total
    #: records. Flash crowds still push instantaneous rates an order of
    #: magnitude higher.
    base_rate_min: float = 3.0
    base_rate_max: float = 10.0
    diurnal_amplitude: float = 0.6
    diurnal_period_s: float = 86400.0
    flash_crowds_per_day: float = 4.0
    flash_peak_min: float = 3.0
    flash_peak_max: float = 8.0
    flash_rise_s: float = 120.0
    flash_decay_s: float = 600.0
    #: Slow drift of record sizes (amplitude as a fraction of the
    #: shape's nominal record size).
    drift_amplitude: float = 0.25
    drift_period_s: float = 21600.0
    #: Piecewise-constant rendering resolution of rate/size schedules.
    schedule_resolution_s: float = 60.0
    # -- adversity programs (expected events per simulated day) --------
    outages_per_day: float = 2.0
    outage_mean_s: float = 240.0
    outage_jitter_s: float = 20.0
    flaps_per_day: float = 6.0
    flap_scale_min: float = 0.1
    flap_scale_max: float = 0.5
    flap_mean_s: float = 180.0
    slow_burns_per_day: float = 2.0
    slow_burn_ramp_s: float = 1200.0
    slow_burn_floor: float = 0.3
    dup_windows_per_day: float = 3.0
    drop_windows_per_day: float = 3.0
    batch_window_mean_s: float = 120.0
    #: Unplanned global-aggregator (leader) kills per simulated day.
    #: Only effective when a control plane is armed — without one the
    #: emitted ``leader.kill`` events are recorded but change nothing.
    leader_kills_per_day: float = 0.0
    # -- job shape ------------------------------------------------------
    window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if not 1 <= self.vms_per_site_min <= self.vms_per_site_max:
            raise ValueError("vms_per_site bounds must satisfy 1 <= min <= max")
        if not 1 <= self.shapes_per_site_min <= self.shapes_per_site_max:
            raise ValueError("shapes_per_site bounds must satisfy 1 <= min <= max")
        if not 1 <= self.keys_min <= self.keys_max:
            raise ValueError("keys bounds must satisfy 1 <= min <= max")
        if not 0 < self.base_rate_min <= self.base_rate_max:
            raise ValueError("base_rate bounds must satisfy 0 < min <= max")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        _require_positive(
            self, "diurnal_period_s", "drift_period_s", "schedule_resolution_s",
            "window_s",
        )
        if not 0.0 < self.slow_burn_floor <= 1.0:
            raise ValueError("slow_burn_floor must be in (0, 1]")
        if not 0.0 < self.flap_scale_min <= self.flap_scale_max <= 1.0:
            raise ValueError("flap_scale bounds must satisfy 0 < min <= max <= 1")
        _require_non_negative(
            self, "outages_per_day", "flaps_per_day", "slow_burns_per_day",
            "dup_windows_per_day", "drop_windows_per_day", "leader_kills_per_day",
        )


@dataclass(frozen=True)
class SoakConfig(ScenarioConfig):
    """Configuration of the long-horizon generated soak scenario.

    The scenario itself is *sampled*: ``(seed, profile)`` feed the
    :class:`~repro.gen.ScenarioGenerator`, which renders traffic and
    adversity programs deterministically. The config therefore stays
    flat and JSON-safe — exactly what the sweep cache hashes.
    """

    #: Simulated hours the soak covers (faults and traffic included).
    hours: float = 2.0
    #: Generator preset (see :data:`SOAK_PROFILES`).
    profile: str = field(default="adversarial", metadata={"choices": SOAK_PROFILES})
    #: Virtual seconds between continuous-auditor checks.
    check_interval: float = 30.0
    #: Simulated hours per report phase (0 = auto: ~6 phases).
    phase_hours: float = 0.0
    #: Periodic checkpoint cadence in seconds (0 = off — a soak without
    #: aggregator crashes exercises exactly-once through dedup alone,
    #: and skipping snapshots keeps multi-day runs fast).
    checkpoint_interval: float = 0.0
    #: Overload policy of the generated job (``block`` is lossless).
    policy: str = field(default="block", metadata={"choices": POLICIES})
    max_backlog: int = 20_000
    delivery_timeout: float = 15.0
    max_retries: int = 10
    #: Unplanned leader (global aggregator) kills injected over the run.
    #: ``> 0`` arms the control plane: checkpointing is forced on, warm
    #: standbys are provisioned, and exactly this many ``leader.kill``
    #: events are spread deterministically across the middle of the run.
    failovers: int = 0
    #: Soaks are strict by default — that is their whole point.
    strict_slo: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(self, "hours", "check_interval", "max_backlog")
        _require_non_negative(
            self, "phase_hours", "checkpoint_interval", "max_retries", "failovers"
        )


# ----------------------------------------------------------------------
# Control plane configurations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ControlConfig(ConfigBase):
    """Knobs of the :class:`repro.control.ControlPlane`.

    All intervals are virtual seconds. The worst-case failover MTTR the
    plane promises (and the auditor enforces) is :attr:`mttr_bound`:
    after an unplanned leader death the lease takes at most
    ``lease_ttl`` to expire, the standby watcher notices within
    ``watch_interval``, and promotion costs ``promotion_delay`` plus —
    only when the standby's shipped-checkpoint cache is stale —
    ``cold_fetch_delay`` to pull the latest snapshot from the store.
    """

    #: Leader lease time-to-live. Renewal stops the instant the leader
    #: dies, so this bounds how long a dead leader can hold the lease.
    lease_ttl: float = 10.0
    #: How often the live leader renews its lease.
    renew_interval: float = 2.0
    #: How often standbys check the lease for expiry.
    watch_interval: float = 2.0
    #: Simulated latency of shipping one checkpoint to a standby.
    sync_delay: float = 1.0
    #: Standby boot-to-serving time once it wins the lease.
    promotion_delay: float = 2.0
    #: Extra promotion cost when the winning standby's checkpoint cache
    #: lags the durable store (it must fetch before serving).
    cold_fetch_delay: float = 5.0
    #: Delay before a killed leader's VM rejoins the pool as a standby.
    respawn_delay: float = 120.0
    #: Token-bucket admission rate per site in records/s (0 = gate off).
    admission_rate: float = 0.0
    #: Burst tolerance of the admission bucket, in seconds of rate.
    admission_burst_s: float = 2.0

    def __post_init__(self) -> None:
        _require_positive(
            self, "lease_ttl", "renew_interval", "watch_interval", "promotion_delay",
            "admission_burst_s",
        )
        _require_non_negative(
            self, "sync_delay", "cold_fetch_delay", "respawn_delay", "admission_rate"
        )
        if self.renew_interval >= self.lease_ttl:
            raise ValueError("renew_interval must be < lease_ttl")

    @property
    def mttr_bound(self) -> float:
        """Worst-case unplanned-failover recovery time the plane promises."""
        return (self.lease_ttl + self.watch_interval
                + self.promotion_delay + self.cold_fetch_delay)


@dataclass(frozen=True)
class ServeConfig(ScenarioConfig):
    """Configuration of the resident-service scenario (``sage serve``).

    A long-lived session with the control plane armed: warm standbys
    follow the leader, the leader is killed on a schedule, a scripted
    live reconfiguration lands mid-run, and the continuous auditor
    checks split-brain / MTTR / exactly-once invariants throughout.
    """

    duration: float = 1800.0
    site_regions: tuple[str, ...] = ("NEU", "WEU")
    aggregation_region: str = "NUS"
    #: Regions hosting warm standby aggregators, in promotion priority
    #: order (first = highest priority).
    standby_regions: tuple[str, ...] = ("EUS", "SUS")
    base_rate: float = 60.0
    policy: str = field(default="block", metadata={"choices": POLICIES})
    max_backlog: int = 5000
    checkpoint_interval: float = 10.0
    #: Kill the current leader every this many seconds (0 = never).
    #: Kills stop after ``0.75 * duration`` so the tail can drain.
    kill_leader_every: float = 420.0
    #: Hard cap on scheduled kills (0 = no cap beyond the time window).
    max_kills: int = 0
    #: Virtual time of the scripted live reconfiguration (0 = none).
    reconfigure_at: float = 600.0
    #: Per-site token-bucket admission rate in records/s (0 = gate off).
    admission_rate: float = 0.0
    admission_burst_s: float = 2.0
    lease_ttl: float = 10.0
    promotion_delay: float = 2.0
    respawn_delay: float = 120.0
    delivery_timeout: float = 15.0
    max_retries: int = 8
    #: Cap on concurrent retry attempts across all site links (0 = off).
    retry_budget: int = 0
    strict_slo: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive(
            self, "duration", "base_rate", "max_backlog", "checkpoint_interval",
            "lease_ttl", "promotion_delay",
        )
        _require_non_negative(
            self, "kill_leader_every", "reconfigure_at", "admission_rate",
            "respawn_delay", "max_kills", "retry_budget", "max_retries",
        )
        if not self.site_regions:
            raise ValueError("site_regions must be non-empty")
        if not self.standby_regions:
            raise ValueError("standby_regions must be non-empty")
        overlap = (set(self.standby_regions)
                   & (set(self.site_regions) | {self.aggregation_region}))
        if overlap:
            raise ValueError(
                f"standby_regions must not overlap sites/aggregation: {sorted(overlap)}"
            )

    def control(self) -> ControlConfig:
        """Derive the control-plane knob set from the scenario knobs."""
        return ControlConfig(
            lease_ttl=self.lease_ttl,
            promotion_delay=self.promotion_delay,
            respawn_delay=self.respawn_delay,
            admission_rate=self.admission_rate,
            admission_burst_s=self.admission_burst_s,
        )


# ----------------------------------------------------------------------
# Baseline configurations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DirectConfig(ConfigBase):
    """Knobs of the single-path :class:`~repro.baselines.direct.DirectTransfer`."""

    streams: int = 1

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


@dataclass(frozen=True)
class ParallelStaticConfig(ConfigBase):
    """Knobs of the fixed-fan-out static parallel baseline."""

    n_nodes: int = 5
    streams: int = 4

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


@dataclass(frozen=True)
class ShortestPathConfig(ConfigBase):
    """Knobs of the widest-path baseline."""

    n_nodes: int = 10
    streams: int = 4
    max_hops: int = 3

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass(frozen=True)
class BlobRelayConfig(ConfigBase):
    """Knobs of the blob-store staging baseline."""

    staging_region: str | None = None
    object_size: float = 64 * MB
    parallel_objects: int = 2

    def __post_init__(self) -> None:
        if self.object_size <= 0:
            raise ValueError("object_size must be positive")
        if self.parallel_objects < 1:
            raise ValueError("parallel_objects must be >= 1")


@dataclass(frozen=True)
class GridFtpConfig(ConfigBase):
    """Knobs of the GridFTP-like striped-endpoint baseline."""

    streams: int = 8
    submission_latency: float = 5.0
    endpoints: int = 2

    def __post_init__(self) -> None:
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.submission_latency < 0:
            raise ValueError("submission_latency must be non-negative")
        if self.endpoints < 1:
            raise ValueError("endpoints must be >= 1")


def resolve_config(cls, config):
    """The one (config | dict | None) coercion.

    ``config`` may be an instance of ``cls``, a dict for
    ``cls.from_dict``, or ``None`` for defaults; scenario entry points,
    the baseline constructors, ``run_experiment`` and the sweep worker
    all come through here.
    """
    if config is None:
        return cls()
    if isinstance(config, dict):
        return cls.from_dict(config)
    if not isinstance(config, cls):
        raise TypeError(
            f"expected {cls.__name__}, dict, or None — got {type(config).__name__}"
        )
    return config
