"""The one supported import surface of the SAGE reproduction.

Everything an experiment driver needs lives here (and is re-exported
from ``repro`` itself):

* :class:`SageSession` / :class:`TransferResult` — interactive managed
  transfers over a simulated deployment;
* :func:`run_experiment` — run one scenario by name, returning a
  :class:`~repro.report.ScenarioReport`;
* :func:`run_sweep` / :func:`default_suite` — shard a list of
  :class:`~repro.runner.SweepTask` across a process pool with result
  caching, returning a :class:`~repro.runner.SweepReport`;
* the frozen config dataclasses (:class:`ChaosConfig`,
  :class:`OverloadConfig`, ...) and typed result surfaces
  (:class:`ScenarioReport`, :class:`SweepReport`).

Deeper imports (``repro.cloud``, ``repro.streaming``, ...) remain
available but are implementation surface; only this module's names are
covered by the deprecation policy.

>>> from repro import SageSession
>>> from repro.simulation.units import GB
>>> session = SageSession(deployment={"NEU": 5, "NUS": 5}, seed=7)
>>> result = session.transfer("NEU", "NUS", 2 * GB, budget_usd=0.40)
>>> result.seconds > 0 and result.usd <= 0.40 * 1.05
True
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.deployment import CloudEnvironment
from repro.config import (
    POLICIES,
    SOAK_PROFILES,
    BlobRelayConfig,
    ChaosConfig,
    ControlConfig,
    DirectConfig,
    GenConfig,
    GridFtpConfig,
    OverloadConfig,
    ParallelStaticConfig,
    ServeConfig,
    ShortestPathConfig,
    SoakConfig,
)
from repro.core.decision import DecisionConfig, ManagedTransfer
from repro.core.engine import SageEngine
from repro.monitor.agent import MonitorConfig
from repro.report import ScenarioReport
from repro.runner import SweepReport, SweepRunner, SweepTask, derive_seed, execute_task
from repro.scenarios import (
    registered_scenarios,
    run_experiment,
    run_serve,
    run_soak,
)
from repro.simulation.units import DAY, MINUTE
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import SageShipping


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one managed transfer."""

    src_region: str
    dst_region: str
    size: float
    seconds: float
    usd: float
    nodes_used: int
    replans: int
    predicted_seconds: float | None
    schema: str

    @property
    def throughput(self) -> float:
        return self.size / self.seconds if self.seconds > 0 else 0.0


class SageSession:
    """One application's connection to the geo-data-management service."""

    def __init__(
        self,
        deployment: dict[str, int],
        vm_size: str = "Small",
        seed: int = 0,
        learning_phase: float = 5 * MINUTE,
        monitor_config: MonitorConfig | None = None,
        decision_config: DecisionConfig | None = None,
        variability_sigma: float = 0.20,
        glitches: bool = True,
    ) -> None:
        self.env = CloudEnvironment(
            seed=seed,
            variability_sigma=variability_sigma,
            glitches=glitches,
        )
        self.engine = SageEngine(
            self.env,
            deployment_spec=deployment,
            vm_size=vm_size,
            monitor_config=monitor_config,
            decision_config=decision_config,
        )
        self.engine.start(learning_phase=learning_phase)

    # ------------------------------------------------------------------
    def transfer(
        self,
        src_region: str,
        dst_region: str,
        size: float,
        budget_usd: float | None = None,
        deadline_s: float | None = None,
        n_nodes: int | None = None,
        intrusiveness: float | None = None,
        timeout: float = DAY,
    ) -> TransferResult:
        """Move ``size`` bytes and block (in simulated time) until done."""
        meter_before = self.env.meter.snapshot()
        mt = self.engine.decisions.transfer(
            src_region,
            dst_region,
            size,
            budget_usd=budget_usd,
            deadline_s=deadline_s,
            n_nodes=n_nodes,
            intrusiveness=intrusiveness,
        )
        deadline = self.env.now + timeout
        while not mt.done and self.env.now < deadline:
            # Advance in coarse steps; completion fires via callbacks.
            self.env.run_until(min(self.env.now + MINUTE, deadline))
        if not mt.done:
            raise TimeoutError(
                f"transfer {src_region}->{dst_region} incomplete after "
                f"{timeout:.0f}s simulated"
            )
        spent = self.env.meter.snapshot() - meter_before
        nodes = max(
            (s.plan.vm_count() for s in mt.sessions),
            default=0,
        )
        return TransferResult(
            src_region=src_region,
            dst_region=dst_region,
            size=size,
            seconds=mt.elapsed or 0.0,
            usd=spent.egress_usd
            + self._session_vm_cost(mt),
            nodes_used=nodes,
            replans=mt.replans,
            predicted_seconds=mt.prediction,
            schema=" | ".join(mt.schema_history),
        )

    def _session_vm_cost(self, mt: ManagedTransfer) -> float:
        """VM-time cost attributable to this transfer (linear pricing)."""
        cost = 0.0
        for session in mt.sessions:
            vms = {vm.vm_id: vm for r in session.plan.routes for vm in r.path}
            intr = max(r.intrusiveness for r in session.plan.routes)
            for vm in vms.values():
                cost += vm.size.usd_per_hour / 3600.0 * session.elapsed * intr
        return cost

    # ------------------------------------------------------------------
    def attach_stream(
        self,
        job,
        shipping_factory=None,
        *,
        per_vm_records_per_s: float = 5000.0,
    ):
        """Attach a :class:`~repro.streaming.dataflow.StreamJob`.

        Returns a :class:`~repro.streaming.runtime.GeoStreamRuntime`;
        drive it with ``runtime.run_for(seconds)`` (which starts it,
        advances simulated time, and lets in-flight batches land).

        ``shipping_factory`` defaults to the paper's managed overlay
        transfers (:class:`~repro.streaming.shipping.SageShipping` with
        two relay nodes).
        """
        if shipping_factory is None:
            shipping_factory = SageShipping.factory(n_nodes=2)
        return GeoStreamRuntime(
            self.engine,
            job,
            shipping_factory,
            per_vm_records_per_s=per_vm_records_per_s,
        )

    # ------------------------------------------------------------------
    def link_map_rows(self) -> list[list[str]]:
        """The live inter-datacenter throughput matrix (E1a figure)."""
        return self.engine.monitor.link_map.matrix_rows()

    def estimated_throughput(self, src_region: str, dst_region: str) -> float:
        return self.engine.monitor.estimated_throughput(src_region, dst_region)

    def costs(self):
        """Accumulated charges so far."""
        return self.env.meter.snapshot()

    @property
    def now(self) -> float:
        return self.env.now

    def close(self) -> None:
        self.engine.stop()
        self.env.finalize()


def default_suite(
    duration: float = 240.0, generated: int = 0
) -> list[SweepTask]:
    """The standard E-suite sweep: chaos (both arms) + overload (all
    policies), one shard each — plus, with ``generated=N``, N seeded
    generator shards.

    Each generated shard is a short soak over a *distinct* generated
    scenario: the runner derives a different child seed per shard name,
    and the generator expands that seed into its own deployment,
    traffic, and fault program, cycling through the profiles. The
    content-addressed cache keys on (scenario, config, seed), so a
    cached sweep accumulates coverage of arbitrarily many generated
    scenarios across runs.
    """
    tasks = [
        SweepTask(f"chaos-{arm}", "chaos", {"duration": duration, "inject": inject})
        for arm, inject in (("inject", True), ("baseline", False))
    ]
    tasks.extend(
        SweepTask(
            name=f"overload-{policy}",
            scenario="overload",
            config={"policy": policy, "duration": duration},
        )
        for policy in POLICIES
    )
    tasks.extend(
        SweepTask(
            name=f"soak-gen-{i:03d}",
            scenario="soak",
            config={
                # Short horizon per shard: the axis buys scenario
                # *diversity*, the dedicated soak command buys duration.
                "hours": max(duration, 240.0) / 3600.0,
                "profile": SOAK_PROFILES[i % len(SOAK_PROFILES)],
            },
        )
        for i in range(generated)
    )
    return tasks


def run_sweep(
    tasks: list[SweepTask] | None = None,
    *,
    jobs: int = 1,
    cache_dir=None,
    root_seed: int = 2013,
    observer=None,
) -> SweepReport:
    """Run a sweep (default: :func:`default_suite`) and return its report.

    ``jobs`` > 1 shards across a spawn-based process pool; output is
    bit-identical to ``jobs=1`` by construction (see
    :mod:`repro.runner`). ``cache_dir`` enables the content-addressed
    result cache — warm re-runs execute zero simulations.
    """
    if tasks is None:
        tasks = default_suite()
    runner = SweepRunner(
        jobs=jobs, cache_dir=cache_dir, root_seed=root_seed, observer=observer
    )
    return runner.run(tasks)


__all__ = [
    "BlobRelayConfig",
    "ChaosConfig",
    "ControlConfig",
    "DirectConfig",
    "GenConfig",
    "GridFtpConfig",
    "OverloadConfig",
    "ParallelStaticConfig",
    "SOAK_PROFILES",
    "SageSession",
    "ScenarioReport",
    "ServeConfig",
    "ShortestPathConfig",
    "SoakConfig",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "TransferResult",
    "default_suite",
    "derive_seed",
    "execute_task",
    "registered_scenarios",
    "run_experiment",
    "run_serve",
    "run_soak",
    "run_sweep",
]
