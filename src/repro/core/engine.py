"""Wiring of the three agents over a simulated cloud.

:class:`SageEngine` is the composition root: it provisions the deployment,
starts the Monitoring Agent on every inter-site link the deployment spans,
builds the Transfer Service and the Decision Manager, and optionally runs a
short learning phase so the link map is warm before the first application
transfer — mirroring the deployment-startup learning phase of the real
system.

It also owns the *failure plumbing*: a heartbeat failure detector feeds
suspected-dead VMs into the Decision Manager, stalled flows teach the
link map that a link is delivering nothing, and a fault-event bus lets
components (e.g. the streaming shipping layer) invalidate cached plans
the moment the environment hard-fails.
"""

from __future__ import annotations

from typing import Callable

from repro.cloud.deployment import CloudEnvironment
from repro.core.decision import DecisionConfig, DecisionManager
from repro.monitor.agent import MonitorConfig, MonitoringAgent
from repro.monitor.failure import FailureDetector, FailureDetectorConfig
from repro.obs import NULL_OBSERVER
from repro.obs.ledger import CostLedger
from repro.simulation.units import MINUTE
from repro.transfer.service import TransferService

FaultListener = Callable[[str, str], None]


class SageEngine:
    """Monitoring + Transfer + Decision over one cloud environment."""

    def __init__(
        self,
        env: CloudEnvironment,
        deployment_spec: dict[str, int] | None = None,
        vm_size: str = "Small",
        monitor_config: MonitorConfig | None = None,
        decision_config: DecisionConfig | None = None,
        observer=None,
    ) -> None:
        self.env = env
        #: Observability handle shared by every layer of this engine.
        #: Defaults to the no-op observer; pass :class:`repro.obs.Observer`
        #: to record metrics and virtual-time spans.
        self.observer = observer if observer is not None else NULL_OBSERVER
        self.observer.bind_clock(lambda: env.sim.now)
        env.sim.attach_observer(self.observer)
        #: Cost attribution: every meter charge from here on is folded
        #: into per-link / per-region buckets (reconciles with the meter
        #: by construction — the listener sees the exact USD charged).
        self.ledger = CostLedger(env.meter, observer=self.observer)
        if deployment_spec:
            for region, count in sorted(deployment_spec.items()):
                env.provision(region, vm_size, count)
        self.monitor = MonitoringAgent(
            env.network, env.deployment, monitor_config,
            observer=self.observer,
        )
        if env.deployment.size() >= 2 and len(env.deployment.regions()) >= 2:
            self.monitor.watch_all_links()
        self.transfers = TransferService(env, monitor=self.monitor)
        self.decisions = DecisionManager(
            env, self.monitor, self.transfers, decision_config,
            observer=self.observer,
        )
        #: Fault-event listeners: ``cb(kind, target)`` — fed by the fault
        #: injector, the failure detector, and the flow-stall detector.
        self._fault_listeners: list[FaultListener] = []
        #: Event log (``None`` while disabled): every fault-bus message
        #: lands in its ring so a post-mortem dump shows what broke right
        #: before the run went wrong.
        self._flight = self.observer.log if self.observer.enabled else None
        #: The active fault injector, if a chaos scenario is armed.
        self.faults = None
        mcfg = self.monitor.config
        self.detector: FailureDetector | None = None
        if mcfg.failure_detection and env.deployment.size() >= 1:
            self.detector = FailureDetector(
                env.sim,
                env.deployment,
                FailureDetectorConfig(
                    heartbeat_interval=mcfg.heartbeat_interval,
                    timeout=mcfg.failure_timeout,
                ),
                observer=self.observer,
            )
            self.decisions.attach_detector(self.detector)
            self.detector.on_suspect(
                lambda vm: self.emit_fault("vm.suspected", vm.vm_id)
            )
            self.detector.on_recover(
                lambda vm: self.emit_fault("vm.recovered", vm.vm_id)
            )
        # Stalled flows are the observable signature of a dead link or
        # VM: teach the link map a zero sample so planners route around
        # it, and broadcast so cached plans are invalidated.
        env.network.on_stall = self._on_flow_stall

    # ------------------------------------------------------------------
    # Fault plumbing
    # ------------------------------------------------------------------
    def on_fault(self, listener: FaultListener) -> None:
        """Subscribe to fault events (``listener(kind, target)``)."""
        self._fault_listeners.append(listener)

    def emit_fault(self, kind: str, target: str) -> None:
        """Broadcast a fault event to every subscribed listener."""
        if self._flight is not None:
            self._flight.record("fault", fault=kind, target=target)
        for listener in self._fault_listeners:
            listener(kind, target)

    def attach_faults(self, injector) -> None:
        """Register the armed fault injector (called by ``injector.arm``)."""
        self.faults = injector

    def _on_flow_stall(self, flow) -> None:
        now = self.env.sim.now
        for src, dst in flow.wan_hops():
            link = self.env.topology.link(src, dst)
            if link.capacity(now) <= 0.0:
                # The link is delivering nothing: record it so the next
                # plan avoids the hop instead of trusting a stale mean.
                self.monitor.ingest(src, dst, now, 0.0)
        if self.observer.enabled:
            self.observer.counter("network_flow_stalls_total").inc()
        self.emit_fault("flow.stall", flow.label or f"flow#{flow.flow_id}")

    # ------------------------------------------------------------------
    def start(self, learning_phase: float = 5 * MINUTE) -> None:
        """Begin monitoring; run the initial learning phase synchronously.

        After this returns, the link performance map has at least
        ``learning_phase / interval`` samples per monitored link.
        """
        self.monitor.start(initial_round=True)
        if self.detector is not None:
            self.detector.start()
        if learning_phase > 0:
            self.env.run_until(self.env.now + learning_phase)

    def stop(self) -> None:
        self.monitor.stop()
        if self.detector is not None:
            self.detector.stop()

    # Shortcuts used throughout examples and benchmarks --------------------
    @property
    def sim(self):
        return self.env.sim

    @property
    def deployment(self):
        return self.env.deployment

    def run_until(self, horizon: float) -> None:
        self.env.run_until(horizon)
