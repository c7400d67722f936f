"""The Monitoring Agent.

One agent runs per deployment. It schedules every registered sampler at a
configurable interval, routes link measurements into the
:class:`~repro.monitor.linkmap.LinkPerformanceMap`, appends everything to
per-metric histories, and enforces two non-intrusiveness rules from the
system design:

* sampling of a link is *suspended* while the deployment is running an
  application transfer on that link (the transfer itself is the best
  sample — the agent ingests achieved transfer throughput for free);
* a VM whose CPU load is above the intrusiveness threshold is not asked
  to run measurement work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ConfigBase
from repro.cloud.deployment import Deployment
from repro.cloud.network import FluidNetwork
from repro.cloud.vm import VM
from repro.monitor.estimators import make_estimator
from repro.obs import NULL_OBSERVER
from repro.monitor.history import MetricHistory
from repro.monitor.linkmap import LinkPerformanceMap
from repro.monitor.samplers import PassiveLinkSampler, Sampler
from repro.simulation.engine import PeriodicTask
from repro.simulation.units import MINUTE


@dataclass
class MonitorConfig(ConfigBase):
    """Tunable knobs of the Monitoring Agent."""

    #: Seconds between sampling rounds.
    interval: float = MINUTE
    #: Estimator strategy for link throughput ("WSI", "LSI", "Monitor", "EWMA").
    strategy: str = "WSI"
    #: Parallel streams used when measuring a link. Keep equal to the
    #: decision engine's per-route stream count so the link model predicts
    #: what a transfer route will actually achieve.
    probe_streams: int = 4
    #: Suspend a VM's measurements above this CPU load.
    cpu_threshold: float = 0.85
    #: Run the heartbeat failure detector alongside sampling.
    failure_detection: bool = True
    #: Heartbeat period of the failure detector.
    heartbeat_interval: float = 5.0
    #: Heartbeat silence after which a VM is suspected dead.
    failure_timeout: float = 15.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.probe_streams < 1:
            raise ValueError("probe_streams must be >= 1")
        if not 0.0 < self.cpu_threshold <= 1.0:
            raise ValueError("cpu_threshold must be in (0, 1]")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.failure_timeout < self.heartbeat_interval:
            raise ValueError(
                "failure_timeout must be >= heartbeat_interval — a timeout "
                "shorter than one heartbeat period suspects every VM"
            )

    @property
    def detection_bound(self) -> float:
        """Worst-case failure-detection latency: a VM that dies right
        after heartbeating is suspected at most one heartbeat period
        plus the timeout later. Failover MTTR experiments sweep this."""
        return self.failure_timeout + self.heartbeat_interval


class MonitoringAgent:
    """Periodically samples the environment and maintains the link map."""

    def __init__(
        self,
        network: FluidNetwork,
        deployment: Deployment,
        config: MonitorConfig | None = None,
        observer=None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.deployment = deployment
        self.config = config or MonitorConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        obs = self.observer
        self._m_samples = obs.counter("monitor_samples_total")
        self._m_suspended = obs.counter("monitor_samples_suspended_total")
        #: |estimate - sample| / sample per link sample — the live view of
        #: how well the estimator strategy tracks the link's weather.
        self._m_est_err = obs.histogram("monitor_estimator_relative_error")
        self.link_map = LinkPerformanceMap()
        #: Learned aggregate capacity per directed link (bytes/s): the
        #: running peak of observed utilisation, with slow decay so stale
        #: highs fade. Only transfers that actually load a link teach it.
        self.capacity_estimates: dict[tuple[str, str], float] = {}
        self.histories: dict[str, MetricHistory] = {}
        self.samples_taken = 0
        self.samples_suspended = 0
        self._link_samplers: dict[tuple[str, str], Sampler] = {}
        self._link_vms: dict[tuple[str, str], tuple[VM, VM]] = {}
        self._extra_samplers: list[Sampler] = []
        self._task: PeriodicTask | None = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def watch_all_links(self) -> None:
        """Monitor every directed pair of regions the deployment spans."""
        regions = self.deployment.regions()
        for src in regions:
            for dst in regions:
                if src != dst:
                    self.watch_link(src, dst)

    def watch_link(self, src: str, dst: str) -> None:
        """Start monitoring one directed region pair."""
        key = (src, dst)
        if key in self._link_samplers:
            return
        src_vms = self.deployment.vms(src)
        dst_vms = self.deployment.vms(dst)
        if not src_vms or not dst_vms:
            raise ValueError(
                f"deployment has no VMs to monitor {src}->{dst}"
            )
        src_vm, dst_vm = src_vms[0], dst_vms[0]
        cfg = self.config
        self._link_samplers[key] = PassiveLinkSampler(
            self.network, src_vm, dst_vm, streams=cfg.probe_streams
        )
        self._link_vms[key] = (src_vm, dst_vm)
        self.link_map.register(src, dst, make_estimator(cfg.strategy))

    def add_sampler(self, sampler: Sampler) -> None:
        """Register an additional pluggable sampler (CPU, memory, ...)."""
        self._extra_samplers.append(sampler)

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def start(self, initial_round: bool = True) -> None:
        """Begin periodic sampling (optionally with an immediate round)."""
        if self._task is not None:
            raise RuntimeError("agent already started")
        self._task = self.sim.add_periodic(
            self.config.interval,
            self._round,
            start_delay=0.0 if initial_round else None,
        )

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def ingest(self, src: str, dst: str, time: float, value: float) -> None:
        """Feed an externally observed throughput sample (e.g. from a live
        application transfer) into the link model — free monitoring."""
        self.link_map.observe(src, dst, time, value)
        self._record(f"thr/{src}->{dst}", time, value)

    def note_utilization(
        self,
        src: str,
        dst: str,
        aggregate_rate: float,
        saturated: bool = True,
    ) -> None:
        """Record an observed *aggregate* rate on a link.

        Only observations taken while the link was *saturated* (our own
        flows demanded more than they achieved) teach capacity — an
        underloaded link's utilisation is a floor, not a capacity, and
        treating it as one would wrongly throttle future path growth.
        """
        if aggregate_rate <= 0 or not saturated:
            return
        key = (src, dst)
        current = self.capacity_estimates.get(key, 0.0)
        # Decay the old peak slightly so a stale high from better weather
        # does not pin the estimate forever.
        self.capacity_estimates[key] = max(aggregate_rate, current * 0.99)

    def capacity_estimate(self, src: str, dst: str) -> float | None:
        """Learned aggregate capacity of a link, or None if never loaded."""
        return self.capacity_estimates.get((src, dst))

    def _round(self) -> None:
        for key, sampler in self._link_samplers.items():
            if self._suspended(key):
                self.samples_suspended += 1
                self._m_suspended.inc()
                continue
            src, dst = key
            sampler.sample(
                lambda t, v, s=src, d=dst: self._on_link_sample(s, d, t, v)
            )
        for sampler in self._extra_samplers:
            sampler.sample(
                lambda t, v, m=sampler.metric: self._record(m, t, v)
            )

    def _suspended(self, key: tuple[str, str]) -> bool:
        # Any application flow currently on this link?
        for flow in self.network.flows:
            if key in flow.wan_hops():
                return True
        src_vm, dst_vm = self._link_vms[key]
        return max(src_vm.cpu_load, dst_vm.cpu_load) > self.config.cpu_threshold

    def _on_link_sample(self, src: str, dst: str, time: float, value: float) -> None:
        self.samples_taken += 1
        self._m_samples.inc()
        if self.observer.enabled and value > 0:
            # Error of the pre-sample estimate against the fresh sample.
            est = self.link_map.estimate(src, dst)
            if est.known:
                self._m_est_err.observe(abs(est.mean - value) / value)
        self.link_map.observe(src, dst, time, value)
        self._record(f"thr/{src}->{dst}", time, value)

    def _record(self, metric: str, time: float, value: float) -> None:
        hist = self.histories.get(metric)
        if hist is None:
            hist = self.histories[metric] = MetricHistory()
        hist.record(time, value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def history(self, metric: str) -> MetricHistory:
        return self.histories[metric]

    def estimated_throughput(self, src: str, dst: str) -> float:
        return self.link_map.throughput(src, dst)

    def node_health(self, vm: VM) -> float:
        """Measured health of one VM (CPU benchmark + NIC self-test).

        A point-in-time observation with small measurement noise — the
        decision manager uses it to detect and avoid degraded nodes.
        A crashed VM answers no probe at all: its measured health is 0.
        """
        if vm.failed:
            return 0.0
        rng = self.sim.rngs.get(f"health/{vm.vm_id}")
        return min(1.0, vm.health * rng.lognormal(0.0, 0.02))
