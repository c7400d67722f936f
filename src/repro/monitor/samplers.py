"""Pluggable samplers feeding the Monitoring Agent.

A sampler measures one metric once per invocation. Link throughput is
measured passively: :class:`PassiveLinkSampler` is an iperf-style
estimate of the currently achievable single-flow rate — cheap (no
payload, so no probe flow competes with application transfers) but
noisy. Live transfers feed the agent their achieved rates for free.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.cloud.network import FluidNetwork
from repro.cloud.vm import VM


class Sampler(Protocol):
    """One measurable metric."""

    metric: str

    def sample(self, on_value: Callable[[float, float], None]) -> None:
        """Take one measurement; report via ``on_value(time, value)``.

        Reporting is callback-based so a sampler may complete
        asynchronously in simulated time.
        """
        ...  # pragma: no cover - protocol


class PassiveLinkSampler:
    """Noisy observation of the currently achievable single-flow rate.

    The default dispersion (15 %) matches what short iperf-style probes
    actually show on wide-area paths; it is the reason integrating
    samples (LSI/WSI) beats trusting the latest one.
    """

    def __init__(
        self,
        network: FluidNetwork,
        src: VM,
        dst: VM,
        streams: int = 1,
        noise_cv: float = 0.15,
    ) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.streams = streams
        self.noise_cv = noise_cv
        self.metric = f"thr/{src.region_code}->{dst.region_code}"
        self._rng = network.sim.rngs.get(f"sampler/{self.metric}/{src.vm_id}")

    def sample(self, on_value: Callable[[float, float], None]) -> None:
        truth = self.network.isolated_rate([self.src, self.dst], self.streams)
        noise = self._rng.lognormal(mean=0.0, sigma=self.noise_cv)
        on_value(self.network.sim.now, truth * noise)


class CpuSampler:
    """Observed spare CPU fraction of a VM (benchmark-style measurement)."""

    def __init__(self, vm: VM, network: FluidNetwork, noise_cv: float = 0.03) -> None:
        self.vm = vm
        self.network = network
        self.noise_cv = noise_cv
        self.metric = f"cpu/{vm.vm_id}"
        self._rng = network.sim.rngs.get(f"sampler/{self.metric}")

    def sample(self, on_value: Callable[[float, float], None]) -> None:
        spare = max(0.0, 1.0 - self.vm.cpu_load) * self.vm.health
        noise = self._rng.lognormal(mean=0.0, sigma=self.noise_cv)
        on_value(self.network.sim.now, min(1.0, spare * noise))
