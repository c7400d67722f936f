"""Environment-unaware parallel transfer.

The strategy everyone reaches for first: split the payload evenly over a
fixed set of source-site VMs chosen at launch, each shipping its share in
parallel. No monitoring, no re-planning — when one of the chosen VMs (or
its network share) degrades mid-transfer, the whole transfer waits for the
straggler. This is the comparator the environment-aware manager beats by
up to ~20 % on long transfers (experiment E5).
"""

from __future__ import annotations

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.core.engine import SageEngine
from repro.config import ParallelStaticConfig, resolve_config
from repro.transfer.plan import RouteAssignment, TransferPlan


class StaticParallel:
    """Fixed-node, equal-share parallel transfer."""

    label = "StaticParallel"

    def __init__(
        self, config: ParallelStaticConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(ParallelStaticConfig, config)
        self.config = cfg
        self.n_nodes = cfg.n_nodes
        self.streams = cfg.streams

    def build_plan(
        self, engine: SageEngine, src_region: str, dst_region: str
    ) -> TransferPlan:
        senders = engine.deployment.vms(src_region)[: self.n_nodes]
        receivers = engine.deployment.vms(dst_region)
        if not senders or not receivers:
            raise ValueError("deployment lacks VMs for static parallel transfer")
        # The dataset is distributed within the source site (the local
        # storage layer replicates it across the deployment), so every
        # sender streams its share from its own VM. Equal shares over a
        # fixed sender set are the strategy's defining weakness.
        routes = [
            RouteAssignment(
                [sender, receivers[i % len(receivers)]],
                weight=1.0,
                streams=self.streams,
            )
            for i, sender in enumerate(senders)
        ]
        return TransferPlan(routes, label="static-parallel")

    def run(
        self,
        engine: SageEngine,
        src_region: str,
        dst_region: str,
        size: float,
    ) -> BaselineResult:
        plan = self.build_plan(engine, src_region, dst_region)
        before = engine.env.meter.snapshot()

        def _start(done) -> None:
            engine.transfers.execute(plan, size, on_complete=lambda _s: done())

        seconds = run_transfer_to_completion(engine, _start)
        spent = engine.env.meter.snapshot() - before
        return BaselineResult(
            label=self.label,
            seconds=seconds,
            egress_usd=spent.egress_usd,
            vm_seconds_busy=plan.vm_count() * seconds,
        )
