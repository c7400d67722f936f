"""Shortest-path (widest-path) multi-datacenter strategy.

Everything is routed along the single best datacenter path, with parallel
route instances up to the node budget. The path is chosen once, from the
link map at launch: as the cloud drifts the choice goes stale, and
throughput decays over long transfers.
"""

from __future__ import annotations

import itertools

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.config import ShortestPathConfig, resolve_config
from repro.core.engine import SageEngine
from repro.core.paths import widest_path
from repro.transfer.plan import RouteAssignment, TransferPlan


def instances_for_budget(path: list[str], n_nodes: int) -> int:
    """Parallel route instances affordable within the node budget.

    One instance costs a sender plus a relay per intermediate site
    (receivers are not counted, matching the path selector's semantics).
    """
    return max(1, n_nodes // max(1, len(path) - 1))


def materialise_path(
    engine: SageEngine, path: list[str], instances: int, streams: int
) -> TransferPlan:
    cyclers = {
        region: itertools.cycle(engine.deployment.vms(region)) for region in path
    }
    for region, cyc in cyclers.items():
        if not engine.deployment.vms(region):
            raise ValueError(f"no VMs in region {region} for path {path}")
    routes = [
        RouteAssignment(
            [next(cyclers[r]) for r in path], weight=1.0, streams=streams
        )
        for _ in range(instances)
    ]
    return TransferPlan(routes, label="shortest-path")


class StaticShortestPath:
    """Widest path chosen once at launch."""

    label = "ShortestPath-static"

    def __init__(
        self, config: ShortestPathConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(ShortestPathConfig, config)
        self.config = cfg
        self.n_nodes = cfg.n_nodes
        self.streams = cfg.streams
        self.max_hops = cfg.max_hops

    def choose_path(self, engine: SageEngine, src: str, dst: str) -> list[str]:
        thr = engine.monitor.link_map.means()
        path = widest_path(thr, src, dst, max_hops=self.max_hops)
        return path or [src, dst]

    def run(
        self, engine: SageEngine, src_region: str, dst_region: str, size: float
    ) -> BaselineResult:
        path = self.choose_path(engine, src_region, dst_region)
        plan = materialise_path(
            engine, path, instances_for_budget(path, self.n_nodes), self.streams
        )
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
