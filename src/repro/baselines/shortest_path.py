"""Shortest-path (widest-path) multi-datacenter strategies.

Both variants route everything along the single best datacenter path, with
parallel route instances up to the node budget. They differ in *when* the
path is chosen:

* **static** — once, from the link map at launch. As the cloud drifts the
  choice goes stale; throughput decays over long transfers.
* **dynamic** — re-chosen from the fresh link map every ``replan_interval``
  (remaining bytes are re-planned). Tracks the environment, but still puts
  all eggs in one path — no multi-path growth, no marginal-gain reasoning.
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


class DynamicShortestPath(StaticShortestPath):
    """Widest path re-chosen on every monitoring refresh."""

    label = "ShortestPath-dynamic"

    def __init__(
        self, config: ShortestPathConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(ShortestPathConfig, config)
        super().__init__(cfg)
        self.replan_interval = cfg.replan_interval

    def run(
        self, engine: SageEngine, src_region: str, dst_region: str, size: float
    ) -> BaselineResult:
        before = engine.env.meter.snapshot()
        state = {"session": None, "remaining": size, "vm_seconds": 0.0}

        def _launch(done) -> None:
            path = self.choose_path(engine, src_region, dst_region)
            plan = materialise_path(
                engine,
                path,
                instances_for_budget(path, self.n_nodes),
                self.streams,
            )
            t_start = engine.sim.now

            def _finished(session) -> None:
                state["vm_seconds"] += plan.vm_count() * (engine.sim.now - t_start)
                state["session"] = None
                done()

            state["session"] = engine.transfers.execute(
                plan, state["remaining"], on_complete=_finished
            )

            def _replan() -> None:
                session = state["session"]
                if session is None or session.done:
                    return
                fresh = self.choose_path(engine, src_region, dst_region)
                if fresh != path:
                    remaining = session.cancel()
                    state["vm_seconds"] += plan.vm_count() * (
                        engine.sim.now - t_start
                    )
                    if remaining > 0:
                        state["remaining"] = remaining
                        _launch(done)
                    else:
                        done()
                else:
                    engine.sim.schedule(self.replan_interval, _replan)

            engine.sim.schedule(self.replan_interval, _replan)

        seconds = run_transfer_to_completion(engine, _launch)
        spent = engine.env.meter.snapshot() - before
        return BaselineResult(
            label=self.label,
            seconds=seconds,
            egress_usd=spent.egress_usd,
            vm_seconds_busy=state["vm_seconds"],
        )
