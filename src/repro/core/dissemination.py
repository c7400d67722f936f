"""One-to-many data dissemination across datacenters.

Beyond point-to-point transfers, geo-replication and result broadcasting
need the same payload at *several* sites (replication for availability,
distributing a reference dataset to every compute site, publishing global
results back to the edges). Sending independent unicast copies from the
source pays the source's WAN links and egress once per destination;
a **dissemination tree** lets already-served sites forward to further
ones, spreading load over more links and often finishing sooner.

The planner builds the tree greedily on the monitored link map — a
Prim-style maximum-width spanning construction: at each step attach the
unserved destination with the *widest* available link from any served
site. This is the natural geo-distributed analogue of the "replicate
within the deployment to raise aggregate throughput" idea, lifted to the
datacenter level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.core.engine import SageEngine


@dataclass(frozen=True)
class TreeEdge:
    """One forwarding step of the dissemination tree."""

    src: str
    dst: str
    width: float


@dataclass
class DisseminationPlan:
    """A tree rooted at the source region covering all destinations."""

    root: str
    edges: list[TreeEdge]

    def children(self, region: str) -> list[TreeEdge]:
        return [e for e in self.edges if e.src == region]

    def depth(self) -> int:
        """Longest forwarding chain (edges) in the tree."""
        depths = {self.root: 0}
        remaining = list(self.edges)
        # Edges were appended in attach order, so parents precede children.
        for edge in remaining:
            depths[edge.dst] = depths[edge.src] + 1
        return max(depths.values()) if depths else 0

    def describe(self) -> str:
        return ", ".join(f"{e.src}->{e.dst}" for e in self.edges)


def plan_dissemination(
    throughputs: Mapping[tuple[str, str], float],
    source: str,
    destinations: list[str],
) -> DisseminationPlan:
    """Maximum-width greedy tree from ``source`` to every destination.

    Falls back to a direct edge from the source when a destination has no
    monitored link from any served site (width 0 marks the blind edge).
    """
    if source in destinations:
        raise ValueError("source cannot be its own destination")
    if len(set(destinations)) != len(destinations):
        raise ValueError("duplicate destinations")
    served = {source}
    unserved = list(destinations)
    edges: list[TreeEdge] = []
    while unserved:
        best: TreeEdge | None = None
        for dst in unserved:
            for src in served:
                width = throughputs.get((src, dst))
                if width is None or width != width or width <= 0:
                    continue
                if best is None or width > best.width:
                    best = TreeEdge(src, dst, width)
        if best is None:
            # Unmonitored destination: serve it straight from the source.
            best = TreeEdge(source, unserved[0], 0.0)
        edges.append(best)
        served.add(best.dst)
        unserved.remove(best.dst)
    return DisseminationPlan(source, edges)


@dataclass
class DisseminationReport:
    """Outcome of one dissemination run."""

    plan: DisseminationPlan
    completion_times: dict[str, float]
    started_at: float

    @property
    def makespan(self) -> float:
        return max(self.completion_times.values()) - self.started_at

    def arrival(self, region: str) -> float:
        return self.completion_times[region] - self.started_at


class Disseminator:
    """Executes dissemination plans over the managed transfer substrate.

    Each tree edge is a decision-managed transfer that starts as soon as
    its source site holds the full payload (store-and-forward at
    datacenter granularity; within a site the payload is immediately
    available to all VMs over the fast intra fabric).
    """

    def __init__(
        self,
        engine: SageEngine,
        n_nodes_per_edge: int = 3,
        pipeline_threshold: float = 0.15,
    ) -> None:
        """``pipeline_threshold``: fraction of the payload a site must hold
        before it starts forwarding to its children. Chunk-level pipelining
        is approximated by this delayed start — forwarding overlaps with
        the tail of the inbound transfer, as the chunked Transfer Agent
        does in practice. ``1.0`` degenerates to strict store-and-forward.
        """
        if n_nodes_per_edge < 1:
            raise ValueError("n_nodes_per_edge must be >= 1")
        if not 0.0 < pipeline_threshold <= 1.0:
            raise ValueError("pipeline_threshold must be in (0, 1]")
        self.engine = engine
        self.n_nodes_per_edge = n_nodes_per_edge
        self.pipeline_threshold = pipeline_threshold

    def plan(self, source: str, destinations: list[str]) -> DisseminationPlan:
        return plan_dissemination(
            self.engine.decisions.link_throughputs(), source, destinations
        )

    def unicast_plan(
        self, source: str, destinations: list[str]
    ) -> DisseminationPlan:
        """The baseline star: every destination served from the source."""
        thr = self.engine.decisions.link_throughputs()
        edges = [
            TreeEdge(source, dst, thr.get((source, dst), 0.0))
            for dst in destinations
        ]
        return DisseminationPlan(source, edges)

    def run(
        self,
        size: float,
        plan: DisseminationPlan,
        timeout: float = 24 * 3600.0,
        on_complete: Callable[[DisseminationReport], None] | None = None,
    ) -> DisseminationReport:
        """Execute ``plan`` for a payload of ``size`` bytes (blocking)."""
        if size <= 0:
            raise ValueError("size must be positive")
        engine = self.engine
        started = engine.sim.now
        completion: dict[str, float] = {}
        pending = {e.dst for e in plan.edges}
        forwarding_started: set[str] = set()

        def start_edges_from(region: str) -> None:
            if region in forwarding_started:
                return
            forwarding_started.add(region)
            for edge in plan.children(region):
                if edge.dst in completion:
                    continue
                mt = engine.decisions.transfer(
                    edge.src,
                    edge.dst,
                    size,
                    n_nodes=self.n_nodes_per_edge,
                    on_complete=lambda _mt, d=edge.dst: arrived(d),
                )
                _watch_progress(edge.dst, mt)

        def _watch_progress(region: str, mt) -> None:
            # Pipelined forwarding: once this site holds enough of the
            # payload, its own children may start pulling.
            def check() -> None:
                if region in completion:
                    return
                received = sum(s.transferred for s in mt.sessions)
                if received >= self.pipeline_threshold * size:
                    start_edges_from(region)
                else:
                    engine.sim.schedule(2.0, check)

            engine.sim.schedule(2.0, check)

        def arrived(region: str) -> None:
            completion[region] = engine.sim.now
            start_edges_from(region)

        start_edges_from(plan.root)
        deadline = started + timeout
        while pending - set(completion) and engine.sim.now < deadline:
            engine.run_until(min(engine.sim.now + 10.0, deadline))
        missing = pending - set(completion)
        if missing:
            raise TimeoutError(f"dissemination incomplete: {sorted(missing)}")
        report = DisseminationReport(plan, completion, started)
        if on_complete is not None:
            on_complete(report)
        return report
