"""Multi-datacenter path selection.

Public clouds hide their network topology, so flow-graph optimisation over
node-level links is not available — and continuously probing every VM pair
at every parallelism level would cost more than it saves. The selection
algorithm therefore works on the small datacenter-level graph the
monitoring agent *can* afford to keep fresh (fewer than ten sites):

1. take the **widest path** (maximum bottleneck throughput) from source to
   destination — cheap to compute on < 10 nodes;
2. **grow** that path by adding parallel route instances while each added
   instance still contributes more throughput per VM than the first
   instance of the **next-best path** would;
3. when growth stops paying, **open the next path** and repeat, until the
   node budget is exhausted.

The result is a :class:`TransferSchema`: a set of datacenter-level paths
with instance counts, which the decision manager materialises into VM
routes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

LinkThroughputs = Mapping[tuple[str, str], float]


def widest_path(
    throughputs: LinkThroughputs,
    src: str,
    dst: str,
    max_hops: int | None = None,
) -> list[str] | None:
    """Maximum-bottleneck path from ``src`` to ``dst``.

    Dijkstra variant: the width of a path is the minimum link throughput
    along it; we grow the settled set in decreasing width order.
    Deterministic tie-breaking on (hop count, path names). Returns the
    region sequence, or None when ``dst`` is unreachable.
    """
    if src == dst:
        raise ValueError("src and dst must differ")
    adj: dict[str, list[tuple[str, float]]] = {}
    for (a, b), thr in throughputs.items():
        if thr > 0 and thr == thr:  # skip NaN/zero links
            adj.setdefault(a, []).append((b, thr))
    # Max-heap on width; tie-break on fewer hops then lexicographic path.
    heap: list[tuple[float, int, tuple[str, ...]]] = [(-float("inf"), 0, (src,))]
    settled: set[str] = set()
    while heap:
        neg_width, hops, path = heapq.heappop(heap)
        width = -neg_width
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == dst:
            return list(path)
        if max_hops is not None and hops >= max_hops:
            continue
        for nxt, thr in sorted(adj.get(node, ())):
            if nxt in settled:
                continue
            heapq.heappush(
                heap, (-min(width, thr), hops + 1, path + (nxt,))
            )
    return None


def path_bottleneck(throughputs: LinkThroughputs, path: list[str]) -> float:
    """Width (minimum hop throughput) of a region path."""
    if len(path) < 2:
        raise ValueError("path needs at least two regions")
    width = float("inf")
    for a, b in zip(path[:-1], path[1:]):
        thr = throughputs.get((a, b), float("nan"))
        if thr != thr:
            return float("nan")
        width = min(width, thr)
    return width


@dataclass
class PathAllocation:
    """One datacenter-level path with its parallel instance count."""

    path: list[str]
    instances: int = 1
    #: Estimated single-instance throughput (the path's bottleneck width).
    base_throughput: float = 0.0

    def vm_cost_per_instance(self) -> int:
        """VMs one route instance consumes: the sender plus one relay per
        intermediate site. The destination receiver is not counted — it
        exists whether or not the transfer runs, matching the cost model
        where ``n`` is the number of nodes streaming data in parallel."""
        return max(1, len(self.path) - 1)

    def vms_used(self) -> int:
        return self.instances * self.vm_cost_per_instance()

    def estimated_throughput(self, gain: float) -> float:
        """Diminishing-returns aggregate of ``instances`` parallel routes."""
        return self.base_throughput * (1.0 + (self.instances - 1) * gain)

    def describe(self) -> str:
        return f"{'->'.join(self.path)}×{self.instances}"


@dataclass
class TransferSchema:
    """The multi-path transfer topology chosen for one transfer."""

    allocations: list[PathAllocation]

    def vms_used(self) -> int:
        return sum(a.vms_used() for a in self.allocations)

    def estimated_throughput(self, gain: float) -> float:
        return sum(a.estimated_throughput(gain) for a in self.allocations)

    def describe(self) -> str:
        return " + ".join(a.describe() for a in self.allocations)

    def __iter__(self):
        return iter(self.allocations)


class MultiPathSelector:
    """Budget-constrained multi-datacenter path selection (Algorithm 1).

    Growth is *capacity-aware*: a path keeps receiving parallel instances
    at full marginal value until its bottleneck link's learned aggregate
    capacity is saturated, after which the marginal collapses and the
    next-best path takes over. Before a link has ever been loaded, its
    capacity is assumed to be ``default_parallelism`` route-widths — an
    *optimistic* prior: staying on the direct path until a link is proven
    saturated is cheaper than speculatively paying relay VMs and double
    egress for capacity that may not be needed.

    :meth:`_best_path` is a pure function of the graph it searches, and
    within one call of :meth:`select` that graph is the throughput
    snapshot minus the links removed so far. Its results are therefore
    memoised per ``(snapshot, max_hops)`` and, inside that, per ``(src,
    dst, removed links)``; only the latest snapshot is kept. Repeated plans
    at one instant (the decision manager's budget probes) reuse the chain
    instead of re-running the same widest-path searches.
    """

    def __init__(
        self,
        gain: float = 0.65,
        max_hops: int = 3,
        default_parallelism: float = 6.0,
    ) -> None:
        if not 0 < gain < 1:
            raise ValueError("gain must be in (0, 1)")
        if default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        self.gain = gain
        self.max_hops = max_hops
        self.default_parallelism = default_parallelism
        self._snapshot: tuple | None = None
        self._memo: dict[tuple, list[str] | None] = {}

    def _marginal(
        self,
        alloc: PathAllocation,
        capacities: Mapping[tuple[str, str], float] | None,
    ) -> float:
        """Throughput the next instance of ``alloc`` would add."""
        width = alloc.base_throughput
        if width <= 0:
            return 0.0
        cap = width * self.default_parallelism
        if capacities:
            for hop in zip(alloc.path[:-1], alloc.path[1:]):
                known = capacities.get(hop)
                if known is not None:
                    cap = min(cap, known)
        remaining = cap - alloc.instances * width
        return min(width, max(0.0, remaining))

    def _best_path(
        self,
        graph: dict[tuple[str, str], float],
        src: str,
        dst: str,
    ) -> list[str] | None:
        """The most VM-efficient path still available in ``graph``.

        The raw widest path can be a relay chain whose extra hop doubles
        its VM cost (and its egress); a path is only "best" when its width
        *per VM consumed* beats the direct link's. Candidates: the widest
        path and the direct link.
        """
        widest = widest_path(graph, src, dst, max_hops=self.max_hops)
        direct = [src, dst] if (src, dst) in graph else None
        candidates = [p for p in (widest, direct) if p is not None]
        if not candidates:
            return None

        def per_vm(path: list[str]) -> float:
            width = path_bottleneck(graph, path)
            return width / max(1, len(path) - 1)

        return max(candidates, key=per_vm)

    def _memo_best_path(
        self,
        graph: dict[tuple[str, str], float],
        src: str,
        dst: str,
        removed: frozenset[tuple[str, str]],
    ) -> list[str] | None:
        """:meth:`_best_path` of ``graph``, which must be the current
        snapshot minus ``removed``."""
        key = (src, dst, removed)
        if key not in self._memo:
            self._memo[key] = self._best_path(graph, src, dst)
        return self._memo[key]

    def select(
        self,
        throughputs: LinkThroughputs,
        src: str,
        dst: str,
        node_budget: int,
        capacities: Mapping[tuple[str, str], float] | None = None,
    ) -> TransferSchema:
        """Choose paths and instance counts within ``node_budget`` VMs.

        Always returns at least one direct instance even when the budget
        is smaller than the cheapest path cost — a transfer must happen.
        """
        if node_budget < 1:
            raise ValueError("node_budget must be >= 1")
        graph = dict(throughputs)
        snapshot = (tuple(graph.items()), self.max_hops)
        if snapshot != self._snapshot:
            self._snapshot = snapshot
            self._memo = {}
        removed: frozenset[tuple[str, str]] = frozenset()
        allocations: list[PathAllocation] = []
        nodes_used = 0

        path = self._memo_best_path(graph, src, dst, removed)
        if path is None:
            # Nothing monitored yet: fall back to the direct link.
            path = [src, dst]
        if len(path) - 1 > node_budget:
            # The budget cannot man a relay chain; a single node can
            # always drive the direct link.
            path = [src, dst]
        while path is not None:
            width = path_bottleneck(throughputs, path)
            if width != width:  # unmonitored fallback link
                width = 0.0
            alloc = PathAllocation(list(path), instances=1, base_throughput=width)
            cost = alloc.vm_cost_per_instance()
            if allocations and nodes_used + cost > node_budget:
                break  # cannot afford to open this path
            allocations.append(alloc)
            nodes_used += cost

            # Next-best alternative: remove this path's links and re-solve.
            hops = list(zip(path[:-1], path[1:]))
            for hop in hops:
                graph.pop(hop, None)
            removed = removed.union(hops)
            next_path = self._memo_best_path(graph, src, dst, removed)
            next_width = (
                path_bottleneck(throughputs, next_path)
                if next_path is not None
                else 0.0
            )
            next_cost = len(next_path) if next_path is not None else 1

            # Grow the current path while an extra instance beats opening
            # the alternative, normalised per VM consumed. The marginal
            # stays at the full route width until the path's bottleneck
            # capacity saturates, then collapses — the empirical
            # observation that motivates opening additional paths at all.
            while nodes_used + cost <= node_budget:
                marginal_per_vm = self._marginal(alloc, capacities) / cost
                alternative_per_vm = (
                    next_width / next_cost if next_path is not None else 0.0
                )
                if next_path is not None and marginal_per_vm < alternative_per_vm:
                    break
                alloc.instances += 1
                nodes_used += cost

            if nodes_used >= node_budget:
                break
            path = next_path
        return TransferSchema(allocations)
