"""Transfer plans: the contract between decision engine and transfer agent.

A plan is a weighted set of routes. Each route is a VM chain from the
source datacenter to the destination datacenter (possibly through helper
VMs of the source site and relay VMs of intermediate sites) plus the
transport parameters to use on it. The decision engine owns *choosing*
routes and weights; the transfer service owns *executing* them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.vm import VM


@dataclass
class RouteAssignment:
    """One route and its share of the payload."""

    #: VM chain: source, optional helpers/relays, destination.
    path: list[VM]
    #: Relative share of the payload carried by this route.
    weight: float = 1.0
    #: Parallel TCP streams on each hop of this route.
    streams: int = 1
    #: Fraction of each VM's resources the transfer may use.
    intrusiveness: float = 1.0

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("route needs at least source and destination")
        if self.weight <= 0:
            raise ValueError("route weight must be positive")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if not 0 < self.intrusiveness <= 1:
            raise ValueError("intrusiveness must be in (0, 1]")

    @property
    def src(self) -> VM:
        return self.path[0]

    @property
    def dst(self) -> VM:
        return self.path[-1]

    def wan_hop_count(self) -> int:
        return sum(
            1
            for a, b in zip(self.path[:-1], self.path[1:])
            if a.region_code != b.region_code
        )

    def describe(self) -> str:
        return "->".join(vm.region_code for vm in self.path)


@dataclass
class TransferPlan:
    """A weighted multi-route schema for one logical transfer."""

    routes: list[RouteAssignment]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.routes:
            raise ValueError("plan needs at least one route")
        dst_regions = {r.dst.region_code for r in self.routes}
        if len(dst_regions) != 1:
            raise ValueError(
                f"all routes must end in the same region, got {dst_regions}"
            )
        src_regions = {r.src.region_code for r in self.routes}
        if len(src_regions) != 1:
            raise ValueError(
                f"all routes must start in the same region, got {src_regions}"
            )

    @property
    def total_weight(self) -> float:
        return sum(r.weight for r in self.routes)

    def shares(self, total_bytes: float) -> list[float]:
        """Byte share per route, proportional to weights."""
        w = self.total_weight
        return [total_bytes * r.weight / w for r in self.routes]

    def vm_count(self) -> int:
        """Distinct VMs participating in the plan."""
        return len({vm.vm_id for r in self.routes for vm in r.path})

    def describe(self) -> str:
        parts = ", ".join(
            f"{r.describe()}×{r.weight:.2f}" for r in self.routes
        )
        return f"TransferPlan[{self.label}]({parts})"

    @classmethod
    def direct(
        cls,
        src: VM,
        dst: VM,
        streams: int = 1,
        intrusiveness: float = 1.0,
        label: str = "direct",
    ) -> "TransferPlan":
        """The trivial single-route plan."""
        return cls(
            [RouteAssignment([src, dst], 1.0, streams, intrusiveness)],
            label=label,
        )
