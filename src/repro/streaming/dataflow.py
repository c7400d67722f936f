"""Declarative description of a geo-streaming job.

A :class:`StreamJob` says *what* to compute (operators, windows,
aggregate) and *where* data is born (one :class:`SiteSpec` per producing
region); the runtime turns it into running sites. Keeping the description
separate from execution lets the same job run under different shipping
backends and batching policies — which is exactly how the comparison
experiments are written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.flow.policy import FlowConfig
from repro.streaming.batching import BatchPolicy, HybridBatchPolicy
from repro.streaming.operators import AggregateFn, Operator, builtin_aggregate
from repro.streaming.sources import StreamSource
from repro.streaming.windows import TumblingWindows
from repro.simulation.units import KB


@dataclass
class SiteSpec:
    """One producing site of a streaming job."""

    region: str
    sources: list[StreamSource]
    #: Batch operators applied, in order, before windowed aggregation.
    operators: list[Operator] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.sources:
            raise ValueError(f"site {self.region} needs at least one source")


@dataclass
class StreamJob:
    """A complete geo-distributed streaming analysis."""

    name: str
    sites: list[SiteSpec]
    aggregation_region: str
    #: Window assigner shared by all sites (event-time).
    windows: object = field(default_factory=lambda: TumblingWindows(10.0))
    #: Mergeable aggregate applied per (window, key).
    aggregate: AggregateFn = field(default_factory=lambda: builtin_aggregate("mean"))
    #: Batching policy factory (one batcher per site).
    batch_policy_factory: Callable[[], BatchPolicy] = field(
        default_factory=lambda: (lambda: HybridBatchPolicy(256 * KB, 2.0))
    )
    #: Ship raw records instead of site-local partials (ablation arm:
    #: quantifies what local aggregation saves on the WAN).
    ship_raw_records: bool = False
    #: Event-time slack before closing windows at each site.
    watermark_lag: float = 2.0
    #: Wait this long after a window's first partial reaches the
    #: aggregator before emitting the merged result.
    finalize_grace: float = 5.0
    #: Flow-control and overload behaviour (``None`` = legacy unbounded
    #: buffers, no backpressure — exactly the pre-flow semantics).
    flow: FlowConfig | None = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValueError("job needs at least one site")
        regions = [s.region for s in self.sites]
        if len(set(regions)) != len(regions):
            raise ValueError(f"duplicate site regions: {regions}")
        if self.finalize_grace < 0 or self.watermark_lag < 0:
            raise ValueError("grace/lag must be non-negative")

    def site_regions(self) -> list[str]:
        return [s.region for s in self.sites]
