"""Geo-distributed stream analysis.

Data is *produced* at many sites (sensors, experiment stations, other
datacenters) and must be *analysed globally*. The layer follows the SAGE
pipeline: site-local operator chains reduce each stream to windowed partial
aggregates; a batching policy packs partials for the wide area; a shipping
backend (the managed transfer substrate, a plain direct flow, or the
blob-staging baseline) moves them to the aggregation site; a global
aggregator merges partials per window and emits results with end-to-end
latency accounting.
"""

from repro.streaming.batching import (
    AdaptiveBatchPolicy,
    Batcher,
    BatchPolicy,
    HybridBatchPolicy,
    SizeBatchPolicy,
    TimeBatchPolicy,
)
from repro.streaming.events import Batch, Record
from repro.streaming.operators import (
    AggregateFn,
    FilterOperator,
    MapOperator,
    Operator,
    PerRecordAdapter,
    WindowedAggregator,
    builtin_aggregate,
)
from repro.streaming.records import ChunkedBacklog, RecordBatch
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.runtime import (
    GeoStreamRuntime,
    LatencyStats,
    WindowResult,
)
from repro.streaming.shipping import (
    BlobShipping,
    DirectShipping,
    ReliableShipping,
    SageShipping,
    ShippingBackend,
    UdpShipping,
)
from repro.streaming.sources import (
    MmppSource,
    PoissonSource,
    SensorGridSource,
    StreamSource,
)
from repro.streaming.windows import TumblingWindows, Window

__all__ = [
    "Record",
    "RecordBatch",
    "ChunkedBacklog",
    "Batch",
    "Operator",
    "MapOperator",
    "FilterOperator",
    "PerRecordAdapter",
    "WindowedAggregator",
    "AggregateFn",
    "builtin_aggregate",
    "Window",
    "TumblingWindows",
    "BatchPolicy",
    "SizeBatchPolicy",
    "TimeBatchPolicy",
    "HybridBatchPolicy",
    "AdaptiveBatchPolicy",
    "Batcher",
    "StreamSource",
    "PoissonSource",
    "MmppSource",
    "SensorGridSource",
    "SiteSpec",
    "StreamJob",
    "GeoStreamRuntime",
    "WindowResult",
    "LatencyStats",
    "ShippingBackend",
    "SageShipping",
    "DirectShipping",
    "BlobShipping",
    "UdpShipping",
    "ReliableShipping",
]
