"""Comparison systems.

Every baseline implements the same callable contract —
``run(engine, src_region, dst_region, size) -> BaselineResult`` — so the
benchmark harness can sweep strategies over identical environments
(identical seeds → identical link weather) and report who wins where:

* :class:`EndPoint2EndPoint` — one node, one flow; the floor.
* :class:`StaticParallel` — fixed helper set chosen once, equal shares,
  blind to the environment (the E5 comparator).
* :class:`StaticShortestPath` — widest-path routing computed once from
  the link map at launch (an E7 comparator).
* :class:`BlobRelay` — stage through cloud object storage (the only
  out-of-the-box cloud offering; E6/E8 comparator).
* :class:`GridFtpLike` — a Globus-Online-style managed transfer: well
  tuned (many streams, retry) but environment-unaware and relay-free.
"""

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.baselines.direct import EndPoint2EndPoint
from repro.baselines.parallel_static import StaticParallel
from repro.baselines.shortest_path import StaticShortestPath
from repro.baselines.blob_relay import BlobRelay
from repro.baselines.gridftp import GridFtpLike

__all__ = [
    "BaselineResult",
    "run_transfer_to_completion",
    "EndPoint2EndPoint",
    "StaticParallel",
    "StaticShortestPath",
    "BlobRelay",
    "GridFtpLike",
]
