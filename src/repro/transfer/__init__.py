"""Wide-area transfer primitives.

The Transfer Agent moves data as fixed-size chunks, each carrying
metadata and acknowledgement overhead on the wire, over one or more
concurrent routes: direct source→destination, parallel through helper VMs
of the source datacenter, or relayed through intermediate datacenters.
Routes and their byte shares are described by a :class:`TransferPlan` —
produced either by hand or by the decision engine — and executed as a
:class:`TransferSession` with live progress and cost accounting.
"""

from repro.transfer.plan import RouteAssignment, TransferPlan
from repro.transfer.service import TransferService
from repro.transfer.session import TransferSession

__all__ = [
    "RouteAssignment",
    "TransferPlan",
    "TransferService",
    "TransferSession",
]
