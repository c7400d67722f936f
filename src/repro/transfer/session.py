"""A transfer session: one logical payload moving along a plan's routes.

The session owns the fluid flows executing a :class:`TransferPlan`,
accounts acknowledgements and per-chunk metadata overhead, bills egress for
every datacenter boundary crossed, and exposes live progress — achieved
throughput and completion estimate — which both the application API and the
decision engine's re-planning loop consume.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

from repro.cloud.network import FluidNetwork, Flow
from repro.cloud.pricing import CostMeter
from repro.transfer.plan import RouteAssignment, TransferPlan

#: Metadata bytes carried per chunk (sequence, digest, routing, ack).
CHUNK_METADATA_BYTES = 256.0


def chunk_count(total_size: float, chunk_size: float) -> int:
    """Number of ``chunk_size`` chunks that carry ``total_size`` bytes."""
    if total_size <= 0:
        raise ValueError("total_size must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return int(math.ceil(total_size / chunk_size))


class TransferSession:
    """Execution state of one logical transfer."""

    _ids = itertools.count(1)

    def __init__(
        self,
        network: FluidNetwork,
        plan: TransferPlan,
        size: float,
        chunk_size: float,
        meter: CostMeter | None = None,
        on_complete: Callable[["TransferSession"], None] | None = None,
        on_flow_complete: Callable[["TransferSession", Flow, RouteAssignment], None]
        | None = None,
        ack_overhead: bool = True,
        transport: str = "tcp",
    ) -> None:
        if size <= 0:
            raise ValueError("transfer size must be positive")
        self.session_id = next(self._ids)
        self.network = network
        self.sim = network.sim
        self.plan = plan
        self.size = float(size)
        self.chunk_size = float(chunk_size)
        self.meter = meter
        self.on_complete = on_complete
        self.on_flow_complete = on_flow_complete
        self.ack_overhead = ack_overhead
        self.transport = transport
        self.flows: list[Flow] = []
        self._route_of: dict[int, RouteAssignment] = {}
        self._chunks_of: dict[int, int] = {}
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.chunks_total = chunk_count(size, chunk_size)
        self.acks_received = 0
        self.bytes_on_wire = 0.0
        self._flows_pending = 0
        self.cancelled = False

    # ------------------------------------------------------------------
    def start(self) -> "TransferSession":
        if self.started_at is not None:
            raise RuntimeError("session already started")
        self.started_at = self.sim.now
        shares = self.plan.shares(self.size)
        for route, share in zip(self.plan.routes, shares):
            if share <= 0:
                continue
            chunks = chunk_count(share, self.chunk_size)
            wire_bytes = share + chunks * CHUNK_METADATA_BYTES
            flow = Flow(
                route.path,
                wire_bytes,
                streams=route.streams,
                intrusiveness=route.intrusiveness,
                on_complete=self._flow_done,
                label=f"session:{self.session_id}:{self.plan.label}",
                transport=self.transport,
            )
            self._route_of[flow.flow_id] = route
            self._chunks_of[flow.flow_id] = chunks
            self.flows.append(flow)
            self._flows_pending += 1
            self.bytes_on_wire += wire_bytes
            self.network.start_flow(flow)
        if self._flows_pending == 0:  # pragma: no cover - defensive
            raise RuntimeError("plan produced no flows")
        return self

    def cancel(self) -> float:
        """Abort in-flight flows; returns bytes *not yet* delivered.

        Delivered bytes stay delivered (the receiver keeps complete chunks)
        — re-planning resumes from the remainder, it does not restart.
        """
        # With every flow done and only the final ack round-trip left,
        # _complete still fires (and releases the callbacks then).
        ack_pending = (
            not self.cancelled
            and self.started_at is not None
            and self._flows_pending == 0
        )
        self.cancelled = True
        undelivered = 0.0
        for flow in self.flows:
            if not flow.done:
                undelivered += flow.remaining
                self.network.cancel_flow(flow)
                if self.meter is not None:
                    # Bytes already moved crossed real datacenter
                    # boundaries; the provider bills them regardless.
                    for src, dst in flow.wan_hops():
                        self.meter.charge_egress(
                            flow.transferred, context=f"{src}->{dst}"
                        )
        self._flows_pending = 0
        if not ack_pending:
            self._release_callbacks()
        return undelivered

    # ------------------------------------------------------------------
    def _flow_done(self, flow: Flow) -> None:
        route = self._route_of[flow.flow_id]
        self.acks_received += self._chunks_of[flow.flow_id]
        if self.meter is not None:
            # Every datacenter boundary crossed bills the upstream side.
            for src, dst in flow.wan_hops():
                self.meter.charge_egress(flow.size, context=f"{src}->{dst}")
        if self.on_flow_complete is not None:
            self.on_flow_complete(self, flow, route)
        self._flows_pending -= 1
        if self._flows_pending == 0 and not self.cancelled:
            self._finish()

    def _finish(self) -> None:
        if not self.ack_overhead:
            self._complete()
            return
        # Final acknowledgement round-trip on the slowest route.
        rtt = max(
            (
                self.network.topology.rtt(a.region_code, b.region_code)
                for route in self.plan.routes
                for a, b in zip(route.path[:-1], route.path[1:])
            ),
            default=0.0,
        )
        self.sim.schedule(rtt, self._complete)

    def _complete(self) -> None:
        if self.completed_at is not None:  # pragma: no cover - defensive
            return
        self.completed_at = self.sim.now
        on_complete = self.on_complete
        self._release_callbacks()
        if on_complete is not None:
            on_complete(self)

    def _release_callbacks(self) -> None:
        """Drop the completion callbacks of a finished or cancelled session.

        The owning service keeps sessions for reporting (``plan``,
        ``elapsed``, ``transferred``), but the callbacks close over the
        caller's payload — a shipped batch, a managed transfer — which
        must not stay reachable for the rest of the run.
        """
        self.on_complete = None
        self.on_flow_complete = None
        for flow in self.flows:
            flow.on_complete = None

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def transferred(self) -> float:
        return sum(f.transferred for f in self.flows)

    @property
    def remaining(self) -> float:
        return max(0.0, self.bytes_on_wire - self.transferred)

    @property
    def elapsed(self) -> float:
        if self.started_at is None:
            return 0.0
        end = self.completed_at if self.completed_at is not None else self.sim.now
        return end - self.started_at

    def current_throughput(self) -> float:
        """Aggregate instantaneous rate over all live routes."""
        return sum(f.rate for f in self.flows if not f.done)

    def mean_throughput(self) -> float:
        el = self.elapsed
        return self.transferred / el if el > 0 else 0.0

    def eta(self) -> float:
        """Seconds to completion at current rates (inf when stalled)."""
        rate = self.current_throughput()
        return self.remaining / rate if rate > 0 else float("inf")

    def route_progress(self) -> list[tuple[str, float, float]]:
        """(route description, transferred, rate) per flow — live view."""
        return [
            (self._route_of[f.flow_id].describe(), f.transferred, f.rate)
            for f in self.flows
        ]
