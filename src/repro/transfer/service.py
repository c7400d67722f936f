"""The Transfer Agent's service facade.

``TransferService`` executes :class:`~repro.transfer.plan.TransferPlan`
objects on a cloud environment, wiring each session to the cost meter and
— when a monitoring agent is attached — feeding achieved route throughputs
back into the link performance model, so application transfers double as
free measurements (the agent suspends its own probes meanwhile).
"""

from __future__ import annotations

from typing import Callable

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.monitor.agent import MonitoringAgent
from repro.transfer.plan import RouteAssignment, TransferPlan
from repro.transfer.session import TransferSession
from repro.simulation.units import MB


class TransferService:
    """Executes transfer plans; the TA of the three-agent architecture."""

    def __init__(
        self,
        env: CloudEnvironment,
        monitor: MonitoringAgent | None = None,
        chunk_size: float = 8 * MB,
        ack_overhead: bool = True,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.chunk_size = chunk_size
        self.ack_overhead = ack_overhead

    def execute(
        self,
        plan: TransferPlan,
        size: float,
        on_complete: Callable[[TransferSession], None] | None = None,
        charge: bool = True,
    ) -> TransferSession:
        """Start a transfer of ``size`` bytes along ``plan``."""
        session = TransferSession(
            self.env.network,
            plan,
            size,
            chunk_size=self.chunk_size,
            meter=self.env.meter if charge else None,
            on_complete=on_complete,
            on_flow_complete=self._feed_monitor,
            ack_overhead=self.ack_overhead,
        )
        return session.start()

    def direct(
        self,
        src,
        dst,
        size: float,
        streams: int = 1,
        intrusiveness: float = 1.0,
        on_complete: Callable[[TransferSession], None] | None = None,
    ) -> TransferSession:
        """Convenience: single-route source→destination transfer."""
        return self.execute(
            TransferPlan.direct(src, dst, streams, intrusiveness),
            size,
            on_complete=on_complete,
        )

    # ------------------------------------------------------------------
    def _feed_monitor(
        self,
        session: TransferSession,
        flow: Flow,
        route: RouteAssignment,
    ) -> None:
        if self.monitor is None:
            return
        elapsed = flow.elapsed(self.env.sim.now)
        if elapsed <= 0:
            return
        achieved = flow.size / elapsed
        # Attribute the achieved rate to the route's *WAN bottleneck* —
        # for a helper route NEU->NEU->NUS that is the NEU->NUS hop.
        # Capacity is taught only when the flow ran visibly below its own
        # protocol ceiling: that is the signature of link saturation, as
        # opposed to an underloaded link whose utilisation says nothing
        # about its capacity.
        ceiling = self.env.network.flow_cap(flow)
        saturated = achieved < 0.7 * ceiling
        now = self.env.sim.now
        for hop in flow.wan_hops():
            src_code, dst_code = hop
            self.monitor.ingest(src_code, dst_code, now, achieved)
            # Aggregate on the link: this session's sibling flows count by
            # achieved rate when already done (equal-share siblings finish
            # in the same event, so their live rate reads zero), plus any
            # other traffic still active on the link.
            agg = self.env.network.link_utilization(src_code, dst_code)
            for sibling in session.flows:
                if hop not in sibling.wan_hops():
                    continue
                if sibling.done:
                    el = sibling.elapsed(now)
                    if el > 0:
                        agg += sibling.size / el
            self.monitor.note_utilization(
                src_code, dst_code, agg, saturated=saturated
            )
