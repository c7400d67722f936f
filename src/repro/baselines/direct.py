"""EndPoint2EndPoint: one source VM, one destination VM, one flow."""

from __future__ import annotations

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.config import DirectConfig, resolve_config
from repro.core.engine import SageEngine


class EndPoint2EndPoint:
    """The minimal transfer: what scp/rsync between two VMs achieves."""

    label = "EndPoint2EndPoint"

    def __init__(
        self, config: DirectConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(DirectConfig, config)
        self.config = cfg
        self.streams = cfg.streams

    def run(
        self,
        engine: SageEngine,
        src_region: str,
        dst_region: str,
        size: float,
    ) -> BaselineResult:
        src = engine.deployment.vms(src_region)[0]
        dst = engine.deployment.vms(dst_region)[0]
        before = engine.env.meter.snapshot()

        def _start(done) -> None:
            engine.transfers.direct(
                src, dst, size, streams=self.streams,
                on_complete=lambda _s: done(),
            )

        seconds = run_transfer_to_completion(engine, _start)
        spent = engine.env.meter.snapshot() - before
        return BaselineResult(
            label=self.label,
            seconds=seconds,
            egress_usd=spent.egress_usd,
            vm_seconds_busy=2 * seconds,
        )
