"""A GridFTP / Globus-Online-like managed transfer.

Represents the best grid-era tooling adapted to the cloud: well-tuned
parallel streams between two fixed endpoints, a control channel with job
submission latency, and automatic fault recovery — but *statically*
configured: it neither observes the environment nor recruits helper nodes
or relay datacenters. Experiment E6 places it between the naive options
and the environment-aware system.
"""

from __future__ import annotations

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.config import GridFtpConfig, resolve_config
from repro.core.engine import SageEngine
from repro.transfer.plan import TransferPlan


class GridFtpLike:
    """Striped endpoint-to-endpoint transfer with submission overhead."""

    label = "GlobusOnline-like"

    def __init__(
        self, config: GridFtpConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(GridFtpConfig, config)
        self.config = cfg
        self.streams = cfg.streams
        self.submission_latency = cfg.submission_latency
        #: Striped servers per side (GridFTP striping), fixed at setup.
        self.endpoints = cfg.endpoints

    def run(
        self,
        engine: SageEngine,
        src_region: str,
        dst_region: str,
        size: float,
    ) -> BaselineResult:
        senders = engine.deployment.vms(src_region)[: self.endpoints]
        receivers = engine.deployment.vms(dst_region)[: self.endpoints]
        if not senders or not receivers:
            raise ValueError("deployment lacks VMs for GridFTP endpoints")
        before = engine.env.meter.snapshot()

        def _start(done) -> None:
            def _submit() -> None:
                pending = {"n": 0}
                share = size / len(senders)

                def _one_done(_s) -> None:
                    pending["n"] -= 1
                    if pending["n"] == 0:
                        done()

                for i, snd in enumerate(senders):
                    rcv = receivers[i % len(receivers)]
                    pending["n"] += 1
                    engine.transfers.execute(
                        TransferPlan.direct(
                            snd, rcv, streams=self.streams, label="gridftp"
                        ),
                        share,
                        on_complete=_one_done,
                    )

            engine.sim.schedule(self.submission_latency, _submit)

        seconds = run_transfer_to_completion(engine, _start)
        spent = engine.env.meter.snapshot() - before
        return BaselineResult(
            label=self.label,
            seconds=seconds,
            egress_usd=spent.egress_usd,
            vm_seconds_busy=2 * self.endpoints * seconds,
        )
