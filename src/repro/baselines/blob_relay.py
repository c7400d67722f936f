"""Transfer by staging through cloud object storage.

The only wide-area data path the 2013 cloud offered out of the box: the
source uploads the payload to a blob container, the destination downloads
it. Two full passes over the data, HTTP per object, per-operation
throughput ceilings, and storage transaction + capacity charges — the
experiments' slowest and most expensive strategy, included because it is
the realistic "do nothing" comparator.
"""

from __future__ import annotations

import itertools

from repro.baselines.base import BaselineResult, run_transfer_to_completion
from repro.config import BlobRelayConfig, resolve_config
from repro.core.engine import SageEngine


class BlobRelay:
    """Stage via the blob store of a chosen region (default: source's)."""

    label = "AzureBlobs"
    _names = itertools.count()

    def __init__(
        self, config: BlobRelayConfig | dict | None = None
    ) -> None:
        cfg = resolve_config(BlobRelayConfig, config)
        self.config = cfg
        self.staging_region = cfg.staging_region
        self.object_size = cfg.object_size
        self.parallel_objects = cfg.parallel_objects

    def run(
        self,
        engine: SageEngine,
        src_region: str,
        dst_region: str,
        size: float,
    ) -> BaselineResult:
        src = engine.deployment.vms(src_region)[0]
        dst = engine.deployment.vms(dst_region)[0]
        store = engine.env.blob(self.staging_region or src_region)
        before = engine.env.meter.snapshot()
        run_id = next(self._names)

        # The payload is staged as a series of objects; each object is
        # readable as soon as its own upload finishes, so upload and
        # download overlap object-by-object (pipelined staging).
        sizes: list[float] = []
        remaining = size
        while remaining > 0:
            part = min(self.object_size, remaining)
            sizes.append(part)
            remaining -= part
        state = {"uploaded": 0, "downloaded": 0, "next_put": 0}

        def _start(done) -> None:
            def _pump_puts() -> None:
                in_flight = state["next_put"] - state["uploaded"]
                while (
                    state["next_put"] < len(sizes)
                    and in_flight < self.parallel_objects
                ):
                    idx = state["next_put"]
                    state["next_put"] += 1
                    in_flight += 1
                    store.put(
                        src,
                        f"relay/{run_id}/{idx}",
                        sizes[idx],
                        on_done=lambda obj, i=idx: _staged(i),
                    )

            def _staged(idx: int) -> None:
                state["uploaded"] += 1
                store.get(
                    dst,
                    f"relay/{run_id}/{idx}",
                    on_done=lambda obj: _fetched(),
                )
                _pump_puts()

            def _fetched() -> None:
                state["downloaded"] += 1
                if state["downloaded"] == len(sizes):
                    done()

            _pump_puts()

        seconds = run_transfer_to_completion(engine, _start)
        # Staged objects occupied storage for roughly the transfer span.
        store.charge_capacity(seconds)
        for idx in range(len(sizes)):
            store.delete(f"relay/{run_id}/{idx}")
        spent = engine.env.meter.snapshot() - before
        return BaselineResult(
            label=self.label,
            seconds=seconds,
            egress_usd=spent.egress_usd,
            vm_seconds_busy=2 * seconds,
            extra_usd=spent.storage_usd,
        )
