#!/usr/bin/env python
"""Hierarchical aggregation: continental hubs before the backbone.

Three European sites analyse click streams whose global counts are needed
in West US. Flat topology ships every site's window partials across the
Atlantic; the hierarchical topology merges them at a West-Europe hub
first, so the expensive backbone carries one merged partial per window
instead of three. The example runs both on identical input and prints the
backbone volume, result latency and count completeness side by side.

Run: ``python examples/continental_hubs.py``
"""

from repro.analysis.tables import render_table
from repro.simulation.units import KB, format_bytes
from repro.streaming import (
    GeoStreamRuntime,
    PoissonSource,
    SageShipping,
    SiteSpec,
    StreamJob,
    TumblingWindows,
    builtin_aggregate,
)
from repro.workloads.synthetic import fresh_engine

EU_SITES = ["NEU", "WEU", "EUS"]
DURATION = 240.0


def make_job() -> StreamJob:
    return StreamJob(
        name="global-clicks",
        sites=[
            SiteSpec(
                region,
                [
                    PoissonSource(
                        f"clicks-{region.lower()}",
                        rate=500.0,
                        keys=[f"/page/{i:02d}" for i in range(20)],
                    )
                ],
            )
            for region in EU_SITES
        ],
        aggregation_region="WUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )


def make_engine():
    return fresh_engine(
        seed=77,
        spec={"NEU": 3, "WEU": 3, "EUS": 3, "WUS": 3},
        learning_phase=180.0,
    )


def main() -> None:
    print(f"Counting clicks from {', '.join(EU_SITES)} globally in WUS...\n")
    rows = []

    flat = GeoStreamRuntime(
        make_engine(), make_job(), SageShipping.factory(n_nodes=1)
    )
    flat.run_for(DURATION)
    flat_counted = sum(r.value for r in flat.results)
    rows.append(
        [
            "flat (3x transatlantic)",
            format_bytes(flat.wan_bytes()),
            f"{flat.latency_stats().p50:.1f}",
            flat_counted,
        ]
    )

    hier = GeoStreamRuntime(
        make_engine(),
        make_job(),
        SageShipping.factory(n_nodes=1),
        hubs={region: "WEU" for region in EU_SITES},
        hub_shipping_factory=SageShipping.factory(n_nodes=2),
        hub_hold=2.0,
    )
    hier.run_for(DURATION)
    hier_counted = sum(r.value for r in hier.results)
    rows.append(
        [
            "hubbed (1x via WEU)",
            format_bytes(hier.backbone_bytes()),
            f"{hier.latency_stats().p50:.1f}",
            hier_counted,
        ]
    )

    print(
        render_table(
            ["topology", "backbone bytes", "p50 latency (s)", "clicks counted"],
            rows,
            title=f"{DURATION:.0f} s of global click counting",
        )
    )
    hub = hier.hub_aggregators["WEU"]
    edge_bytes = sum(site.shipping.bytes_shipped for site in hier.sites.values())
    print(
        f"\nWEU hub merged {hub.partials_in} site partials into "
        f"{hub.partials_out} backbone partials "
        f"({hub.reduction_ratio:.0%} reduction); edge traffic stayed "
        f"intra-Europe ({format_bytes(edge_bytes)})."
    )


if __name__ == "__main__":
    main()
