"""Tests for hierarchical (site → hub → global) aggregation."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.simulation.units import MB
from repro.streaming import (
    GeoStreamRuntime,
    PoissonSource,
    SageShipping,
    SiteSpec,
    StreamJob,
    TumblingWindows,
    builtin_aggregate,
)
from repro.streaming.hierarchy import HierarchicalRuntime, HubAggregator

EU_SITES = ["NEU", "WEU", "EUS"]  # EUS stands in as a third edge site


def make_engine(seed=601):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env,
        deployment_spec={"NEU": 3, "WEU": 3, "EUS": 3, "NUS": 3, "WUS": 3},
    )
    engine.start(learning_phase=120.0)
    return engine


def make_job(rate=300.0, key_per_site=True):
    return StreamJob(
        name="h",
        sites=[
            SiteSpec(
                r,
                [PoissonSource(f"s-{r}", rate=rate,
                               keys=[r] if key_per_site else ["shared"])],
            )
            for r in EU_SITES
        ],
        aggregation_region="WUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )


HUBS = {"NEU": "WEU", "WEU": "WEU", "EUS": "WEU"}


def run_hier(engine, job, duration=100.0, **kwargs):
    runtime = HierarchicalRuntime(
        engine,
        job,
        hubs=HUBS,
        site_shipping_factory=SageShipping.factory(n_nodes=1),
        hub_shipping_factory=SageShipping.factory(n_nodes=2),
        **kwargs,
    )
    runtime.run_for(duration)
    return runtime


def test_hierarchical_counts_are_complete():
    engine = make_engine()
    runtime = run_hier(engine, make_job())
    counted = sum(r.value for r in runtime.results)
    ingested = runtime.records_ingested()
    assert counted > 0.7 * ingested
    assert counted <= ingested
    # Nothing emitted twice.
    slots = {(r.window, r.key) for r in runtime.results}
    assert len(slots) == len(runtime.results)


def test_hub_merges_shared_keys_before_the_backbone():
    """Three sites, one shared key: the hub forwards ONE merged partial
    per window instead of three."""
    engine = make_engine(seed=602)
    runtime = run_hier(engine, make_job(key_per_site=False), hub_hold=3.0)
    hub = runtime.hub_aggregators["WEU"]
    assert hub.partials_in > hub.partials_out
    assert hub.reduction_ratio > 0.5
    # Global results carry contributions from all three sites.
    full = [r for r in runtime.results if r.record_count > 0]
    assert full
    total = sum(r.value for r in full)
    assert total > 0.7 * runtime.records_ingested()


def test_hierarchy_cuts_backbone_volume_vs_flat():
    engine_flat = make_engine(seed=603)
    flat = GeoStreamRuntime(
        engine_flat, make_job(key_per_site=False),
        SageShipping.factory(n_nodes=1),
    )
    flat.run_for(100.0)
    engine_h = make_engine(seed=603)
    hier = run_hier(engine_h, make_job(key_per_site=False), hub_hold=3.0)
    # Flat: every site crosses the backbone; hierarchical: only the hub.
    assert hier.backbone_bytes() < 0.6 * flat.wan_bytes()
    # Comparable completeness.
    flat_total = sum(r.value for r in flat.results)
    hier_total = sum(r.value for r in hier.results)
    assert hier_total == pytest.approx(flat_total, rel=0.25)


def test_hierarchical_latency_pays_one_hold_stage():
    engine_flat = make_engine(seed=604)
    flat = GeoStreamRuntime(
        engine_flat, make_job(), SageShipping.factory(n_nodes=1)
    )
    flat.run_for(100.0)
    engine_h = make_engine(seed=604)
    hier = run_hier(engine_h, make_job(), hub_hold=2.0)
    extra = hier.latency_stats().p50 - flat.latency_stats().p50
    assert 0.0 <= extra < 10.0  # bounded by hold + one extra shipping leg


def test_hierarchy_validation():
    engine = make_engine(seed=605)
    job = make_job()
    with pytest.raises(ValueError, match="without a hub"):
        HierarchicalRuntime(
            engine, job, hubs={"NEU": "WEU"},
            site_shipping_factory=SageShipping.factory(),
            hub_shipping_factory=SageShipping.factory(),
        )
    raw = make_job()
    raw.ship_raw_records = True
    with pytest.raises(ValueError, match="partials"):
        HierarchicalRuntime(
            engine, raw, hubs=HUBS,
            site_shipping_factory=SageShipping.factory(),
            hub_shipping_factory=SageShipping.factory(),
        )
    with pytest.raises(ValueError):
        HubAggregator(engine, job, "WEU", None, hold=-1.0)


def test_hub_rejects_raw_payloads_of_either_kind():
    from repro.streaming import Batch, Record, RecordBatch

    engine = make_engine()
    hub = HubAggregator(
        engine, make_job(), "WEU", SageShipping(engine, "WEU", "WUS")
    )
    raw = [Record(1.0, "k", 1.0, "NEU"), Record(2.0, "k", 2.0, "NEU")]
    for seq, payload in enumerate((raw, RecordBatch.from_records(raw))):
        with pytest.raises(TypeError, match="partial-aggregate"):
            hub.deliver(Batch(payload, "NEU", 0.0, seq=seq))
    assert hub.partials_in == 0
    hub.stop()
    # A raw-shipping job can only ever produce such payloads, so the
    # runtime refuses it up front — before a hub (and its ticker) exists —
    # rather than from inside a delivery callback mid-run.
    raw_job = make_job()
    raw_job.ship_raw_records = True
    queued = len(engine.sim.queue)
    with pytest.raises(ValueError, match="requires partials"):
        HierarchicalRuntime(
            engine, raw_job, hubs=HUBS,
            site_shipping_factory=SageShipping.factory(),
            hub_shipping_factory=SageShipping.factory(),
        )
    assert len(engine.sim.queue) == queued
