"""Tests for hierarchical (site → hub → global) aggregation."""

import hashlib

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.obs.audit import SLOAuditor
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
from repro.streaming.hierarchy import HubAggregator

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
    runtime = GeoStreamRuntime(
        engine,
        job,
        SageShipping.factory(n_nodes=1),
        hubs=HUBS,
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
        GeoStreamRuntime(
            engine, job, SageShipping.factory(), hubs={"NEU": "WEU"},
            hub_shipping_factory=SageShipping.factory(),
        )
    raw = make_job()
    raw.ship_raw_records = True
    with pytest.raises(ValueError, match="partials"):
        GeoStreamRuntime(
            engine, raw, SageShipping.factory(), hubs=HUBS,
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
        GeoStreamRuntime(
            engine, raw_job, SageShipping.factory(), hubs=HUBS,
            hub_shipping_factory=SageShipping.factory(),
        )
    assert len(engine.sim.queue) == queued


def test_hub_job_closes_the_loss_identity():
    """A drain that waits on the hubs' slots, batcher and shipping too
    counts every ingested record: a 30 s hold keeps merged partials at the
    hub long after the sites went quiet."""
    engine = make_engine(seed=601)
    job = make_job(key_per_site=False)
    runtime = GeoStreamRuntime(
        engine, job, SageShipping.factory(n_nodes=1), hubs=HUBS,
        hub_shipping_factory=SageShipping.factory(n_nodes=2), hub_hold=30.0,
    )
    auditor = SLOAuditor(engine, runtime, continuous_loss=True).start()
    runtime.start()
    engine.run_until(engine.sim.now + 100.0)

    def drain_pipe():
        while runtime.in_pipe():
            engine.run_until(engine.sim.now + 10.0)

    # The scenario harness's drain (ScenarioRun._quiesce), step for step.
    for site in runtime.sites.values():
        site.stop_sources(drain=True)
    drain_pipe()
    engine.run_until(engine.sim.now + job.watermark_lag + job.windows.length)
    drain_pipe()
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 60.0)
    assert runtime.records_ingested() > 0
    assert runtime.records_in_results() == runtime.records_ingested()
    assert not any(runtime.loss_terms().values())
    report = auditor.finish(quiescent=True)
    assert report.clean, report.violations


def test_hub_region_without_vms_is_refused_before_any_hub_starts():
    engine = make_engine(seed=605)
    queued = len(engine.sim.queue)
    with pytest.raises(ValueError, match="no VMs in hub region SUS"):
        GeoStreamRuntime(
            engine, make_job(), SageShipping.factory(),
            hubs={"NEU": "NEU", "WEU": "NEU", "EUS": "SUS"},
        )
    assert len(engine.sim.queue) == queued


def test_checkpointing_is_refused_with_hubs():
    """A site's retention replay would reach its hub, whose dedup drops
    it, so a restored aggregator would miss windows without a trace."""
    engine = make_engine(seed=605)
    runtime = GeoStreamRuntime(
        engine, make_job(), SageShipping.factory(), hubs=HUBS,
    )
    with pytest.raises(ValueError, match="hubs"):
        runtime.enable_checkpointing()
    assert runtime.checkpoint_store is None
    assert not runtime.aggregator.exactly_once
    assert not any(site.retain_batches for site in runtime.sites.values())
    runtime.stop()


def hub_run_digest(runtime) -> str:
    """sha256 over every result row, the edge and backbone bytes, and the
    WEU hub's partial counts."""
    h = hashlib.sha256()
    for r in runtime.results:
        h.update(repr((r.window.start, r.window.end, r.key, r.value,
                       r.record_count, r.sites, r.emitted_at)).encode())
    hub = runtime.hub_aggregators["WEU"]
    edge = sum(s.shipping.bytes_shipped for s in runtime.sites.values())
    backbone = sum(
        a.shipping.bytes_shipped for a in runtime.hub_aggregators.values()
    )
    h.update(repr((edge, backbone, hub.partials_in, hub.partials_out)).encode())
    return h.hexdigest()


#: Recorded at the last commit that had a separate hub runtime class, by
#: running ``PYTHONPATH=src python -m tests.test_streaming_hierarchy`` there
#: with this module's ``run_hier`` built on that class.
HUB_RUN_PINS = {
    (True, 2.0): "e3cf352f822949ea7c8225ae7664c5b0ca4a65f68101b7089024a620bc19477d",
    (True, 3.0): "6e1244004d601615783da897bc3b339c4c763e93e84ffecf946aef7ef6021b76",
    (False, 2.0): "3c9209f0241271b4affa3baf96c808708b8e24a0c89931e1ae76e30b2818e17d",
    (False, 3.0): "469bd942f3ca686b18bdfbdda2a3dc60b750a3af7213b4b1afeb843b0dd84e1a",
}


def _pin_cases():
    for key_per_site in (True, False):
        for hub_hold in (2.0, 3.0):
            yield key_per_site, hub_hold


@pytest.mark.parametrize("key_per_site,hub_hold", list(_pin_cases()))
def test_hub_runs_match_their_pins(key_per_site, hub_hold):
    runtime = run_hier(
        make_engine(seed=601), make_job(key_per_site=key_per_site),
        hub_hold=hub_hold,
    )
    assert hub_run_digest(runtime) == HUB_RUN_PINS[(key_per_site, hub_hold)]


if __name__ == "__main__":
    for key_per_site, hub_hold in _pin_cases():
        runtime = run_hier(
            make_engine(seed=601), make_job(key_per_site=key_per_site),
            hub_hold=hub_hold,
        )
        print(f"    ({key_per_site}, {hub_hold}): \"{hub_run_digest(runtime)}\",")
