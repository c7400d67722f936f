"""Columnar record plane ≡ per-record plane, pinned end to end.

The columnar rewrite is only allowed to change *speed*. Every test here
runs the same seeded workload under both planes and demands identical
observable output: window results, latency statistics, loss accounting,
scenario report metrics, and soak digests — including runs with bursts,
shedding, link brownouts, and a mid-run aggregator crash restored from
a checkpoint cut mid-batch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import warnings

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.config import (
    OverloadConfig,
    RecordPlaneConfig,
    SoakConfig,
    default_record_plane,
    set_default_record_plane,
)
from repro.core.engine import SageEngine
from repro.faults import FaultInjector, FaultPlan
from repro.flow import FlowConfig
from repro.gen.soak import run_soak
from repro.flow.scenario import run_overload
from repro.faults.scenario import run_chaos
from repro.streaming import (
    AdaptiveBatchPolicy,
    GeoStreamRuntime,
    PerRecordAdapter,
    PoissonSource,
    Record,
    RecordBatch,
    ReliableShipping,
    SageShipping,
)
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import MapOperator, builtin_aggregate
from repro.streaming.sources import BurstSource
from repro.streaming.windows import TumblingWindows
from repro.workloads.clickstream import clickstream_job
from repro.workloads.synthetic import fresh_engine

LEGACY = RecordPlaneConfig(columnar=False)
COLUMNAR = RecordPlaneConfig(columnar=True)


@pytest.fixture
def plane_guard():
    """Restore the process-default record plane after a test flips it."""
    previous = default_record_plane()
    yield
    set_default_record_plane(previous)


def _run_job(
    plane,
    operators=None,
    sources=None,
    aggregate="mean",
    *,
    ship_raw=False,
    flow=None,
    shipping=None,
    per_vm_records_per_s=5000.0,
    before_start=None,
):
    env = CloudEnvironment(seed=7)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "WEU": 2, "NUS": 2})
    engine.start()
    job = StreamJob(
        name="equiv",
        sites=[
            SiteSpec(
                region=region,
                sources=sources(region) if sources else [
                    PoissonSource(
                        name=f"p-{region.lower()}",
                        rate=500.0,
                        keys=["a", "b", "c"],
                    )
                ],
                operators=list(operators or []),
            )
            for region in ("NEU", "WEU")
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate(aggregate),
        ship_raw_records=ship_raw,
        flow=flow,
        record_plane=plane,
    )
    runtime = GeoStreamRuntime(
        engine,
        job,
        shipping or SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=per_vm_records_per_s,
    )
    if before_start is not None:
        before_start(engine, runtime)
    runtime.run_for(60.0)
    return runtime


def _observables(runtime):
    return {
        "results": [
            (r.window.start, r.window.end, r.key, r.value, r.record_count)
            for r in runtime.results
        ],
        "latency": runtime.latency_stats(),
        "wan_bytes": runtime.wan_bytes(),
        "emitted": sum(
            src.records_emitted
            for site in runtime.sites.values()
            for src in site.spec.sources
        ),
        "processed": sum(
            s.records_processed for s in runtime.sites.values()
        ),
    }


def test_poisson_job_identical_across_planes():
    legacy = _observables(_run_job(LEGACY))
    columnar = _observables(_run_job(COLUMNAR))
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


@pytest.mark.parametrize("aggregate", ["count", "sum", "min", "max", "var"])
def test_builtin_aggregates_identical_across_planes(aggregate):
    legacy = _observables(_run_job(LEGACY, aggregate=aggregate))
    columnar = _observables(_run_job(COLUMNAR, aggregate=aggregate))
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


class _LegacyDoubler:
    """An operator written against the old one-record-at-a-time protocol."""

    def process(self, record):
        return [
            Record(
                record.event_time,
                record.key,
                record.value * 2.0,
                record.origin,
                record.size_bytes,
            )
        ]


def test_per_record_adapter_preserves_results_and_warns():
    with pytest.warns(DeprecationWarning, match="process_batch"):
        adapted = PerRecordAdapter(_LegacyDoubler())
    assert isinstance(adapted.inner, _LegacyDoubler)

    def run(plane):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return _observables(_run_job(plane, operators=[_LegacyDoubler()]))

    legacy = run(LEGACY)
    columnar = run(COLUMNAR)
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy


def test_native_batch_operator_matches_per_record_fallback():
    vectorized = MapOperator(
        lambda r: Record(
            r.event_time, "all", r.value, r.origin, r.size_bytes
        ),
        batch_fn=lambda b: b.with_key("all"),
    )
    scalar_only = MapOperator(
        lambda r: Record(
            r.event_time, "all", r.value, r.origin, r.size_bytes
        ),
    )
    fast = _observables(_run_job(COLUMNAR, operators=[vectorized]))
    slow = _observables(_run_job(COLUMNAR, operators=[scalar_only]))
    legacy = _observables(_run_job(LEGACY, operators=[scalar_only]))
    assert fast["results"], "run produced no windows — vacuous test"
    assert fast == slow == legacy


def test_source_chunk_records_only_changes_offer_granularity():
    def sources(region, chunk=None):
        return [
            PoissonSource(
                name=f"p-{region.lower()}",
                rate=500.0,
                keys=["a", "b"],
                chunk_records=chunk,
            )
        ]

    whole = _observables(_run_job(COLUMNAR, sources=lambda r: sources(r)))
    chunked = _observables(
        _run_job(COLUMNAR, sources=lambda r: sources(r, chunk=64))
    )
    assert whole["results"], "run produced no windows — vacuous test"
    assert chunked == whole


def test_record_plane_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        RecordPlaneConfig(chunk_records=0)
    cfg = RecordPlaneConfig(columnar=False, chunk_records=128)
    assert RecordPlaneConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(TypeError):
        set_default_record_plane("columnar")
    previous = set_default_record_plane(cfg)
    try:
        assert default_record_plane() == cfg
    finally:
        set_default_record_plane(previous)


def test_record_batch_round_trips_records():
    records = [
        Record(1.0, "a", 0.5, "NEU", 200.0),
        Record(1.5, "b", -2.0, "NEU", 100.0),
        Record(2.0, "a", 7, "NEU", 50.0),  # non-float value: object dtype
    ]
    batch = RecordBatch.from_records(records)
    assert len(batch) == 3
    assert batch.to_records() == records
    assert [r for r in batch.iter_records()] == records
    view = batch[1:]
    assert view.to_records() == records[1:]
    merged = batch[:1] + batch[1:]
    assert merged.to_records() == records


@pytest.mark.parametrize("policy", ["block", "shed", "degrade"])
def test_overload_scenario_identical_across_planes(policy, plane_guard):
    # 90 s compressed replica of the overload scenario: burst, link
    # brownout, shed/degrade pressure, and an aggregator crash at t=40
    # restored from a checkpoint cut mid-batch at t=30.
    cfg = OverloadConfig(
        policy=policy,
        duration=90.0,
        burst_window=(20.0, 45.0),
        brownout=(25.0, 20.0, 0.1),
        crash_at=40.0,
        restart_after=10.0,
        checkpoint_interval=10.0,
        max_backlog=800,
        base_rate=120.0,
    )
    metrics = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        report = run_overload(cfg)
        metrics[name] = report.metrics
    assert metrics["columnar"] == metrics["legacy"]


def test_chaos_scenario_identical_across_planes(plane_guard):
    from repro.config import ChaosConfig

    cfg = ChaosConfig(duration=90.0, inject=True)
    metrics = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        report = run_chaos(cfg)
        metrics[name] = report.metrics
    assert metrics["columnar"] == metrics["legacy"]


def test_soak_digest_identical_across_planes(plane_guard):
    cfg = SoakConfig(seed=11, hours=0.1, profile="adversarial")
    digests = {}
    for name, plane in (("legacy", LEGACY), ("columnar", COLUMNAR)):
        set_default_record_plane(plane)
        digests[name] = run_soak(cfg).digest
    assert digests["columnar"] == digests["legacy"]


def test_stream_job_record_plane_field_round_trips():
    field_names = {f.name for f in dataclasses.fields(StreamJob)}
    assert "record_plane" in field_names
    job = StreamJob(
        name="pinning",
        sites=[
            SiteSpec(region="NEU", sources=[PoissonSource("s", rate=10.0)])
        ],
        aggregation_region="NUS",
        record_plane=LEGACY,
    )
    assert job.record_plane == LEGACY


# ----------------------------------------------------------------------
# Raw-record shipping (``ship_raw_records``): batches cross the WAN as
# column blocks on the columnar plane and as record lists on the
# per-record plane; everything the simulated cloud sees must agree, and
# two small jobs are pinned by value as well.
# ----------------------------------------------------------------------
def _result_rows(runtime):
    return sorted(
        (
            r.window.start,
            r.window.end,
            r.key,
            float(r.value),
            int(r.record_count),
            r.emitted_at,
        )
        for r in runtime.results
    )


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _raw_observables(runtime):
    sites = list(runtime.sites.values())
    raw = runtime.aggregator.checkpoint()["raw"]
    loss = {
        "ingested": runtime.records_ingested(),
        "counted": runtime.records_in_results(),
        "late": raw["late_dropped"],
        "open": sum(slot[4] for slot in raw["slots"]),
        "shed": runtime.records_shed(),
        "abandoned": sum(
            getattr(site.shipping, "records_abandoned", 0) for site in sites
        ),
        # run_for stops the site ticks with the sources, so the last
        # second's records stay in the backlog / batcher buffer.
        "buffered": sum(
            site.backlog + site.batcher.buffered_count for site in sites
        ),
    }
    return {
        "results": _result_rows(runtime),
        "wan_bytes": runtime.wan_bytes(),
        "batches_cut": [site.batcher.batches_cut for site in sites],
        "duplicates_dropped": runtime.aggregator.duplicates_dropped,
        "loss": loss,
    }


def _assert_raw_planes_agree(**kwargs):
    legacy = _raw_observables(_run_job(LEGACY, ship_raw=True, **kwargs))
    columnar_run = _run_job(COLUMNAR, ship_raw=True, **kwargs)
    columnar = _raw_observables(columnar_run)
    assert legacy["results"], "run produced no windows — vacuous test"
    assert columnar == legacy
    loss = columnar["loss"]
    assert loss["ingested"] == sum(
        loss[k]
        for k in ("counted", "late", "open", "shed", "abandoned", "buffered")
    )
    return columnar, columnar_run


#: Recorded at the commit before raw batches went columnar (PR 11).
GOLDEN_RAW_SEED7 = "b15f621d8082e0bd91f5d61b622d965146b871debdbe3396cc114ffc7ec5cd03"
GOLDEN_RAW_CLICKSTREAM_ADAPTIVE = "8f211dc265da459e2f34715f146dfe5ed72c7492e4b3668de28f67a07813ba64"


def test_raw_shipping_identical_across_planes_and_pinned():
    columnar, _ = _assert_raw_planes_agree()
    assert sum(columnar["batches_cut"]) > 50
    assert _digest(columnar["results"]) == GOLDEN_RAW_SEED7


def test_raw_clickstream_adaptive_batching_pinned():
    # The E9b arrangement: bursty clickstream, raw shipping, link-aware
    # batch threshold read from the live monitor.
    engine = fresh_engine(
        seed=7, spec={"NEU": 2, "WEU": 2, "NUS": 2}, learning_phase=120.0
    )
    job = clickstream_job(
        site_regions=["NEU", "WEU"],
        aggregation_region="NUS",
        batch_policy_factory=lambda: AdaptiveBatchPolicy(
            lambda: engine.monitor.estimated_throughput("NEU", "NUS"),
            target_occupancy=0.05,
            max_delay=1.0,
        ),
        ship_raw_records=True,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(40.0)
    rows = _result_rows(runtime)
    assert len(rows) > 100
    assert _digest(rows) == GOLDEN_RAW_CLICKSTREAM_ADAPTIVE


def test_raw_shipping_shed_overload_identical_across_planes():
    def sources(region):
        return [
            BurstSource(
                f"b-{region.lower()}",
                base_rate=150.0,
                burst_rate=1500.0,
                burst_start=15.0,
                burst_end=35.0,
                keys=["k1", "k2"],
            )
        ]

    columnar, _ = _assert_raw_planes_agree(
        sources=sources,
        flow=FlowConfig(policy="shed", max_backlog=800),
        per_vm_records_per_s=200.0,
    )
    assert columnar["loss"]["shed"] > 0


def test_raw_shipping_crash_restore_replays_retained_batches():
    retained_kinds = set()

    def arm(engine, runtime):
        runtime.enable_checkpointing(interval=10.0)

        def restart():
            for site in runtime.sites.values():
                retained_kinds.update(
                    type(b.records) for b in site._retained.values()
                )
            runtime.restart_aggregator()

        engine.sim.schedule(25.0, runtime.crash_aggregator)
        engine.sim.schedule(31.2, restart)

    columnar, run = _assert_raw_planes_agree(before_start=arm)
    assert run.aggregator_crashes == 1
    assert run.batches_dropped_while_down > 0
    # Batches in flight at the restart land after their replayed copies.
    assert columnar["duplicates_dropped"] > 0
    # One run per plane: record lists on the legacy plane, column
    # blocks (never re-objectified for retention) on the columnar one.
    assert retained_kinds == {list, RecordBatch}


def test_raw_shipping_reliable_batch_drop_window_identical_across_planes():
    def arm(engine, runtime):
        FaultInjector(
            engine, FaultPlan().drop_batches(20.0, 8.0, origin="NEU")
        ).arm()

    columnar, run = _assert_raw_planes_agree(
        shipping=ReliableShipping.factory(
            SageShipping.factory(n_nodes=2), delivery_timeout=6.0
        ),
        before_start=arm,
    )
    assert run.sites["NEU"].shipping.retries > 0
    assert run.engine.faults.batches_dropped > 0
