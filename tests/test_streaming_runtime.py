"""Integration tests for the geo-streaming runtime."""

import numpy as np
import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import FilterOperator, builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, LatencyStats
from repro.streaming.shipping import BlobShipping, DirectShipping, SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


def make_engine(seed=13):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 3, "WEU": 3, "EUS": 3, "NUS": 3}
    )
    engine.start(learning_phase=120.0)
    return engine


def make_job(rate=200.0, sites=("NEU", "WEU"), window=10.0, **kwargs):
    return StreamJob(
        name="t",
        sites=[
            SiteSpec(
                region,
                [PoissonSource(f"src-{region}", rate=rate, keys=["k1", "k2"])],
            )
            for region in sites
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(window),
        aggregate=builtin_aggregate("count"),
        **kwargs,
    )


def test_end_to_end_counts_are_exact():
    engine = make_engine()
    runtime = GeoStreamRuntime(engine, make_job(), SageShipping.factory(n_nodes=2))
    runtime.run_for(100.0)
    total_counted = sum(r.value for r in runtime.results)
    ingested = runtime.records_ingested()
    # Every ingested record whose window closed must be counted exactly once.
    assert total_counted > 0
    assert total_counted <= ingested
    assert total_counted >= 0.7 * ingested  # tail windows still open


def test_results_have_all_sites():
    engine = make_engine()
    t0 = engine.sim.now  # streaming starts after the learning phase
    runtime = GeoStreamRuntime(engine, make_job(), SageShipping.factory(n_nodes=2))
    runtime.run_for(80.0)
    full_windows = [r for r in runtime.results if r.window.end <= t0 + 60.0]
    assert full_windows
    assert all(r.sites == 2 for r in full_windows)


def test_latency_composition_is_sane():
    engine = make_engine()
    job = make_job(watermark_lag=2.0, finalize_grace=4.0)
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(100.0)
    stats = runtime.latency_stats()
    assert stats.count > 0
    # Lower bound: lag + grace. Upper bound: plus batching + shipping slack.
    assert stats.p50 >= 6.0
    assert stats.p95 < 30.0


def test_operators_applied_before_aggregation():
    engine = make_engine()
    t0 = engine.sim.now
    job = make_job()
    job.sites[0].operators.append(FilterOperator(lambda r: False))  # drop site 0
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(60.0)
    full = [r for r in runtime.results if r.window.end <= t0 + 40.0]
    assert full
    assert all(r.sites == 1 for r in full)  # only site 1 contributed


def test_overload_turns_into_latency_not_loss():
    engine = make_engine()
    job = make_job(rate=2000.0)
    runtime = GeoStreamRuntime(
        engine, job, SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=200.0,  # grossly undersized sites
    )
    runtime.run_for(60.0)
    assert any(s.max_backlog > 0 for s in runtime.sites.values())
    counted = sum(r.value for r in runtime.results)
    processed = sum(s.records_processed for s in runtime.sites.values())
    closed = [r for r in runtime.results]
    # Slow, but nothing counted twice and nothing silently dropped:
    emitted_windows = {(r.window, r.key) for r in closed}
    assert len(emitted_windows) == len(closed)
    assert counted <= processed


def test_ship_raw_records_mode_more_wan_bytes():
    engine1 = make_engine(seed=40)
    r1 = GeoStreamRuntime(
        engine1, make_job(), SageShipping.factory(n_nodes=2)
    )
    r1.run_for(60.0)
    engine2 = make_engine(seed=40)
    job_raw = make_job(ship_raw_records=True)
    r2 = GeoStreamRuntime(engine2, job_raw, SageShipping.factory(n_nodes=2))
    r2.run_for(60.0)
    # Local aggregation reduces WAN volume by a large factor.
    assert r2.wan_bytes() > 5 * r1.wan_bytes()
    # And the raw-shipping mode still produces (aggregator-side) results.
    assert r2.results


def test_columnar_raw_job_builds_no_record_per_stream_record(monkeypatch):
    from repro.streaming.events import Record
    from repro.streaming.operators import MapOperator
    from repro.streaming.records import RecordBatch

    def forbidden(self, *args, **kwargs):
        raise AssertionError("a columnar raw job re-objectified a batch")

    for name in ("iter_records", "to_records"):
        monkeypatch.setattr(RecordBatch, name, forbidden)
    built = []
    init = Record.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Record, "__init__", counting_init)
    engine = make_engine(seed=40)
    job = make_job(rate=400.0, ship_raw_records=True)
    for spec in job.sites:
        spec.operators.append(
            MapOperator(lambda r: r, batch_fn=lambda b: b.with_key("all"))
        )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(60.0)
    assert runtime.records_ingested() > 40_000
    assert runtime.results and {r.key for r in runtime.results} == {"all"}
    # Not even the aggregation site's window close builds one: closed
    # windows come out as a column block.
    assert built == []


def test_direct_and_blob_backends_work():
    for factory in (DirectShipping.factory(), BlobShipping.factory()):
        engine = make_engine(seed=17)
        runtime = GeoStreamRuntime(engine, make_job(), factory)
        runtime.run_for(60.0)
        assert runtime.results
        assert runtime.wan_bytes() > 0


def test_runtime_validates_regions():
    engine = make_engine()
    job = StreamJob(
        name="bad",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=1.0)])],
        aggregation_region="SUS",  # no VMs there in this deployment
    )
    with pytest.raises(ValueError, match="aggregation region"):
        GeoStreamRuntime(engine, job, SageShipping.factory())


def test_throughput_accessor():
    engine = make_engine()
    runtime = GeoStreamRuntime(engine, make_job(), SageShipping.factory(n_nodes=2))
    runtime.run_for(50.0)
    assert runtime.throughput(50.0) > 0
    with pytest.raises(ValueError):
        runtime.throughput(0.0)


def test_latency_stats_empty():
    stats = LatencyStats.from_latencies(np.array([]))
    assert stats.count == 0
    assert not stats  # the empty sentinel is falsy
    assert stats.describe() == "latency: no results emitted"
    empty = LatencyStats.empty()
    assert empty.count == 0 and not empty
    import math

    assert math.isnan(empty.p99)


def test_latency_stats_single_result():
    from repro.streaming.runtime import WindowResult
    from repro.streaming.windows import Window

    result = WindowResult(
        window=Window(0.0, 10.0),
        key="k",
        value=1,
        record_count=3,
        sites=1,
        emitted_at=14.0,
    )
    stats = LatencyStats.from_latencies(np.array([result.latency]))
    assert stats
    assert stats.count == 1
    # Degenerate distribution: every percentile is the one latency.
    assert stats.p50 == stats.p95 == stats.p99 == stats.max == 4.0
    assert "p99 4.0s" in stats.describe()
