"""End-to-end observability: instrumented engine + streaming runtime.

The headline acceptance check lives here: the ``window.global_emit``
spans recorded during a streaming run must reconstruct the same
end-to-end latency distribution as :class:`LatencyStats` computes from
the emitted results.
"""

import importlib.util
import time

import numpy as np
import pytest

from repro.api import run_experiment
from repro.cloud.deployment import CloudEnvironment
from repro.baselines import run_transfer_to_completion
from repro.core.engine import SageEngine
from repro.obs import NULL_LOG, BatchTrace, Observer, read_jsonl
from repro.streaming import operators
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import DirectShipping, SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows
from repro.workloads.sensors import sensor_fusion_job
from repro.workloads.synthetic import fresh_engine


def make_engine(observer, seed=13):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env,
        deployment_spec={"NEU": 3, "WEU": 3, "NUS": 3},
        observer=observer,
    )
    engine.start(learning_phase=120.0)
    return engine


def make_job(rate=200.0, sites=("NEU", "WEU")):
    return StreamJob(
        name="obs-job",
        sites=[
            SiteSpec(
                region,
                [PoissonSource(f"src-{region}", rate=rate, keys=["k"])],
            )
            for region in sites
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )


def spans(obs, name):
    return [s for s in obs.log.spans if s["name"] == name]


@pytest.fixture(scope="module")
def run():
    obs = Observer()
    engine = make_engine(obs)
    runtime = GeoStreamRuntime(
        engine, make_job(), SageShipping.factory(n_nodes=2)
    )
    runtime.run_for(80.0)
    return obs, engine, runtime


def test_window_spans_reconstruct_latency_stats(run):
    obs, _engine, runtime = run
    stats = runtime.latency_stats()
    emits = spans(obs, "window.global_emit")
    assert len(emits) == len(runtime.results) == stats.count > 0
    latencies = np.array([s["end"] - s["start"] for s in emits])
    assert float(np.percentile(latencies, 50)) == pytest.approx(stats.p50)
    assert float(np.percentile(latencies, 95)) == pytest.approx(stats.p95)
    assert float(np.percentile(latencies, 99)) == pytest.approx(stats.p99)
    assert float(latencies.max()) == pytest.approx(stats.max)
    assert float(latencies.mean()) == pytest.approx(stats.mean)
    # The registry histogram saw the same distribution.
    hist = obs.registry.histogram("stream_window_latency_seconds")
    assert hist.count == stats.count
    assert hist.percentile(50) == pytest.approx(stats.p50)


def test_site_and_ship_instrumentation(run):
    obs, _engine, runtime = run
    snap = obs.registry.snapshot()
    for site in ("NEU", "WEU"):
        ingested = snap[f'stream_records_ingested_total{{site="{site}"}}']
        processed = snap[f'stream_records_processed_total{{site="{site}"}}']
        assert ingested.value == runtime.sites[site].records_ingested
        assert processed.value == runtime.sites[site].records_processed
    assert spans(obs, "ship.batch")
    shipped = sum(
        v.value
        for k, v in snap.items()
        if k.startswith("ship_bytes_total")
    )
    assert shipped == pytest.approx(runtime.wan_bytes())
    # Site-side window-close spans were recorded too.
    assert spans(obs, "window.site_close")


def test_ship_batch_span_is_the_hops_transit():
    obs = Observer()
    engine = make_engine(obs, seed=17)
    batch = Batch([Record(0.0, "k", 1.0, size_bytes=1e6)], "NEU",
                  created_at=engine.sim.now, seq=0)
    batch.trace = BatchTrace.stamp("NEU", 0, engine.sim.now)
    src, dst = engine.deployment.vms("NEU")[0], engine.deployment.vms("NUS")[0]
    DirectShipping(engine, [src], dst).ship(batch, lambda b: None)
    engine.run_until(engine.sim.now + 60.0)
    (span,) = spans(obs, "ship.batch")
    (hop,) = batch.trace.hops
    assert span["start"] == hop.sent_at
    assert span["end"] - span["start"] == hop.transit_s > 0
    assert span["attrs"]["bps"] == 1e6 / hop.transit_s
    assert any(entry is span for entry in obs.log.ring)


def test_baseline_span_ends_at_completion_not_at_the_poll():
    obs = Observer()
    engine = make_engine(obs)
    t0 = engine.sim.now
    elapsed = run_transfer_to_completion(
        engine, lambda done: engine.sim.schedule(7.0, done), step=5.0,
        label="unit",
    )
    (span,) = spans(obs, "baseline.transfer")
    assert (span["start"], span["end"]) == (t0, t0 + 7.0)
    assert span["t"] == t0 + 10.0  # written after the polling step
    assert span["attrs"] == {"label": "unit", "seconds": elapsed}


def test_monitor_and_sim_metrics(run):
    obs, engine, _runtime = run
    snap = obs.registry.snapshot()
    assert snap["monitor_samples_total"].value == engine.monitor.samples_taken
    assert snap["sim_events_total"].value == pytest.approx(
        engine.sim.events_processed
    )
    assert snap["sim_virtual_time_seconds"].value == engine.sim.now
    assert snap["sim_wall_seconds_total"].value > 0
    err = snap["monitor_estimator_relative_error"]
    assert err.count > 0 and err.p50 >= 0


def test_decision_predicted_vs_achieved_pairing():
    obs = Observer()
    engine = make_engine(obs, seed=17)
    mt = engine.decisions.transfer("NEU", "NUS", 50e6, n_nodes=2)
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    snap = obs.registry.snapshot()
    assert snap["decision_transfers_total"].value == 1
    assert snap["decision_predicted_seconds"].count == 1
    assert snap["decision_achieved_seconds"].count == 1
    ratio = obs.registry.histogram("decision_achieved_over_predicted")
    assert ratio.count == 1 and ratio.values[0] > 0
    strategy = snap['decision_strategy_total{strategy="fixed-nodes"}']
    assert strategy.value == 1
    (span,) = spans(obs, "transfer.managed")
    assert (span["start"], span["end"]) == (mt.started_at, mt.completed_at)
    assert span["attrs"]["achieved_seconds"] == mt.elapsed
    assert span["attrs"]["strategy"] == mt.strategy == "fixed-nodes"
    assert snap["decision_plans_total"].value >= 1


def test_disabled_observer_records_nothing():
    env = CloudEnvironment(seed=13, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=60.0)
    job = make_job(sites=("NEU",))
    GeoStreamRuntime(engine, job, SageShipping.factory()).run_for(30.0)
    assert not engine.observer.enabled
    assert engine.observer.registry.snapshot() == {}
    assert engine.observer.log is NULL_LOG
    assert not NULL_LOG.ring and not NULL_LOG.spans


def test_export_round_trip_from_run(run, tmp_path):
    obs, _engine, _runtime = run
    trace = tmp_path / "run.jsonl"
    prom = tmp_path / "run.prom"
    written = obs.export(trace_path=str(trace), metrics_path=str(prom))
    assert written["spans"] == len(obs.log.spans)
    assert written["series"] == len(obs.registry.snapshot())
    back = read_jsonl(str(trace))
    assert len(back) == written["spans"]
    assert "# TYPE" in prom.read_text()


# ----------------------------------------------------------------------
# Stage attribution: one rule (a callback's owner), one vocabulary
# ----------------------------------------------------------------------
def _is_layer_name(name: str) -> bool:
    """``sim.loop``, a ``repro`` module path, or a documented nested layer
    (DESIGN.md "Stage profiler": the merge, and one stage per operator)."""
    if name in ("sim.loop", "streaming.runtime.merge"):
        return True
    parent, _, leaf = name.rpartition(".")
    if parent == "streaming.operators":
        return hasattr(operators, leaf)
    return importlib.util.find_spec("repro." + name) is not None


def test_stage_attribution_covers_the_whole_run():
    """What the retired perf-baseline bench checked: shares tile, coverage
    holds against a wall measured around *everything* (engine construction
    and the learning phase included), every layer has its row."""
    obs = Observer()
    wall0 = time.perf_counter()
    engine = fresh_engine(
        seed=24013,
        spec={"NEU": 3, "WEU": 3, "EUS": 3, "NUS": 3},
        learning_phase=120.0,
        observer=obs,
    )
    runtime = GeoStreamRuntime(
        engine,
        sensor_fusion_job(
            site_regions=["NEU", "WEU", "EUS"], aggregation_region="NUS"
        ),
        SageShipping.factory(n_nodes=2),
    )
    runtime.run_for(60.0)
    # A restarted site re-joins its tick group under the same names.
    before = set(obs.profiler.stages())
    site = runtime.sites["NEU"]
    site.stop()
    site.restart()
    ticks = obs.profiler.stages()["streaming.runtime"].calls
    engine.run_until(engine.sim.now + 60.0)
    profile = obs.profiler.snapshot(
        wall_seconds=time.perf_counter() - wall0
    )
    stages = profile["stages"]
    assert set(stages) == before
    assert stages["streaming.runtime"]["calls"] > ticks + 60
    assert sum(s["share"] for s in stages.values()) == pytest.approx(1.0)
    assert 0.80 <= profile["coverage"] < 1.0
    assert {
        "sim.loop",
        "streaming.sources",
        "streaming.runtime",
        "streaming.operators.MapOperator",
        "streaming.windows",
        "streaming.batching",
        "streaming.shipping",
        "streaming.runtime.merge",
        "cloud.network",
        "monitor.agent",
    } <= set(stages)
    assert all(_is_layer_name(name) for name in stages)


@pytest.mark.parametrize("scenario", ["chaos", "overload", "serve"])
def test_scenario_stages_are_named_after_existing_layers(scenario):
    obs = Observer()
    run_experiment(scenario, {"duration": 120.0}, seed=7, observer=obs)
    stages = set(obs.profiler.stages())
    assert {"streaming.sources", "cloud.network", "obs.audit"} <= stages
    assert "simulation.engine" not in stages
    assert [name for name in stages if not _is_layer_name(name)] == []
