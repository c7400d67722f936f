"""Cross-module integration scenarios.

Each test exercises a full vertical slice: cloud substrate + monitoring +
decision + transfer (+ streaming), asserting system-level invariants that
no single-module test can see.
"""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.core.strategy import SageStrategy
from repro.baselines import StaticParallel
from repro.simulation.units import GB, HOUR, MB
from repro.streaming import (
    GeoStreamRuntime,
    SageShipping,
    SiteSpec,
    StreamJob,
    PoissonSource,
    TumblingWindows,
    builtin_aggregate,
)


def make_engine(seed, **env_kwargs):
    env = CloudEnvironment(seed=seed, **env_kwargs)
    engine = SageEngine(
        env,
        deployment_spec={"NEU": 6, "WEU": 4, "EUS": 4, "NUS": 6},
    )
    engine.start(learning_phase=180.0)
    return engine


def test_transfers_and_streaming_share_the_network():
    """A bulk transfer and a stream run concurrently; both finish and the
    stream's results are exact despite the contention."""
    engine = make_engine(71, variability_sigma=0.0, glitches=False)
    job = StreamJob(
        name="bg",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=300.0, keys=["k"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=1))
    runtime.start()
    mt = engine.decisions.transfer("NEU", "NUS", 1 * GB, n_nodes=4)
    engine.run_until(engine.sim.now + 300.0)
    runtime.stop()
    engine.run_until(engine.sim.now + 40.0)
    assert mt.done
    assert runtime.results
    counted = sum(r.value for r in runtime.results)
    assert counted <= runtime.records_ingested()
    assert counted > 0.5 * runtime.records_ingested()


def test_costs_reconcile_with_bytes_moved():
    """Egress billed by the meter matches the wire bytes of completed
    sessions, hop by hop."""
    engine = make_engine(72, variability_sigma=0.0, glitches=False)
    before = engine.env.meter.snapshot()
    mt = engine.decisions.transfer("NEU", "NUS", 512 * MB, n_nodes=4)
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    spent = engine.env.meter.snapshot() - before
    expected = 0.0
    for session in mt.sessions:
        for flow in session.flows:
            expected += flow.transferred * len(flow.wan_hops())
    assert spent.egress_bytes == pytest.approx(expected, rel=1e-6)


def test_monitoring_free_rides_on_transfers():
    """During a managed transfer the agent suspends probes on the busy
    link but keeps learning from the transfer's achieved throughput."""
    engine = make_engine(73)
    est_before = engine.monitor.link_map.estimate("NEU", "NUS")
    mt = engine.decisions.transfer("NEU", "NUS", 2 * GB, n_nodes=4)
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    est_after = engine.monitor.link_map.estimate("NEU", "NUS")
    assert est_after.samples > est_before.samples
    assert engine.monitor.samples_suspended > 0


def test_sage_vs_naive_with_glitchy_cloud_many_seeds():
    """Across seeds on a glitchy cloud, the managed transfer is at least
    competitive in aggregate (it should never lose badly)."""
    ratios = []
    for seed in (81, 82, 83):
        e1 = make_engine(seed)
        naive = StaticParallel({"n_nodes": 6, "streams": 4}).run(e1, "NEU", "NUS", 1 * GB)
        e2 = make_engine(seed)
        sage = SageStrategy(n_nodes=6).run(e2, "NEU", "NUS", 1 * GB)
        ratios.append(sage.seconds / naive.seconds)
    assert sum(ratios) / len(ratios) < 1.10
    # On calm stretches the plans coincide (ratio 1); SAGE must never be
    # the slower one.
    assert min(ratios) <= 1.0


def test_long_running_session_with_many_transfers_stays_consistent():
    """Back-to-back managed transfers: busy-VM tracking never leaks, and
    the calibrated gain stays within bounds."""
    engine = make_engine(74)
    for i in range(6):
        mt = engine.decisions.transfer(
            "NEU", "NUS", 256 * MB, n_nodes=3 + (i % 3)
        )
        while not mt.done:
            engine.run_until(engine.sim.now + 10)
    assert engine.decisions._busy_vms == set()
    lo, hi = engine.decisions.time_model.gain_bounds
    assert lo <= engine.decisions.time_model.gain <= hi


def test_vm_billing_and_finalize_after_experiments():
    engine = make_engine(75, variability_sigma=0.0, glitches=False)
    engine.run_until(2 * HOUR)
    engine.env.finalize()
    vm_hours = engine.env.meter.vm_seconds / HOUR
    assert vm_hours == pytest.approx(20 * 2, rel=0.01)  # 20 Small VMs
    assert engine.env.meter.vm_usd == pytest.approx(20 * 2 * 0.06, rel=0.01)
