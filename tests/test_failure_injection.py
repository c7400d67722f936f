"""Failure-injection scenarios across the stack.

Degradations and glitches are injected mid-run; the assertions check the
system's contracted behaviour under them: no lost or double-counted data,
bounded recovery, and honest accounting.
"""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.config import ChaosConfig
from repro.core.engine import SageEngine
from repro.scenarios import run_chaos
from repro.simulation.units import GB, MB
from repro.streaming import (
    GeoStreamRuntime,
    PoissonSource,
    SageShipping,
    SiteSpec,
    StreamJob,
    TumblingWindows,
    builtin_aggregate,
)


def make_engine(seed=301, spec=None):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec=spec or {"NEU": 6, "WEU": 4, "NUS": 6}
    )
    engine.start(learning_phase=180.0)
    return engine


def test_all_senders_degraded_transfer_still_completes():
    engine = make_engine()
    mt = engine.decisions.transfer("NEU", "NUS", 512 * MB, n_nodes=4)
    engine.run_until(engine.sim.now + 15)
    for vm in engine.deployment.vms("NEU"):
        vm.degrade(0.25)  # no healthy fallback exists anywhere
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    assert mt.done  # slow, but never stuck
    assert mt.bytes_confirmed >= 512 * MB * 0.999


def test_mid_transfer_recovery_is_used_after_replan():
    engine = make_engine()
    victims = engine.deployment.vms("NEU")[:3]
    mt = engine.decisions.transfer("NEU", "NUS", 4 * GB, n_nodes=3)
    engine.run_until(engine.sim.now + 15)
    for vm in victims:
        vm.degrade(0.2)
    engine.run_until(engine.sim.now + 120)
    for vm in victims:
        vm.restore()
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    assert mt.replans >= 1
    assert mt.done


def test_flow_on_degraded_relay_slows_but_finishes():
    env = CloudEnvironment(seed=5, variability_sigma=0.0, glitches=False)
    a = env.provision("NEU", "Small")[0]
    relay = env.provision("EUS", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    flow = Flow([a, relay, b], 100 * MB, streams=4)
    env.network.start_flow(flow)
    env.sim.run_until(5.0)
    rate_before = flow.rate
    relay.degrade(0.1)
    env.network._recompute()  # rates react to the degradation
    assert flow.rate < rate_before * 0.5
    env.sim.run_until(100_000.0)
    assert flow.done


def test_streaming_site_stall_recovers_without_loss():
    """A site's VMs collapse for a while; every record eventually counts
    exactly once."""
    engine = make_engine(seed=302)
    job = StreamJob(
        name="stall",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=200.0, keys=["k"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=1))
    runtime.start()
    engine.run_until(engine.sim.now + 60)
    for vm in engine.deployment.vms("NEU"):
        vm.degrade(0.05)  # WAN shipping crawls
    engine.run_until(engine.sim.now + 60)
    for vm in engine.deployment.vms("NEU"):
        vm.restore()
    engine.run_until(engine.sim.now + 120)
    runtime.stop()
    engine.run_until(engine.sim.now + 60)
    counted = sum(r.value for r in runtime.results)
    windows = {(r.window, r.key) for r in runtime.results}
    assert len(windows) == len(runtime.results)  # no double emission
    assert counted <= runtime.records_ingested()
    assert counted >= 0.7 * runtime.records_ingested()


def test_glitchy_link_does_not_break_monitoring():
    env = CloudEnvironment(seed=303, variability_sigma=0.3, glitches=True)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=3600.0)  # a glitch almost surely occurred
    est = engine.monitor.link_map.estimate("NEU", "NUS")
    assert est.known
    hist = engine.monitor.history("thr/NEU->NUS")
    # The estimator sits near the central mass despite deep glitch samples.
    assert est.mean == pytest.approx(hist.percentile(50), rel=0.35)


def test_cancelled_managed_transfer_bills_partial_egress():
    engine = make_engine(seed=304)
    before = engine.env.meter.snapshot()
    mt = engine.decisions.transfer("NEU", "NUS", 4 * GB, n_nodes=4)
    engine.run_until(engine.sim.now + 30)
    session = mt.current_session
    moved = session.transferred
    session.cancel()
    spent = engine.env.meter.snapshot() - before
    assert moved > 0
    assert spent.egress_bytes == pytest.approx(moved, rel=0.05)


# ----------------------------------------------------------------------
# Hard-failure chaos scenarios (run with ``pytest -m chaos``)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_chaos_scenario_recovers_clean():
    """Two sender VMs crash and a link blackholes mid-run; the pipeline
    must deliver every ingested record exactly once, within bounds."""
    result = run_chaos(ChaosConfig(seed=7, duration=240.0))
    assert result.clean, result.describe()
    assert result.lost == 0 and result.double_counted == 0
    assert result.abandoned == 0  # bounded retries never gave up
    assert result.retries > 0  # the faults really bit
    assert result.suspicions >= 2 and result.recoveries >= 2
    assert result.detection_latencies
    assert max(result.detection_latencies) <= result.detection_bound
    # Every duplicate delivery (injected or late retry copy) was removed
    # by the aggregator — none slipped through, none vanished elsewhere.
    assert result.duplicates_delivered > 0
    assert result.duplicates_dropped == result.duplicates_delivered
    # Bounded recovery: the drain stays within grace + shipping slack.
    assert result.drain_seconds <= 150.0
    # Honest accounting: retried batches paid real egress.
    assert result.wan_bytes > 0
    assert result.egress_bytes > 0 and result.egress_usd > 0


@pytest.mark.chaos
def test_chaos_scenario_is_deterministic():
    a = run_chaos(ChaosConfig(seed=11, duration=200.0))
    b = run_chaos(ChaosConfig(seed=11, duration=200.0))
    assert a.faults == b.faults  # bit-identical fault log
    assert (a.retries, a.duplicates_delivered, a.ingested, a.counted) == (
        b.retries, b.duplicates_delivered, b.ingested, b.counted
    )
    assert a.clean and b.clean


@pytest.mark.chaos
@pytest.mark.parametrize("duration", [240.0, 241.0, 249.0])
def test_chaos_baseline_drains_a_horizon_ending_inside_a_window(
    duration, stopped_runtimes
):
    # 241 / 249 s end one tick into / one tick before the end of a 10 s
    # window; the one quiescence rule leaves nothing in the pipe either way.
    result = run_chaos(ChaosConfig(seed=7, duration=duration, inject=False))
    (runtime,) = stopped_runtimes
    assert runtime.in_pipe() == 0
    assert result.lost == 0 and result.accounted
    assert result.clean


@pytest.mark.chaos
def test_chaos_baseline_without_faults_is_quiet():
    result = run_chaos(ChaosConfig(seed=7, duration=180.0, inject=False))
    assert result.clean
    assert not result.faults
    assert result.retries == 0 and result.abandoned == 0
    assert result.duplicates_delivered == 0
    assert result.suspicions == 0 and result.recoveries == 0
