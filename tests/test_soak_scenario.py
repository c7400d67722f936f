"""The long-horizon soak harness and correlated-outage recovery."""

import numpy as np
import pytest

from repro.api import run_experiment
from repro.cloud.deployment import CloudEnvironment
from repro.config import SoakConfig
from repro.core.engine import SageEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.flow.policy import FlowConfig
from repro.gen import regional_outage
from repro.scenarios import SoakRunner, run_soak
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


# ----------------------------------------------------------------------
# Config and phase plumbing
# ----------------------------------------------------------------------
def test_soak_config_validates():
    with pytest.raises(ValueError, match="hours"):
        SoakConfig(hours=0.0)
    with pytest.raises(ValueError, match="profile"):
        SoakConfig(profile="cozy")
    with pytest.raises(ValueError, match="check_interval"):
        SoakConfig(check_interval=0.0)


def test_phase_bounds_cover_the_horizon():
    runner = SoakRunner(SoakConfig(seed=3, hours=4.0))
    bounds = runner.phase_bounds()
    assert len(bounds) == 4
    assert bounds[0][0] == 0.0
    assert bounds[-1][1] == pytest.approx(4 * 3600.0)
    for (_, end), (start, _) in zip(bounds, bounds[1:]):
        assert end == start
    # Explicit phase length overrides the auto split.
    runner = SoakRunner(SoakConfig(seed=3, hours=4.0, phase_hours=1.5))
    assert len(runner.phase_bounds()) == 3


def test_soak_registered_as_scenario():
    report = run_experiment("soak", {"hours": 0.1, "profile": "calm"}, seed=5)
    assert report.scenario == "soak"
    assert report.clean
    assert report.config["profile"] == "calm"


# ----------------------------------------------------------------------
# Short soaks (every profile boots; the adversarial one holds its SLOs)
# ----------------------------------------------------------------------
def test_short_adversarial_soak_is_clean_and_accounted():
    report = run_soak(SoakConfig(seed=11, hours=0.25))
    res = report.details
    assert res.drained
    assert res.ingested > 0
    assert res.counted > 0
    assert res.accounted  # lost == shed + late + abandoned, at quiescence
    assert res.slo_violations == 0
    assert res.clean
    assert res.audit["checks"] > 10  # the auditor actually ran throughout
    assert res.phases  # per-phase rollups present
    assert sum(p["results"] for p in res.phases) == res.results


@pytest.mark.parametrize("seconds", [1800, 1801, 1829])
def test_loss_identity_holds_for_a_horizon_ending_inside_a_window(seconds):
    # 1801 s ends one tick into a 30 s window: the window's partials
    # reach the batcher only after the pipe has drained once, and used
    # to be stranded there when the ticks stopped (20 records lost,
    # explained by nothing).
    res = run_soak(
        SoakConfig(seed=7, hours=seconds / 3600, profile="adversarial")
    ).details
    assert res.accounted and res.drained
    assert res.counted == res.ingested
    assert res.slo_violations == 0
    assert res.ingested == {1800: 33924, 1801: 33944, 1829: 34437}[seconds]
    if seconds == 1800:  # the fix moved nothing on a horizon that worked
        assert res.digest.startswith("b7d6f42d560c7978")


def test_soak_report_surfaces():
    report = run_soak(SoakConfig(seed=11, hours=0.1, profile="calm"))
    res = report.details
    text = report.describe()
    assert "soak run: profile=calm" in text
    assert "digest: " + res.digest in text
    assert "CLEAN" in text
    assert res.scenario["deployment"]
    assert res.usd_per_1k >= 0.0
    # The canonical dict round-trips through the report envelope.
    assert report.canonical_dict()["result"]["seed"] == 11


@pytest.mark.soak
def test_hour_long_hostile_soak_survives():
    """One simulated hour of the nastiest profile: correlated outages,
    flap storms, dup/drop windows — invariants must hold throughout."""
    report = run_soak(SoakConfig(seed=29, hours=1.0, profile="hostile"))
    res = report.details
    assert res.drained
    assert res.accounted
    assert res.slo_violations == 0
    assert res.clean


# ----------------------------------------------------------------------
# Correlated regional outage: fail a whole region, lose nothing
# ----------------------------------------------------------------------
def test_regional_outage_recovers_with_zero_loss():
    """Every VM of the site region crashes and every link to/from it is
    blackholed inside one jittered window; after recovery and a full
    drain, every ingested record is in a result — nothing lost, nothing
    abandoned."""
    env = CloudEnvironment(seed=97, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "WUS": 4})
    engine.start(learning_phase=60.0)
    flow = FlowConfig(policy="block", max_backlog=50_000)
    job = StreamJob(
        name="outage",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=25.0, keys=["a", "b"])])],
        aggregation_region="WUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        finalize_grace=30.0,
        flow=flow,
    )
    factory = ReliableShipping.factory(
        SageShipping.factory(n_nodes=2, plan_ttl=30.0),
        flow=flow,
        delivery_timeout=10.0,
        max_retries=50,
    )
    runtime = GeoStreamRuntime(engine, job, factory, per_vm_records_per_s=50.0)

    vm_ids = [vm.vm_id for vm in engine.deployment.vms("NEU")]
    rng = np.random.Generator(np.random.PCG64(5))
    plan = regional_outage(
        FaultPlan(), rng, 60.0, "NEU", vm_ids, ["WUS"], 45.0, 5.0
    )
    injector = FaultInjector(engine, plan).arm()

    t0 = engine.sim.now
    runtime.start()
    engine.run_until(t0 + 240.0)
    for site in runtime.sites.values():
        site.stop_sources(drain=True)
    drain_cap = engine.sim.now + 600.0
    while runtime.in_pipe() and engine.sim.now < drain_cap:
        engine.run_until(engine.sim.now + 10.0)
    assert runtime.in_pipe() == 0
    engine.run_until(engine.sim.now + job.watermark_lag + 10.0)
    runtime.stop()
    engine.run_until(engine.sim.now + job.finalize_grace + 30.0)

    # The outage actually covered the region: both VMs crashed, both
    # link directions went dark, all inside the jittered window.
    applied = {(f.kind, f.target) for f in injector.log}
    for vm_id in vm_ids:
        assert (FaultKind.VM_CRASH, vm_id) in applied
        assert (FaultKind.VM_RESTART, vm_id) in applied
    assert (FaultKind.LINK_DOWN, "NEU->WUS") in applied
    assert (FaultKind.LINK_DOWN, "WUS->NEU") in applied
    crash_times = [
        f.time for f in injector.log if f.kind == FaultKind.VM_CRASH
    ]
    assert max(crash_times) - min(crash_times) <= 5.0

    ingested = runtime.records_ingested()
    counted = runtime.records_in_results()
    site = runtime.sites["NEU"]
    assert ingested > 0
    # Zero loss end to end: block policy + reliable shipping rode out
    # the outage; every record ingested before/during/after it landed.
    assert counted == ingested
    assert site.records_shed == 0
    assert site.shipping.records_abandoned == 0
