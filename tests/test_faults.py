"""Tests for the fault-injection subsystem (plans and the injector)."""

import numpy as np
import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.core.engine import SageEngine
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    chaos_scenario,
)
from repro.gen.adversity import link_flap, regional_outage
from repro.simulation.units import MB


def make_engine(seed=401):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 3, "NUS": 3})
    engine.start(learning_phase=60.0)
    return engine


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def test_fault_event_validation():
    with pytest.raises(ValueError, match="time"):
        FaultEvent(-1.0, FaultKind.VM_CRASH, "vm-1")
    with pytest.raises(ValueError, match="kind"):
        FaultEvent(0.0, "vm.explode", "vm-1")


def test_plan_builders_validate():
    plan = FaultPlan()
    with pytest.raises(ValueError, match="restart_after"):
        plan.crash_vm(0.0, "vm-1", restart_after=0.0)
    with pytest.raises(ValueError, match="duration"):
        plan.link_down(0.0, "NEU", "NUS", duration=-5.0)
    with pytest.raises(ValueError, match="scale"):
        plan.flap_link(0.0, "NEU", "NUS", scale=-0.1, duration=10.0)
    with pytest.raises(ValueError, match="duration"):
        plan.flap_link(0.0, "NEU", "NUS", scale=0.5, duration=0.0)
    with pytest.raises(ValueError, match="probability"):
        plan.drop_batches(0.0, 10.0, probability=0.0)
    with pytest.raises(ValueError, match="probability"):
        plan.duplicate_batches(0.0, 10.0, probability=1.5)


def test_plan_events_stay_time_ordered():
    plan = (
        FaultPlan()
        .link_down(50.0, "NEU", "NUS", duration=20.0)
        .crash_vm(10.0, "vm-1", restart_after=100.0)
    )
    times = [e.time for e in plan]
    assert times == sorted(times)
    assert len(plan) == 4  # down+up, crash+restart
    assert "vm.crash" in plan.describe()


def test_chaos_scenario_shape():
    with pytest.raises(ValueError, match="two sender VMs"):
        chaos_scenario(["only-one"], ("NEU", "NUS"))
    plan = chaos_scenario(["vm-1", "vm-2", "vm-3"], ("NEU", "NUS"))
    kinds = [e.kind for e in plan]
    assert kinds.count(FaultKind.VM_CRASH) == 2
    assert kinds.count(FaultKind.VM_RESTART) == 2
    assert FaultKind.LINK_DOWN in kinds and FaultKind.LINK_UP in kinds
    assert FaultKind.BATCH_DUP in kinds


# ----------------------------------------------------------------------
# Injector
# ----------------------------------------------------------------------
def test_injector_crash_and_restore_vm():
    engine = make_engine()
    vm = engine.deployment.vms("NEU")[0]
    vm.degrade(0.5)  # restore() must also clear prior degradation
    plan = FaultPlan().crash_vm(10.0, vm.vm_id, restart_after=20.0)
    injector = FaultInjector(engine, plan).arm()
    t0 = engine.sim.now
    engine.run_until(t0 + 15.0)
    assert vm.failed and not vm.alive
    assert vm.uplink_capacity == 0.0 and vm.downlink_capacity == 0.0
    engine.run_until(t0 + 35.0)
    assert vm.alive and vm.health == 1.0
    kinds = [f.kind for f in injector.log]
    assert kinds == [FaultKind.VM_CRASH, FaultKind.VM_RESTART]
    # Plan times are relative to arming, not absolute clock positions.
    assert injector.log[0].time == pytest.approx(t0 + 10.0)
    assert injector.log[1].time == pytest.approx(t0 + 30.0)


def test_injector_link_down_and_up():
    engine = make_engine()
    link = engine.env.topology.link("NEU", "NUS")
    FaultInjector(
        engine, FaultPlan().link_down(5.0, "NEU", "NUS", duration=10.0)
    ).arm()
    t0 = engine.sim.now
    engine.run_until(t0 + 7.0)
    assert link.capacity(engine.sim.now) == 0.0
    engine.run_until(t0 + 20.0)
    assert link.capacity(engine.sim.now) > 0


def test_injector_flap_scales_then_restores():
    engine = make_engine()
    link = engine.env.topology.link("NEU", "NUS")
    nominal = link.capacity(engine.sim.now)
    injector = FaultInjector(
        engine, FaultPlan().flap_link(2.0, "NEU", "NUS", scale=0.1,
                                      duration=10.0)
    ).arm()
    t0 = engine.sim.now
    engine.run_until(t0 + 5.0)
    assert link.fault_scale == 0.1
    # The diurnal process drifts a little; the flap still dominates.
    assert link.capacity(engine.sim.now) == pytest.approx(0.1 * nominal, rel=0.05)
    engine.run_until(t0 + 15.0)
    assert link.fault_scale == 1.0
    assert link.capacity(engine.sim.now) == pytest.approx(nominal, rel=0.05)
    assert [f.kind for f in injector.log] == [
        FaultKind.LINK_FLAP, FaultKind.LINK_UP
    ]


def test_injector_region_cut_downs_both_directions():
    # A partition is a link.down on every directed link across the cut.
    engine = make_engine()
    there = engine.env.topology.link("NEU", "NUS")
    back = engine.env.topology.link("NUS", "NEU")
    cut = regional_outage(
        FaultPlan(), np.random.default_rng(0), 1.0, "NEU", [], ["NUS"],
        outage_s=5.0, jitter_s=0.0,
    )
    assert {e.kind for e in cut} == {FaultKind.LINK_DOWN, FaultKind.LINK_UP}
    FaultInjector(engine, cut).arm()
    t0 = engine.sim.now
    engine.run_until(t0 + 3.0)
    assert there.capacity(engine.sim.now) == 0.0
    assert back.capacity(engine.sim.now) == 0.0
    engine.run_until(t0 + 10.0)
    assert there.capacity(engine.sim.now) > 0
    assert back.capacity(engine.sim.now) > 0


def test_injector_arms_once():
    engine = make_engine()
    injector = FaultInjector(engine, FaultPlan()).arm()
    assert engine.faults is injector
    with pytest.raises(RuntimeError, match="armed"):
        injector.arm()


def test_batch_drop_and_duplicate_windows():
    engine = make_engine()
    plan = (
        FaultPlan()
        .drop_batches(0.0, 30.0, origin="NEU")
        .duplicate_batches(0.0, 30.0, origin="WEU")
    )
    injector = FaultInjector(engine, plan).arm()
    engine.run_until(engine.sim.now + 1.0)
    assert injector.intercept_batch("NEU", 1) == "drop"
    assert injector.intercept_batch("WEU", 1) == "duplicate"
    assert injector.intercept_batch("EUS", 1) == "deliver"
    engine.run_until(engine.sim.now + 40.0)  # windows expired
    assert injector.intercept_batch("NEU", 2) == "deliver"
    assert injector.batches_dropped == 1
    assert injector.batches_duplicated == 1
    report = injector.report()
    assert report.batches_dropped == 1
    assert "batches dropped in flight: 1" in report.describe()


def test_injector_log_is_deterministic_per_seed():
    def run(seed):
        engine = make_engine(seed=404)
        vm_ids = [vm.vm_id for vm in engine.deployment.vms("NEU")]
        rng = np.random.default_rng(seed)
        plan = regional_outage(
            FaultPlan(), rng, 20.0, "NEU", vm_ids, ["NUS"],
            outage_s=60.0, jitter_s=30.0,
        )
        link_flap(plan, rng, 10.0, ("NUS", "NEU"), 0.05, 0.5, 60.0)
        injector = FaultInjector(engine, plan).arm()
        engine.run_until(engine.sim.now + 400.0)
        return injector.log

    assert run(31) == run(31)


def test_flow_stall_detection_and_recovery():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    a = env.provision("NEU", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    stalls = []
    env.network.on_stall = stalls.append
    flow = Flow([a, b], 200 * MB, streams=4)
    env.network.start_flow(flow)
    env.sim.run_until(5.0)
    assert flow.rate > 0
    env.topology.link("NEU", "NUS").set_down()
    env.network.notify_change()
    # Notified exactly once, even across several refresh intervals.
    env.sim.run_until(5.0 + env.network.stall_timeout + 25.0)
    assert stalls == [flow]
    assert flow in env.network.stalled_flows()
    env.topology.link("NEU", "NUS").set_up()
    env.network.notify_change()
    env.sim.run_until(100_000.0)
    assert flow.done
    assert flow.stalled_since is None
