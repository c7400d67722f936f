"""Tests for the Decision Manager's plan/execute/observe/re-plan loop."""

import hashlib
import json

import pytest

from repro.api import SageSession
from repro.cloud.deployment import CloudEnvironment
from repro.core.decision import DecisionConfig
from repro.core.engine import SageEngine
from repro.simulation.units import GB, MB
from repro.workloads.synthetic import STANDARD_SPEC


def make_engine(seed=11, stable=True, **decision_kwargs):
    env = CloudEnvironment(
        seed=seed,
        variability_sigma=0.0 if stable else 0.2,
        diurnal_amplitude=0.0 if stable else 0.12,
        glitches=not stable,
    )
    engine = SageEngine(
        env,
        deployment_spec={"NEU": 6, "WEU": 4, "EUS": 4, "NUS": 6},
        decision_config=DecisionConfig(**decision_kwargs) if decision_kwargs else None,
    )
    engine.start(learning_phase=180.0)
    return engine


def complete(engine, mt, timeout=100_000.0):
    deadline = engine.sim.now + timeout
    while not mt.done and engine.sim.now < deadline:
        engine.run_until(min(engine.sim.now + 10, deadline))
    assert mt.done, "managed transfer did not complete"
    return mt


def test_link_throughputs_reads_monitor():
    engine = make_engine()
    thr = engine.decisions.link_throughputs()
    assert ("NEU", "NUS") in thr
    assert all(v > 0 for v in thr.values())


def test_build_plan_direct_and_multi_dc():
    engine = make_engine()
    plan = engine.decisions.build_plan("NEU", "NUS", 6)
    assert plan.routes
    assert plan.routes[0].src.region_code == "NEU"
    assert plan.routes[0].dst.region_code == "NUS"
    assert plan.vm_count() >= 2


def test_build_plan_avoids_unhealthy_vms():
    engine = make_engine()
    bad = engine.deployment.vms("NEU")[0]
    bad.degrade(0.2)
    plan = engine.decisions.build_plan("NEU", "NUS", 4)
    used = {vm.vm_id for r in plan.routes for vm in r.path}
    assert bad.vm_id not in used


def test_managed_transfer_completes_with_bookkeeping():
    engine = make_engine()
    mt = engine.decisions.transfer("NEU", "NUS", 500 * MB, n_nodes=4)
    complete(engine, mt)
    assert mt.elapsed > 0
    assert mt.mean_throughput() > 0
    assert mt.schema_history
    assert mt.bytes_confirmed >= 500 * MB * 0.999


def test_parallel_nodes_speed_up_transfer():
    engine1 = make_engine(seed=5)
    t1 = complete(
        engine1, engine1.decisions.transfer("NEU", "NUS", 1 * GB, n_nodes=1)
    ).elapsed
    engine8 = make_engine(seed=5)
    t8 = complete(
        engine8, engine8.decisions.transfer("NEU", "NUS", 1 * GB, n_nodes=8)
    ).elapsed
    assert t8 < t1 / 2.5


def test_budget_rejects_impossible():
    engine = make_engine()
    with pytest.raises(ValueError, match="budget"):
        engine.decisions.transfer("NEU", "NUS", 10 * GB, budget_usd=0.0001)


def test_deadline_unreachable_uses_max_nodes():
    engine = make_engine(max_nodes=8)
    mt = engine.decisions.transfer("NEU", "NUS", 2 * GB, deadline_s=0.5)
    complete(engine, mt)
    # Used the most aggressive option available.
    assert mt.sessions[0].plan.vm_count() >= 8


def test_degraded_node_triggers_replan():
    engine = make_engine(replan_interval=15.0, warmup=5.0)
    mt = engine.decisions.transfer("NEU", "NUS", 2 * GB, n_nodes=5)
    engine.run_until(engine.sim.now + 20)
    session = mt.sessions[0]
    victims = {vm for r in session.plan.routes for vm in r.path if
               vm.region_code == "NEU"}
    for vm in list(victims)[:2]:
        vm.degrade(0.2)
    complete(engine, mt)
    assert mt.replans >= 1
    last_plan = mt.sessions[-1].plan
    degraded_ids = {vm.vm_id for vm in victims if vm.health < 0.5}
    used_after = {vm.vm_id for r in last_plan.routes for vm in r.path}
    assert not (degraded_ids & used_after)


def test_no_replan_when_healthy_and_on_target():
    engine = make_engine(replan_interval=10.0)
    mt = engine.decisions.transfer("NEU", "NUS", 1 * GB, n_nodes=4)
    complete(engine, mt)
    assert mt.replans == 0
    assert len(mt.sessions) == 1


def test_gain_calibrates_from_completed_transfers():
    engine = make_engine()
    initial = engine.decisions.time_model.gain
    for _ in range(4):
        mt = engine.decisions.transfer("NEU", "NUS", 512 * MB, n_nodes=8)
        complete(engine, mt)
    assert engine.decisions.time_model.gain != initial
    # Selector gain follows the calibrated model.
    assert engine.decisions.selector.gain == engine.decisions.time_model.gain


def test_busy_vms_not_reused_concurrently():
    engine = make_engine()
    mt1 = engine.decisions.transfer("NEU", "NUS", 2 * GB, n_nodes=3)
    used1 = {vm.vm_id for r in mt1.sessions[0].plan.routes for vm in r.path
             if vm.region_code == "NEU"}
    mt2 = engine.decisions.transfer("NEU", "NUS", 2 * GB, n_nodes=3)
    used2 = {vm.vm_id for r in mt2.sessions[0].plan.routes for vm in r.path
             if vm.region_code == "NEU"}
    assert not (used1 & used2)
    complete(engine, mt1)
    complete(engine, mt2)


def test_transfer_size_validation():
    engine = make_engine()
    with pytest.raises(ValueError):
        engine.decisions.transfer("NEU", "NUS", 0.0)


def test_choose_option_knee_default():
    engine = make_engine()
    opt = engine.decisions.choose_option(1 * GB, 5 * MB)
    assert 1 <= opt.n_nodes <= engine.decisions.config.max_nodes


# ----------------------------------------------------------------------
# Budget planning pin: one wave of concurrent managed transfers
# ----------------------------------------------------------------------
#: sha256 of one wave's outcome (see ``budget_wave_digest``). Regenerate —
#: only with a stated, deliberate re-pin — with
#: ``PYTHONPATH=src python -m tests.test_core_decision``.
BUDGET_WAVE_DIGEST = (
    "726429dc58254539693c1f5975a7006453af32c8816410aeaadf7c226cbd2bf5"
)


def budget_wave_digest() -> str:
    """Run 12 concurrent managed transfers and hash what planning chose.

    Every region sends two transfers and receives two; sizes span 64 MB to
    4 GB, and budget, deadline and unconstrained transfers are mixed, so
    ``DecisionManager._fit_budget``'s probes, the multi-path selector and
    the re-plan loop all shape the result. Hashes each transfer's
    ``(elapsed, replans, schema_history)`` plus the wave's egress dollars.
    The value pinned here was recorded before the path selector memoised
    its searches, so it also checks that the memo changed no plan.
    """
    session = SageSession(dict(STANDARD_SPEC), seed=7)
    regions = sorted(STANDARD_SPEC)
    senders = regions * 2
    receivers = regions[1:] + regions[:1] + regions[2:] + regions[:2]
    sizes = [64 * MB, 256 * MB, 1 * GB, 4 * GB] * 3
    kinds = ["budget", "deadline", "free"] * 4
    before = session.costs()
    handles = []
    for src, dst, size, kind in zip(senders, receivers, sizes, kinds):
        if kind == "budget":
            constraint = {"budget_usd": 0.25 * size / GB + 0.05}
        elif kind == "deadline":
            constraint = {"deadline_s": 600.0}
        else:
            constraint = {}
        handles.append(
            session.engine.decisions.transfer(src, dst, size, **constraint)
        )
    env = session.env
    deadline = env.now + 86_400.0
    while env.now < deadline and not all(h.done for h in handles):
        env.run_until(env.now + 60.0)
    assert all(h.done for h in handles)
    egress = (session.costs() - before).egress_usd
    session.close()
    # Plan labels carry a process-wide transfer id; drop it so the digest
    # does not depend on how many transfers ran earlier in the process.
    record = {
        "transfers": [
            [h.elapsed, h.replans,
             [s.replace(f":{h.transfer_id}]", "]") for s in h.schema_history]]
            for h in handles
        ],
        "egress_usd": egress,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_budget_wave_outcome_is_pinned():
    assert budget_wave_digest() == BUDGET_WAVE_DIGEST


if __name__ == "__main__":
    print(budget_wave_digest())
