"""Control plane: leader lease, admission, failover, live reconfig."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.config import ControlConfig, ServeConfig, SoakConfig
from repro.control import AdmissionGate, ControlPlane, LeaderLease
from repro.core.engine import SageEngine
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.flow.policy import FlowConfig
from repro.monitor.agent import MonitorConfig
from repro.obs.audit import SLOAuditor
from repro.scenarios import run_serve, run_soak
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import RetryBudget, SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


# ----------------------------------------------------------------------
# LeaderLease
# ----------------------------------------------------------------------
def test_lease_acquire_renew_expire():
    clock = _Clock()
    lease = LeaderLease(clock, ttl=10.0)
    assert lease.holder() is None
    assert lease.try_acquire("a") == 1
    assert lease.holder() == "a"
    clock.now = 5.0
    assert lease.renew("a") is True
    assert lease.remaining == pytest.approx(10.0)
    # A live term refuses other claimants — the CAS half of the CAS.
    assert lease.try_acquire("b") is None
    # Expiry frees it; the new holder starts a new epoch.
    clock.now = 20.0
    assert lease.holder() is None
    assert lease.renew("a") is False  # expired terms cannot renew
    assert lease.try_acquire("b") == 2
    assert lease.holder() == "b"
    assert [t["holder"] for t in lease.transitions] == ["a", "b"]


def test_lease_same_holder_after_expiry_is_a_new_epoch():
    clock = _Clock()
    lease = LeaderLease(clock, ttl=5.0)
    assert lease.try_acquire("a") == 1
    clock.now = 3.0
    assert lease.try_acquire("a") == 1  # live own term: extend, no bump
    clock.now = 30.0
    # Someone else may have held in between — a fresh epoch is required.
    assert lease.try_acquire("a") == 2


def test_lease_release_lapses_now():
    clock = _Clock()
    lease = LeaderLease(clock, ttl=10.0)
    lease.try_acquire("a")
    assert lease.release("a") is True
    assert lease.holder() is None
    assert lease.release("a") is False
    with pytest.raises(ValueError):
        LeaderLease(clock, ttl=0.0)


# ----------------------------------------------------------------------
# AdmissionGate
# ----------------------------------------------------------------------
def test_admission_token_accounting():
    gate = AdmissionGate(rate=10.0, burst_s=2.0)  # capacity 20 tokens
    assert gate.admit(15, now=0.0) == 0  # within the burst
    assert gate.admit(10, now=0.0) == 5  # 5 tokens left -> reject 5
    assert gate.admitted == 20 and gate.rejected == 5
    # One second refills 10 tokens.
    assert gate.admit(10, now=1.0) == 0
    with pytest.raises(ValueError):
        AdmissionGate(rate=0.0)


def test_admission_saturated_rejects_everything():
    gate = AdmissionGate(rate=1000.0)
    assert gate.admit(50, now=0.0, saturated=True) == 50
    assert gate.rejected == 50 and gate.admitted == 0


# ----------------------------------------------------------------------
# RetryBudget (shipping) and MonitorConfig (detector) satellites
# ----------------------------------------------------------------------
def test_retry_budget_counts_exhaustion():
    budget = RetryBudget(2)
    assert budget.try_acquire() and budget.try_acquire()
    assert not budget.try_acquire()
    assert budget.exhausted_total == 1
    budget.release()
    assert budget.try_acquire()
    budget.release()
    budget.release()
    budget.release()  # floors at zero
    assert budget.active == 0
    with pytest.raises(ValueError):
        RetryBudget(0)


def test_monitor_config_validates_suspicion_bound():
    cfg = MonitorConfig(heartbeat_interval=3.0, failure_timeout=12.0)
    assert cfg.detection_bound == pytest.approx(15.0)
    with pytest.raises(ValueError):
        MonitorConfig(heartbeat_interval=5.0, failure_timeout=2.0)
    with pytest.raises(ValueError):
        MonitorConfig(heartbeat_interval=0.0)


# ----------------------------------------------------------------------
# Config surfaces
# ----------------------------------------------------------------------
def test_control_config_mttr_bound():
    cfg = ControlConfig(
        lease_ttl=10.0, watch_interval=2.0,
        promotion_delay=2.0, cold_fetch_delay=5.0,
    )
    assert cfg.mttr_bound == pytest.approx(19.0)
    with pytest.raises(ValueError):
        ControlConfig(renew_interval=10.0, lease_ttl=10.0)


def test_serve_config_rejects_overlapping_standbys():
    with pytest.raises(ValueError):
        ServeConfig(standby_regions=("NEU",))  # NEU is a site region
    cfg = ServeConfig()
    assert cfg.control().lease_ttl == cfg.lease_ttl


# ----------------------------------------------------------------------
# ControlPlane on a live runtime
# ----------------------------------------------------------------------
def _make_runtime(with_checkpointing=True):
    env = CloudEnvironment(seed=11, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 2, "WEU": 2, "NUS": 3, "EUS": 2}
    )
    engine.start(learning_phase=60.0)
    flow = FlowConfig(policy="block", max_backlog=100)
    job = StreamJob(
        name="t",
        sites=[
            SiteSpec(
                region,
                [PoissonSource(f"src-{region}", rate=20.0, keys=["k"])],
            )
            for region in ("NEU", "WEU")
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        flow=flow,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    if with_checkpointing:
        runtime.enable_checkpointing(interval=10.0)
    return engine, runtime


def test_plane_requires_checkpointing():
    engine, runtime = _make_runtime(with_checkpointing=False)
    with pytest.raises(ValueError):
        ControlPlane(engine, runtime)


def test_apply_swaps_flow_and_stamps_config_version():
    engine, runtime = _make_runtime()
    plane = ControlPlane(engine, runtime)
    plane.add_leader()
    v = plane.apply({"max_backlog": 200})
    assert v == 1
    assert runtime.aggregator.config_version == 1
    for site in runtime.sites.values():
        assert site.flow.max_backlog == 200
        assert site.flow.policy == "block"
        assert site.credits.capacity == 200
    assert plane.config_log[0]["changes"]["max_backlog"] == 200
    with pytest.raises(ValueError):
        plane.apply({"policy": "shed"})  # not a live knob
    with pytest.raises(ValueError):
        plane.apply({})


def _gated_run(rate):
    """The two-site job for two minutes behind per-site admission gates of
    ``rate`` records/s (0: no gate)."""
    engine, runtime = _make_runtime()
    ControlPlane(engine, runtime, ControlConfig(admission_rate=rate)).start()
    runtime.start()
    engine.run_until(engine.sim.now + 120.0)
    return runtime


def _window_results(runtime):
    return [(r.window, r.key, r.value, r.record_count) for r in runtime.results]


def test_admission_gate_above_the_load_changes_no_result():
    gated, ungated = _gated_run(1e6), _gated_run(0.0)
    assert all(s.admission is not None for s in gated.sites.values())
    assert all(s.admission is None for s in ungated.sites.values())
    assert gated.records_admission_rejected() == 0
    assert _window_results(gated) == _window_results(ungated)
    assert gated.results


def test_tight_admission_gate_rejects_what_the_gate_refused():
    runtime = _gated_run(5.0)  # each site offers ~20 records/s
    sites = list(runtime.sites.values())
    assert all(s.admission.rejected > 0 for s in sites)
    for site in sites:
        assert site.records_admission_rejected == site.admission.rejected


def test_split_brain_audit_fires_on_two_leaders():
    engine, runtime = _make_runtime()
    plane = ControlPlane(engine, runtime)
    plane.add_leader()
    rogue = plane.add_standby("EUS")
    auditor = SLOAuditor(engine, runtime, control=plane)
    auditor.check_now()
    assert not auditor.violations  # one leader: invariant holds
    rogue.role = "leader"  # a buggy promotion would look like this
    auditor.check_now()
    kinds = [v.kind for v in auditor.violations]
    assert "split_brain" in kinds


def test_leader_kill_without_plane_is_a_recorded_noop():
    engine, runtime = _make_runtime()
    plan = FaultPlan().kill_leader(5.0, recovery=30.0)
    assert plan.horizon() == pytest.approx(35.0)
    injector = FaultInjector(engine, plan).arm()
    runtime.start()
    engine.run_until(engine.sim.now + 20.0)
    assert [f.kind for f in injector.log] == [FaultKind.LEADER_KILL]
    assert runtime.aggregator_up  # nobody killed anything


# ----------------------------------------------------------------------
# End-to-end: serve scenario and failover soak
# ----------------------------------------------------------------------
def test_serve_failover_is_clean_and_exactly_once():
    report = run_serve(
        ServeConfig(
            duration=600.0,
            kill_leader_every=250.0,
            reconfigure_at=300.0,
            base_rate=30.0,
        )
    )
    d = report.details
    assert d.kills == 1 and d.failovers == 1
    assert d.epochs == 2  # initial term + one promotion
    assert d.mttr_max <= d.mttr_bound
    assert d.config_versions == 1
    # Windows split across both epochs, none lost, none doubled.
    assert set(d.results_by_epoch) == {"1", "2"}
    assert d.lost == 0 and d.accounted and d.drained
    assert d.audit["clean"]
    assert d.clean
    # The promoted leader's epoch is stamped on post-failover windows.
    assert d.failover_log[0]["epoch"] == 2


@pytest.mark.parametrize("duration", [601.0, 609.0])
def test_serve_with_one_kill_drains_a_horizon_ending_inside_a_window(duration):
    # One tick into / one tick before the end of a 10 s window: the
    # harness's one quiescence rule drains both.
    d = run_serve(
        ServeConfig(duration=duration, kill_leader_every=250.0, base_rate=30.0)
    ).details
    assert d.kills == 1 and d.failovers == 1
    assert d.drained and d.accounted and d.lost == 0
    assert d.clean


def test_soak_failovers_deterministic_and_clean():
    cfg = SoakConfig(hours=0.3, failovers=2, profile="calm")
    r1 = run_soak(cfg).details
    r2 = run_soak(cfg).details
    assert r1.failovers == 2 and r1.epochs == 3
    assert r1.clean
    assert r1.failover_mttr_max > 0.0
    assert r1.digest == r2.digest


def test_soak_rejects_too_many_failovers_for_horizon():
    with pytest.raises(ValueError):
        run_soak(SoakConfig(hours=0.1, failovers=5, profile="calm"))
