"""Continuous SLO / invariant auditor."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.config import ChaosConfig, OverloadConfig
from repro.core.engine import SageEngine
from repro.obs import AuditReport, Observer, SLOAuditor, Violation
from repro.obs.audit import AUDIT_KINDS
from repro.scenarios import run_chaos, run_overload
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime, WindowResult
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window


# ----------------------------------------------------------------------
# Stub runtime: drives each check in isolation
# ----------------------------------------------------------------------
class _StubSite:
    def __init__(self, watermark=0.0):
        self.watermark = watermark
        self.records_shed = 0


class _StubRuntime:
    def __init__(self):
        self.sites = {"NEU": _StubSite()}
        self.results = []
        self._ingested = 0

    def records_ingested(self):
        return self._ingested

    def records_in_results(self):
        return sum(r.record_count for r in self.results)

    def loss_terms(self):
        return {
            "shed": sum(s.records_shed for s in self.sites.values()),
            "late_dropped": 0,
            "late_partial_records": 0,
            "abandoned_records": 0,
            "admission_rejected": 0,
        }


def result(start=0.0, end=10.0, key="k", emitted_at=15.0, count=3):
    return WindowResult(
        window=Window(start, end),
        key=key,
        value=count,
        record_count=count,
        sites=1,
        emitted_at=emitted_at,
    )


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=71, variability_sigma=0.0, glitches=False)
    eng = SageEngine(
        env, deployment_spec={"NEU": 2, "NUS": 2}, observer=Observer()
    )
    eng.start(learning_phase=30.0)
    return eng


def test_validates_check_interval(engine):
    with pytest.raises(ValueError, match="check_interval"):
        SLOAuditor(engine, _StubRuntime(), check_interval=0.0)


def test_clean_stub_run_zero_violations(engine):
    runtime = _StubRuntime()
    runtime._ingested = 3
    runtime.results.append(result())
    auditor = SLOAuditor(engine, runtime, max_latency_s=60.0)
    auditor.check_now()
    report = auditor.finish()
    assert report.clean
    assert report.checks == 2  # explicit check + finish sweep
    assert report.violations == []
    assert report.to_dict()["counts_by_kind"] == {}


def test_watermark_regression_flagged_once(engine):
    runtime = _StubRuntime()
    auditor = SLOAuditor(engine, runtime)
    runtime.sites["NEU"].watermark = 50.0
    auditor.check_now()
    runtime.sites["NEU"].watermark = 40.0  # moved backwards
    auditor.check_now()
    auditor.check_now()  # stable at the lower value: no second flag
    report = auditor.finish(quiescent=False)
    assert [v.kind for v in report.violations] == ["watermark_regression"]
    violation = report.violations[0]
    assert violation.target == "NEU"
    assert violation.value == 40.0 and violation.limit == 50.0


def test_duplicate_window_flagged_once(engine):
    runtime = _StubRuntime()
    runtime.results = [result(), result()]  # same (window, key) twice
    auditor = SLOAuditor(engine, runtime)
    auditor.check_now()
    auditor.check_now()  # results re-scanned: still one violation
    report = auditor.finish(quiescent=False)
    assert [v.kind for v in report.violations] == ["duplicate_window"]
    assert "emitted 2 times" in report.violations[0].detail


def test_latency_slo_breach(engine):
    runtime = _StubRuntime()
    runtime.results = [
        result(emitted_at=12.0),  # 2 s latency: fine
        result(start=10.0, end=20.0, emitted_at=95.0),  # 75 s: breach
    ]
    auditor = SLOAuditor(engine, runtime, max_latency_s=30.0)
    auditor.check_now()
    auditor.check_now()  # latency checked once per window identity
    report = auditor.finish(quiescent=False)
    assert [v.kind for v in report.violations] == ["latency_slo"]
    assert report.violations[0].value == 75.0
    assert report.violations[0].limit == 30.0


def test_loss_identity_violation_on_unexplained_loss(engine):
    runtime = _StubRuntime()
    runtime._ingested = 100
    runtime.results.append(result(count=50))
    runtime.sites["NEU"].records_shed = 10  # explains 10 of 50 lost
    auditor = SLOAuditor(engine, runtime)
    report = auditor.finish(quiescent=True)
    kinds = [v.kind for v in report.violations]
    assert kinds == ["loss_identity"]
    assert report.violations[0].detail == (
        "lost 50 != explained 10 (shed 10 + late_dropped 0 + late_partial 0"
        " + abandoned 0 + admission_rejected 0)"
    )
    # The identity holds once the loss is fully accounted.
    runtime.sites["NEU"].records_shed = 50
    assert SLOAuditor(engine, runtime).finish(quiescent=True).clean


def test_loss_identity_skipped_when_not_quiescent(engine):
    runtime = _StubRuntime()
    runtime._ingested = 100  # nothing emitted yet: all in flight
    report = SLOAuditor(engine, runtime).finish(quiescent=False)
    assert report.clean


def test_cost_slo_breach(engine):
    runtime = _StubRuntime()
    runtime._ingested = 1000
    runtime.results.append(result(count=1000))  # loss identity holds
    engine.env.meter.charge_egress(50e9, context="NEU->NUS")
    auditor = SLOAuditor(engine, runtime, max_usd_per_1k=1e-6)
    report = auditor.finish(quiescent=True)
    assert [v.kind for v in report.violations] == ["cost_slo"]
    assert report.violations[0].value > 1e-6


def test_violations_reach_counter_and_flight_ring(engine):
    runtime = _StubRuntime()
    runtime.results = [result(), result()]
    auditor = SLOAuditor(engine, runtime)
    auditor.check_now()
    obs = engine.observer
    counter = obs.counter("audit_violations_total", kind="duplicate_window")
    assert counter.value == 1
    # emit_fault routes audit events into the event log's ring.
    events = [
        e for e in obs.log.ring if e.get("fault", "").startswith("audit.")
    ]
    assert events
    assert events[0]["fault"] == "audit.duplicate_window"


def test_periodic_checks_ride_virtual_time(engine):
    runtime = _StubRuntime()
    auditor = SLOAuditor(engine, runtime, check_interval=5.0).start()
    engine.run_until(engine.sim.now + 26.0)
    assert auditor.checks >= 5
    report = auditor.finish()
    checks_at_finish = report.checks
    engine.run_until(engine.sim.now + 20.0)  # stopped: no more ticks
    assert auditor.checks == checks_at_finish


def test_report_shapes():
    report = AuditReport(
        checks=3,
        violations=[
            Violation(1.0, "latency_slo", "k@0", 9.0, 5.0, "late"),
            Violation(2.0, "latency_slo", "k@10", 8.0, 5.0, "late"),
        ],
    )
    assert not report.clean
    assert report.counts_by_kind() == {"latency_slo": 2}
    payload = report.to_dict()
    assert payload["violation_count"] == 2
    assert payload["violations"][0]["kind"] == "latency_slo"
    assert all(kind in AUDIT_KINDS for kind in payload["counts_by_kind"])


# ----------------------------------------------------------------------
# Against the real runtime
# ----------------------------------------------------------------------
def _streaming_runtime(seed=13):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    engine.start(learning_phase=60.0)
    job = StreamJob(
        name="audit",
        sites=[SiteSpec("NEU", [PoissonSource("p", rate=100.0, keys=["k"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    return engine, runtime


def _drain(engine, runtime):
    """Quiet sources, let open windows close, stop, let grace pass —
    the loss identity only holds once the pipe is empty."""
    for site in runtime.sites.values():
        site.stop_sources()
    engine.run_until(engine.sim.now + runtime.job.watermark_lag + 15.0)
    runtime.stop()
    engine.run_until(engine.sim.now + runtime.job.finalize_grace + 30.0)


def test_clean_streaming_run_passes_audit():
    engine, runtime = _streaming_runtime()
    auditor = SLOAuditor(engine, runtime, max_latency_s=120.0).start()
    runtime.start()
    engine.run_until(engine.sim.now + 80.0)
    _drain(engine, runtime)
    report = auditor.finish()
    assert report.checks > 10
    assert report.clean, report.to_dict()


def test_injected_watermark_regression_is_caught():
    engine, runtime = _streaming_runtime(seed=17)
    auditor = SLOAuditor(engine, runtime, check_interval=2.0).start()
    site = runtime.sites["NEU"]

    def corrupt():
        site._watermark -= 30.0  # simulate a clock / restore bug

    engine.sim.schedule(40.0, corrupt)
    runtime.run_for(80.0)
    report = auditor.finish(quiescent=False)
    kinds = {v.kind for v in report.violations}
    assert "watermark_regression" in kinds


def test_injected_latency_breach_is_caught():
    engine, runtime = _streaming_runtime(seed=19)
    # No real deployment can emit within a millisecond of window close.
    auditor = SLOAuditor(engine, runtime, max_latency_s=0.001).start()
    runtime.start()
    engine.run_until(engine.sim.now + 60.0)
    _drain(engine, runtime)
    report = auditor.finish()
    assert any(v.kind == "latency_slo" for v in report.violations)


# ----------------------------------------------------------------------
# Scenario integration: strict_slo gates report.clean
# ----------------------------------------------------------------------
def test_chaos_report_carries_audit_and_cost():
    report = run_chaos(ChaosConfig(seed=5, duration=120.0, strict_slo=True))
    assert report.clean
    assert report.slo_violations == 0
    assert report.audit["checks"] > 0
    assert report.audit["clean"] is True
    assert report.cost["total_usd"] > 0
    assert "auditor:" in report.describe()
    assert "(strict)" in report.describe()


def test_strict_slo_fails_scenario_on_breach():
    cfg = ChaosConfig(seed=5, duration=120.0, strict_slo=True,
                      slo_max_latency_s=0.001)
    report = run_chaos(cfg)
    assert report.slo_violations > 0
    assert not report.clean
    # The same breach without strict_slo is reported but not fatal.
    lax = run_chaos(ChaosConfig(seed=5, duration=120.0,
                                slo_max_latency_s=0.001))
    assert lax.slo_violations > 0
    assert lax.clean


def test_overload_report_carries_audit():
    report = run_overload(
        OverloadConfig(policy="shed", seed=5, duration=120.0, strict_slo=True)
    )
    assert report.clean
    assert report.slo_violations == 0
    assert report.audit["checks"] > 0


def test_slo_config_validation():
    with pytest.raises(ValueError, match="slo_max_latency_s"):
        ChaosConfig(slo_max_latency_s=-1.0)
    with pytest.raises(ValueError, match="slo_max_usd_per_1k"):
        OverloadConfig(slo_max_usd_per_1k=0.0)


# ----------------------------------------------------------------------
# Continuous loss bound + incremental scanning (the soak additions)
# ----------------------------------------------------------------------
def test_continuous_loss_bound_clean_mid_run(engine):
    """Records still in flight break the *identity* but not the *bound*:
    counted + explained <= ingested must hold at every tick."""
    runtime = _StubRuntime()
    runtime._ingested = 10
    runtime.results.append(result(count=3))  # 7 in flight, nothing wrong
    auditor = SLOAuditor(engine, runtime, continuous_loss=True)
    auditor.check_now()
    report = auditor.finish(quiescent=False)
    assert report.clean


def test_continuous_loss_bound_catches_overcounting(engine):
    runtime = _StubRuntime()
    runtime._ingested = 2
    runtime.results.append(result(count=3))  # counted 3 > ingested 2
    auditor = SLOAuditor(engine, runtime, continuous_loss=True)
    auditor.check_now()
    report = auditor.finish(quiescent=False)
    assert not report.clean
    kinds = [v.kind for v in report.violations]
    assert "loss_identity" in kinds
    assert "mid-run" in report.violations[0].detail


def test_without_continuous_loss_bound_is_not_checked(engine):
    runtime = _StubRuntime()
    runtime._ingested = 2
    runtime.results.append(result(count=3))
    auditor = SLOAuditor(engine, runtime)
    auditor.check_now()
    report = auditor.finish(quiescent=False)
    assert report.clean  # the bound is a soak opt-in


def test_incremental_scan_persists_across_ticks(engine):
    """The cursor advances per tick; duplicate (window, key) pairs are
    still caught even when the two emissions land in different ticks."""
    runtime = _StubRuntime()
    runtime._ingested = 6
    runtime.results.append(result(key="k"))
    auditor = SLOAuditor(engine, runtime)
    auditor.check_now()
    assert not auditor.violations
    runtime.results.append(result(key="k"))  # same slot, later tick
    auditor.check_now()
    assert [v.kind for v in auditor.violations] == ["duplicate_window"]
    report = auditor.finish(quiescent=False)
    # The final sweep does not re-scan: still exactly one violation.
    assert len(report.violations) == 1
