"""Circuit-breaker state machine and fault-bus cooperation."""

import numpy as np
import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.faults import FaultInjector, FaultPlan
from repro.flow.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.gen.adversity import regional_outage


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=5, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 1, "NUS": 1})
    eng.start(learning_phase=10.0)
    return eng


def make_breaker(engine, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout", 30.0)
    return CircuitBreaker(engine, link=("NEU", "NUS"), **kwargs)


def advance(engine, seconds):
    engine.run_until(engine.sim.now + seconds)


def test_breaker_validation(engine):
    with pytest.raises(ValueError):
        CircuitBreaker(engine, failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(engine, reset_timeout=0.0)


def test_breaker_opens_after_threshold(engine):
    b = make_breaker(engine)
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED and b.allow()
    b.record_failure()
    assert b.state == OPEN
    assert b.opens == 1
    assert not b.allow()


def test_success_resets_the_failure_count(engine):
    b = make_breaker(engine)
    b.record_failure()
    b.record_failure()
    b.record_success()
    b.record_failure()
    b.record_failure()
    assert b.state == CLOSED  # never reached 3 consecutive


def test_half_open_probe_success_closes(engine):
    b = make_breaker(engine)
    b.trip()
    assert b.state == OPEN
    assert b.probe_delay() == pytest.approx(30.0)
    advance(engine, 31.0)
    assert b.allow()  # the first call past the timeout is the probe
    assert b.state == HALF_OPEN
    assert not b.allow()  # everyone else keeps waiting on the probe
    b.record_success()
    assert b.state == CLOSED
    assert b.closes == 1
    assert b.allow()


def test_half_open_probe_failure_reopens(engine):
    b = make_breaker(engine)
    b.trip()
    advance(engine, 31.0)
    assert b.allow()
    b.record_failure()
    assert b.state == OPEN
    assert b.opens == 2
    assert b.probe_delay() == pytest.approx(30.0)  # a full fresh timeout


def test_probe_delay_zero_outside_open(engine):
    b = make_breaker(engine)
    assert b.probe_delay() == 0.0


# ----------------------------------------------------------------------
# Fault-bus cooperation
# ----------------------------------------------------------------------
def test_link_down_event_trips_immediately(engine):
    b = make_breaker(engine)
    engine.emit_fault("link.down", "NEU->NUS")
    assert b.state == OPEN  # no need to burn timeouts on a known-dead link


def test_unrelated_link_event_ignored(engine):
    b = make_breaker(engine)
    engine.emit_fault("link.down", "WEU->NUS")
    engine.emit_fault("link.down", "NUS->NEU")  # wrong direction
    assert b.state == CLOSED


def test_link_up_arms_immediate_probe(engine):
    b = make_breaker(engine)
    engine.emit_fault("link.down", "NEU->NUS")
    advance(engine, 5.0)  # well before the 30 s reset timeout
    engine.emit_fault("link.up", "NEU->NUS")
    assert b.probe_delay() == 0.0
    assert b.allow()  # probe admitted right away
    assert b.state == HALF_OPEN


def _region_cut(engine, region, peers):
    # A partition is a link.down on every directed link across the cut.
    plan = regional_outage(
        FaultPlan(), np.random.default_rng(0), 1.0, region, [], peers,
        outage_s=5.0, jitter_s=0.0,
    )
    FaultInjector(engine, plan).arm()


def test_region_cut_trips_and_heals(engine):
    b = make_breaker(engine)
    _region_cut(engine, "NUS", ["NEU"])
    advance(engine, 2.0)
    assert b.state == OPEN
    advance(engine, 5.0)  # the cut's link.up, well before the reset timeout
    assert b.probe_delay() == 0.0


def test_region_cut_elsewhere_is_ignored(engine):
    b = make_breaker(engine)
    _region_cut(engine, "WEU", ["NUS"])
    advance(engine, 2.0)
    assert b.state == CLOSED
