"""Unit tests for overload policies and the credit gate."""

import numpy as np
import pytest

from repro.flow.credits import CreditGate
from repro.flow.policy import (
    BlockPolicy,
    DegradePolicy,
    FlowConfig,
    ShedPolicy,
    make_policy,
)
from repro.streaming.records import ChunkedBacklog, RecordBatch


class _Shipping:
    saturated = False


def batch(n, first=0):
    """``n`` records whose values count up from ``first``."""
    return RecordBatch(
        np.arange(n, dtype=np.float64),
        np.zeros(n, dtype=np.int64),
        np.arange(first, first + n, dtype=np.float64),
        np.full(n, 200.0),
        ("k",),
        "NEU",
    )


class FakeSite:
    """The minimal SiteRuntime surface a policy touches."""

    def __init__(self, max_backlog=10):
        self._backlog = ChunkedBacklog()
        self.credits = CreditGate(max_backlog)
        self.shipping = _Shipping()
        self.records_shed = 0
        self.blocked_ticks = 0
        self.degraded_ticks = 0
        self.degrade_transitions = 0

    def count_shed(self, n):
        self.records_shed += n

    def count_blocked_tick(self):
        self.blocked_ticks += 1

    def count_degraded_tick(self):
        self.degraded_ticks += 1

    def count_degrade(self, active):
        self.degrade_transitions += 1

    def refill(self, n):
        """Replace the backlog with ``n`` fresh records."""
        self._backlog = ChunkedBacklog()
        self._backlog.extend(batch(n))

    def backlog_values(self):
        return [v for chunk in self._backlog._chunks for v in chunk.value]


# ----------------------------------------------------------------------
# FlowConfig
# ----------------------------------------------------------------------
def test_flow_config_defaults_valid():
    cfg = FlowConfig()
    assert cfg.policy == "block"
    assert cfg.max_backlog == 50_000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "panic"},
        {"max_backlog": 0},
    ],
)
def test_flow_config_validation(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


def test_make_policy_dispatch():
    assert isinstance(make_policy(FlowConfig(policy="block")), BlockPolicy)
    assert isinstance(make_policy(FlowConfig(policy="shed")), ShedPolicy)
    assert isinstance(make_policy(FlowConfig(policy="degrade")), DegradePolicy)


# ----------------------------------------------------------------------
# CreditGate
# ----------------------------------------------------------------------
def test_credit_gate_bounded():
    gate = CreditGate(5)
    assert gate.acquire(3) == 3
    assert gate.in_use == 3 and gate.available == 2
    assert gate.acquire(4) == 2  # only the remainder is granted
    assert gate.exhausted
    assert gate.denied == 2
    assert gate.acquire(1) == 0
    gate.release(4)
    assert gate.available == 4 and not gate.exhausted


def test_credit_gate_release_clamps_at_zero():
    gate = CreditGate(5)
    gate.acquire(2)
    gate.release(10)
    assert gate.in_use == 0
    assert gate.available == 5


def test_credit_gate_unlimited():
    gate = CreditGate(None)
    assert gate.acquire(10**6) == 10**6
    assert gate.available is None
    assert not gate.exhausted
    assert gate.denied == 0


def test_credit_gate_validation():
    with pytest.raises(ValueError):
        CreditGate(0)
    gate = CreditGate(5)
    with pytest.raises(ValueError):
        gate.acquire(-1)
    with pytest.raises(ValueError):
        gate.release(-1)


# ----------------------------------------------------------------------
# BlockPolicy
# ----------------------------------------------------------------------
def test_block_admits_only_free_credits():
    site = FakeSite(max_backlog=10)
    policy = make_policy(FlowConfig(policy="block", max_backlog=10))
    assert policy.admit(site, batch(6)) == 6
    assert policy.admit(site, batch(6)) == 4  # only 4 credits left
    assert site.backlog_values() == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3]
    assert policy.admit(site, batch(1, first=99)) == 0  # full: nothing admitted
    assert site.records_shed == 0  # block never sheds


def test_block_stalls_drain_when_shipping_saturated():
    site = FakeSite()
    policy = make_policy(FlowConfig(policy="block"))
    assert policy.drain_budget(site, 100) == 100
    site.shipping.saturated = True
    assert policy.drain_budget(site, 100) == 0
    assert site.blocked_ticks == 1


# ----------------------------------------------------------------------
# ShedPolicy
# ----------------------------------------------------------------------
def test_shed_drops_oldest_and_counts():
    site = FakeSite(max_backlog=5)
    policy = make_policy(FlowConfig(policy="shed", max_backlog=5))
    assert policy.admit(site, batch(8)) == 8  # source sees full accept
    assert site.backlog_values() == [3, 4, 5, 6, 7]  # oldest trimmed
    assert site.records_shed == 3


# ----------------------------------------------------------------------
# DegradePolicy
# ----------------------------------------------------------------------
def test_degrade_hysteresis_and_budget():
    cfg = FlowConfig(policy="degrade", max_backlog=10)
    site = FakeSite()
    policy = make_policy(cfg)
    site.refill(11)  # above the bound
    assert policy.drain_budget(site, 10) == 40  # coarse mode: 4x budget
    assert policy.active
    assert site.degraded_ticks == 1
    site.refill(6)  # above resume point (5): stays coarse
    assert policy.drain_budget(site, 10) == 40
    site.refill(4)  # below resume point: back to normal
    assert policy.drain_budget(site, 10) == 10
    assert not policy.active
    assert site.degrade_transitions == 2


def test_degrade_trims_at_twice_the_bound():
    cfg = FlowConfig(policy="degrade", max_backlog=10)
    site = FakeSite()
    policy = make_policy(cfg)
    assert policy.admit(site, batch(50)) == 50
    assert len(site._backlog) == 20  # 2x bound, last resort
    assert site.records_shed == 30


def test_degrade_coarsens_flush_cadence():
    cfg = FlowConfig(policy="degrade", max_backlog=10)
    site = FakeSite()
    policy = make_policy(cfg)
    # Inactive: every tick may flush.
    assert all(policy.flush_allowed(site) for _ in range(4))
    site.refill(11)
    policy.drain_budget(site, 1)  # enters coarse mode
    allowed = [policy.flush_allowed(site) for _ in range(8)]
    assert allowed.count(True) == 2  # every 4th tick only
