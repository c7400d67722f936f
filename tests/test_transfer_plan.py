"""Unit tests for transfer plans and route assignments."""

import pytest

from repro.cloud.vm import VM, VM_SIZES
from repro.transfer.plan import RouteAssignment, TransferPlan


def vm(vm_id, region):
    return VM(vm_id, region, VM_SIZES["Small"])


@pytest.fixture
def vms():
    return {
        "s": vm("s", "NEU"),
        "h1": vm("h1", "NEU"),
        "h2": vm("h2", "NEU"),
        "r": vm("r", "EUS"),
        "d": vm("d", "NUS"),
        "d2": vm("d2", "NUS"),
    }


def test_route_validation(vms):
    with pytest.raises(ValueError):
        RouteAssignment([vms["s"]])
    with pytest.raises(ValueError):
        RouteAssignment([vms["s"], vms["d"]], weight=0.0)
    with pytest.raises(ValueError):
        RouteAssignment([vms["s"], vms["d"]], streams=0)
    with pytest.raises(ValueError):
        RouteAssignment([vms["s"], vms["d"]], intrusiveness=1.5)


def test_route_wan_hops_and_describe(vms):
    r = RouteAssignment([vms["s"], vms["r"], vms["d"]])
    assert r.wan_hop_count() == 2
    assert r.describe() == "NEU->EUS->NUS"
    helper = RouteAssignment([vms["s"], vms["h1"], vms["d"]])
    assert helper.wan_hop_count() == 1


def test_plan_requires_consistent_endpoints(vms):
    with pytest.raises(ValueError, match="same region"):
        TransferPlan(
            [
                RouteAssignment([vms["s"], vms["d"]]),
                RouteAssignment([vms["s"], vms["r"]]),
            ]
        )
    with pytest.raises(ValueError):
        TransferPlan([])


def test_plan_shares_proportional_to_weight(vms):
    plan = TransferPlan(
        [
            RouteAssignment([vms["s"], vms["d"]], weight=3.0),
            RouteAssignment([vms["s"], vms["h1"], vms["d"]], weight=1.0),
        ]
    )
    shares = plan.shares(100.0)
    assert shares == [pytest.approx(75.0), pytest.approx(25.0)]
    assert sum(shares) == pytest.approx(100.0)


def test_plan_vm_count_distinct(vms):
    plan = TransferPlan(
        [
            RouteAssignment([vms["s"], vms["d"]]),
            RouteAssignment([vms["s"], vms["h1"], vms["d"]]),
        ]
    )
    assert plan.vm_count() == 3  # s, d, h1


def test_direct_factory(vms):
    plan = TransferPlan.direct(vms["s"], vms["d"], streams=2)
    assert len(plan.routes) == 1
    assert plan.routes[0].streams == 2

