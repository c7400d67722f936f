"""Edge cases across modules that the main suites do not reach."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.cloud.vm import VM, VM_SIZES
from repro.monitor.linkmap import LinkPerformanceMap
from repro.monitor.estimators import make_estimator
from repro.simulation.units import MB
from repro.transfer.plan import RouteAssignment, TransferPlan
from repro.transfer.service import TransferService


def vm(vm_id, region):
    return VM(vm_id, region, VM_SIZES["Small"])


# ----------------------------------------------------------------------
# Link map
# ----------------------------------------------------------------------
def test_linkmap_unknown_link_estimate():
    lm = LinkPerformanceMap()
    est = lm.estimate("A", "B")
    assert not est.known
    assert lm.throughput("A", "B") != lm.throughput("A", "B")  # NaN
    assert lm.throughput("A", "B", default=5.0) == 5.0
    with pytest.raises(KeyError, match="not monitored"):
        lm.observe("A", "B", 0.0, 1.0)


def test_linkmap_default_applies_when_unknown():
    lm = LinkPerformanceMap()
    lm.register("A", "B", make_estimator("WSI"))
    assert lm.throughput("A", "B", default=7.0) == 7.0  # registered, no data
    lm.observe("A", "B", 0.0, 3.0)
    assert lm.throughput("A", "B", default=7.0) == 3.0


def test_linkmap_matrix_marks_unknown():
    lm = LinkPerformanceMap()
    lm.register("A", "B", make_estimator("WSI"))
    lm.register("B", "A", make_estimator("WSI"))
    lm.observe("A", "B", 0.0, 2 * MB)
    rows = lm.matrix_rows()
    flat = " ".join(" ".join(r) for r in rows)
    assert "?" in flat  # B->A never sampled
    assert "2.0" in flat


@pytest.mark.parametrize("strategy", ["Monitor", "LSI", "EWMA", "WSI"])
def test_linkmap_means_is_the_known_estimate_filter(strategy):
    nan = float("nan")
    feeds = {  # registered out of order; one link per case
        ("C", "B"): [4.0],
        ("A", "B"): [5.0, 7.0, 6.0],
        ("B", "A"): [],  # unsampled
        ("A", "C"): [nan],  # sampled, NaN mean
        ("C", "A"): [3.0, nan],  # NaN after a real sample
        ("B", "C"): [0.0],  # zero is known; the solvers drop it
    }
    lm = LinkPerformanceMap()
    for (src, dst), samples in feeds.items():
        lm.register(src, dst, make_estimator(strategy))
        for t, value in enumerate(samples):
            lm.observe(src, dst, float(t), value)
    old = {
        pair: lm.estimate(*pair).mean
        for pair in lm.pairs()
        if lm.estimate(*pair).known
    }
    means = lm.means()
    assert means == old
    assert list(means) == sorted(old)
    assert set(means) == {("A", "B"), ("B", "C"), ("C", "B")}


# ----------------------------------------------------------------------
# Flow bookkeeping
# ----------------------------------------------------------------------
def test_flow_stats_before_start():
    f = Flow([vm("a", "NEU"), vm("b", "NUS")], 10 * MB)
    assert f.elapsed(100.0) == 0.0
    assert f.mean_throughput(100.0) == 0.0
    assert not f.done
    assert f.remaining == 10 * MB


def test_flow_wan_hops_for_helper_route():
    route = [vm("a", "NEU"), vm("h", "NEU"), vm("b", "NUS")]
    f = Flow(route, 1.0)
    assert f.wan_hops() == [("NEU", "NUS")]
    assert len(f.hops()) == 2


# ----------------------------------------------------------------------
# Transfer service conveniences
# ----------------------------------------------------------------------
def test_service_direct_and_uncharged():
    env = CloudEnvironment(seed=9, variability_sigma=0.0, glitches=False)
    src = env.provision("NEU", "Small")[0]
    dst = env.provision("NUS", "Small")[0]
    service = TransferService(env)
    before = env.meter.snapshot()
    done = []
    service.execute(
        TransferPlan.direct(src, dst, streams=4),
        20 * MB,
        on_complete=lambda s: done.append(s),
        charge=False,
    )
    env.sim.run_until(10_000)
    assert done
    spent = env.meter.snapshot() - before
    assert spent.egress_usd == 0.0  # uncharged experiment traffic

    service.direct(src, dst, 20 * MB, streams=4)
    env.sim.run_until(env.now + 10_000)
    assert env.meter.egress_usd > 0  # the charged path bills


# ----------------------------------------------------------------------
# Plan share properties
# ----------------------------------------------------------------------
@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=8),
    st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=80, deadline=None)
def test_property_plan_shares_partition_and_proportional(weights, total):
    src = vm("src", "NEU")
    dst = vm("dst", "NUS")
    routes = [
        RouteAssignment([vm(f"h{i}", "NEU"), dst] if i else [src, dst],
                        weight=w)
        for i, w in enumerate(weights)
    ]
    plan = TransferPlan(routes)
    shares = plan.shares(total)
    assert sum(shares) == pytest.approx(total, rel=1e-9)
    assert all(s >= 0 for s in shares)
    wsum = sum(weights)
    for share, w in zip(shares, weights):
        assert share == pytest.approx(total * w / wsum, rel=1e-9)


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
def test_capacity_scale_knob():
    lo = CloudEnvironment(seed=1, capacity_scale=0.5,
                          variability_sigma=0.0, glitches=False)
    hi = CloudEnvironment(seed=1, capacity_scale=2.0,
                          variability_sigma=0.0, glitches=False)
    assert hi.topology.link("NEU", "NUS").base_capacity == pytest.approx(
        4 * lo.topology.link("NEU", "NUS").base_capacity
    )


def test_billed_vm_time_mode():
    env = CloudEnvironment(seed=2, billed_vm_time=True,
                           variability_sigma=0.0, glitches=False)
    vm_ = env.provision("NEU", "Small")[0]
    env.sim.run_until(60.0)  # one minute of lease
    usd = env.release(vm_)
    assert usd == pytest.approx(0.06)  # rounded up to the billing hour
