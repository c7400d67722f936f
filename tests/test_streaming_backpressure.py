"""End-to-end backpressure, shedding, and shipping flow control."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.flow.breaker import CLOSED, OPEN, CircuitBreaker
from repro.flow.policy import FlowConfig
from repro.obs import Observer
from repro.simulation.engine import PeriodicGroup
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import ReliableShipping, SageShipping
from repro.streaming.sources import BurstSource, PoissonSource
from repro.streaming.windows import TumblingWindows


def make_engine(seed=23, observer=None):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 2, "NUS": 2}, observer=observer
    )
    engine.start(learning_phase=60.0)
    return engine


def make_job(source, flow=None, **kwargs):
    kwargs.setdefault("watermark_lag", 5.0)
    kwargs.setdefault("finalize_grace", 15.0)
    return StreamJob(
        name="bp",
        sites=[SiteSpec("NEU", [source])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        flow=flow,
        **kwargs,
    )


def drain(engine, runtime):
    """Quiet the sources, let backlogs clear, stop, and let grace pass."""
    for site in runtime.sites.values():
        site.stop_sources()
    engine.run_until(engine.sim.now + runtime.job.watermark_lag + 15.0)
    runtime.stop()
    engine.run_until(engine.sim.now + runtime.job.finalize_grace + 30.0)


def total_lost(runtime):
    return runtime.records_ingested() - runtime.records_in_results()


def accounted_loss(runtime):
    return (
        runtime.records_shed()
        + sum(s.aggregator.late_dropped for s in runtime.sites.values())
        + runtime.aggregator.late_partial_records
        + sum(
            getattr(s.shipping, "records_abandoned", 0)
            for s in runtime.sites.values()
        )
    )


# ----------------------------------------------------------------------
# End-to-end overload policies
# ----------------------------------------------------------------------
def test_block_bounds_backlog_and_loses_nothing():
    engine = make_engine()
    source = BurstSource(
        "burst", base_rate=50.0, burst_rate=400.0,
        burst_start=5.0, burst_end=15.0, keys=["k1", "k2"],
    )
    flow = FlowConfig(policy="block", max_backlog=400)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=75.0,  # capacity 150/s vs a 400/s burst
    )
    runtime.start()
    engine.run_until(engine.sim.now + 60.0)
    drain(engine, runtime)

    site = runtime.sites["NEU"]
    assert site.max_backlog <= flow.max_backlog  # the hard bound held
    assert source.max_deferred > 0  # overload became source deferral...
    assert source.pending_count == 0  # ...and fully drained afterwards
    assert site.records_shed == 0
    assert total_lost(runtime) == 0  # every admitted record counted


def test_block_source_sees_partial_accepts():
    engine = make_engine()
    source = PoissonSource("p", rate=500.0, keys=["k"])
    flow = FlowConfig(policy="block", max_backlog=300)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=50.0,
    )
    runtime.start()
    engine.run_until(engine.sim.now + 20.0)
    site = runtime.sites["NEU"]
    # Admission is credit-gated: the buffer never exceeds the bound and
    # the source is left holding the excess.
    assert site.backlog <= flow.max_backlog
    assert source.pending_count > 0
    assert site.records_ingested < 500.0 * 20.0
    runtime.stop()


def test_shed_bounds_backlog_with_counted_loss():
    engine = make_engine()
    source = PoissonSource("p", rate=400.0, keys=["k1", "k2"])
    flow = FlowConfig(policy="shed", max_backlog=300)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=75.0,
    )
    runtime.start()
    engine.run_until(engine.sim.now + 45.0)
    drain(engine, runtime)

    site = runtime.sites["NEU"]
    assert site.max_backlog <= flow.max_backlog
    assert site.records_shed > 0  # sustained overload had to drop
    assert source.pending_count == 0  # shed never defers the source
    lost = total_lost(runtime)
    assert lost > 0
    assert lost == accounted_loss(runtime)  # every loss is explained


def test_degrade_bounds_memory_at_twice_and_counts_coarse_ticks():
    engine = make_engine()
    source = BurstSource(
        "burst", base_rate=50.0, burst_rate=500.0,
        burst_start=5.0, burst_end=20.0, keys=["k1", "k2"],
    )
    flow = FlowConfig(policy="degrade", max_backlog=300)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=75.0,
    )
    runtime.start()
    engine.run_until(engine.sim.now + 60.0)
    drain(engine, runtime)

    site = runtime.sites["NEU"]
    assert site.max_backlog <= 2 * flow.max_backlog
    assert site.degraded_ticks > 0
    assert site.degrade_transitions >= 2  # entered and left coarse mode
    assert total_lost(runtime) == accounted_loss(runtime)


# ----------------------------------------------------------------------
# ReliableShipping flow control
# ----------------------------------------------------------------------
class ManualInner:
    """Inner backend whose deliveries complete only on request."""

    def __init__(self):
        self.shipped = []
        self.bytes_shipped = 0.0
        self.batches_shipped = 0

    def ship(self, batch, on_delivered):
        self.shipped.append((batch, on_delivered))
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1

    def deliver_next(self):
        batch, cb = self.shipped.pop(0)
        cb(batch)


@pytest.fixture
def engine():
    return make_engine(seed=31)


def batch(seq, origin="NEU", n_records=2):
    records = [
        Record(0.0, "k", 1.0, origin=origin, size_bytes=100.0)
        for _ in range(n_records)
    ]
    return Batch(records, origin, created_at=0.0, seq=seq)


def test_inflight_window_parks_excess(engine):
    inner = ManualInner()
    shipping = ReliableShipping(
        engine, inner, delivery_timeout=60.0, max_inflight=2
    )
    got = []
    for seq in range(4):
        shipping.ship(batch(seq), got.append)
    assert len(inner.shipped) == 2  # window full
    assert shipping.inflight == 2 and shipping.parked == 2
    assert shipping.saturated
    inner.deliver_next()
    assert len(got) == 1
    assert len(inner.shipped) == 2  # a parked batch took the freed slot
    assert shipping.parked == 1
    inner.deliver_next()
    inner.deliver_next()
    inner.deliver_next()
    assert len(got) == 4
    assert not shipping.saturated and shipping.inflight == 0


def test_max_pending_sheds_oldest_parked(engine):
    inner = ManualInner()
    shipping = ReliableShipping(
        engine, inner, delivery_timeout=60.0, max_inflight=1, max_pending=2
    )
    got = []
    for seq in range(5):
        shipping.ship(batch(seq), got.append)
    # Seq 0 in flight; 1..4 parked with a bound of 2: 1 and 2 were shed.
    assert shipping.parked == 2
    assert shipping.batches_shed == 2
    assert shipping.records_shed == 4  # two records per batch
    for _ in range(3):
        inner.deliver_next()
    assert [b.seq for b in got] == [0, 3, 4]


def test_open_breaker_parks_instead_of_queueing(engine):
    breaker = CircuitBreaker(
        engine, link=("NEU", "NUS"), failure_threshold=1, reset_timeout=5.0
    )
    inner = ManualInner()
    shipping = ReliableShipping(
        engine, inner, delivery_timeout=60.0, breaker=breaker
    )
    engine.emit_fault("link.down", "NEU->NUS")  # detector trips the breaker
    assert breaker.state == OPEN
    got = []
    shipping.ship(batch(1), got.append)
    assert inner.shipped == []  # nothing queued into the dead link
    assert shipping.parked == 1
    # After the reset timeout the scheduled probe pumps the queue.
    engine.run_until(engine.sim.now + 6.0)
    assert len(inner.shipped) == 1  # the half-open probe
    inner.deliver_next()
    assert got and breaker.state == CLOSED


def test_ship_is_idempotent_while_pending(engine):
    inner = ManualInner()
    shipping = ReliableShipping(engine, inner, delivery_timeout=60.0)
    got = []
    shipping.ship(batch(7), got.append)
    shipping.ship(batch(7), got.append)  # replay overlap
    assert len(inner.shipped) == 1  # one delivery covers both
    assert len(shipping._inflight) == 1
    inner.deliver_next()
    assert len(got) == 1
    # Once finished, a new ship for the same seq is a fresh delivery
    # (recovery replay after the original completed): dedup is the
    # receiver's job, not the transport's.
    shipping.ship(batch(7), got.append)
    assert len(inner.shipped) == 1 and shipping.acked == 1


@pytest.mark.parametrize(
    "policy, max_pending",
    [(None, None), ("block", None), ("shed", 64), ("degrade", 64)],
)
def test_factory_derives_each_links_flow_control(engine, policy, max_pending):
    flow = None if policy is None else FlowConfig(policy=policy)
    build = ReliableShipping.factory(
        lambda *_: ManualInner(), flow=flow, delivery_timeout=9.0
    )
    deployment = engine.deployment
    link = build(engine, deployment.vms("NEU"), deployment.vms("NUS")[0])
    assert link.delivery_timeout == 9.0
    assert link.max_pending == max_pending
    if flow is None:
        assert link.max_inflight is None and link.breaker is None
    else:
        assert link.max_inflight == 8
        assert link.breaker.link == ("NEU", "NUS")
        assert link.breaker.failure_threshold == 3
        assert link.breaker.reset_timeout == 20.0


# ----------------------------------------------------------------------
# Restart semantics and observability surfacing
# ----------------------------------------------------------------------
def test_restart_resets_peak_backlog_and_resumes_sources():
    obs = Observer()
    engine = make_engine(seed=47, observer=obs)
    source = PoissonSource("p", rate=300.0, keys=["k"])
    flow = FlowConfig(policy="shed", max_backlog=200)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=50.0,
    )
    runtime.start()
    engine.run_until(engine.sim.now + 20.0)
    site = runtime.sites["NEU"]
    peak_before = site.max_backlog
    assert peak_before > 0
    # The peak is surfaced through repro.obs while the site runs.
    gauge = obs.gauge("stream_backlog_peak", site="NEU")
    assert gauge.value == peak_before

    site.stop()
    assert not source.running
    site.restart()
    # The high-water mark restarts from the *current* depth, and the
    # exported gauge follows, so post-restart monitoring is not stuck
    # on the pre-crash peak.
    assert site.max_backlog == site.backlog < peak_before
    assert gauge.value == site.max_backlog
    assert source.running  # stopped sources were resumed
    site.restart()  # idempotent on a live site
    site.stop()


@pytest.mark.parametrize("halt", ["stop", "stop_sources"])
def test_restarted_site_keeps_one_event_per_tick_and_source_first_order(halt):
    # restart() goes through the registration start() uses: the sources
    # and the drain share the site's one periodic queue event, sources
    # ahead of the drain — whether the whole site stopped or only its
    # sources did (the drain then re-registers behind them).
    engine = make_engine(seed=59)
    sources = [PoissonSource(f"p{i}", rate=200.0, keys=["k"]) for i in range(3)]
    job = make_job(sources[0])
    job.sites[0].sources.extend(sources[1:])
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    site = runtime.sites["NEU"]
    runtime.start()
    engine.run_until(engine.sim.now + 5.0)
    getattr(site, halt)()
    assert not any(source.running for source in sources)
    site.restart()
    assert all(source.running for source in sources)

    site_events = []  # queue events that run any of this site's callbacks

    pop = engine.sim.queue.pop

    def traced_pop():
        event = pop()
        task = getattr(getattr(event, "callback", None), "__self__", None)
        owner = getattr(getattr(task, "callback", None), "__self__", None)
        # The only PeriodicGroup in this engine is the one site's.
        if isinstance(owner, PeriodicGroup) or owner in (site, *sources):
            site_events.append(event.time)
        return event

    engine.sim.queue.pop = traced_pop  # each event the kernel dispatches
    emitted = sum(source.records_emitted for source in sources)
    for tick in range(1, 11):
        engine.run_until(engine.sim.now + 1.0)
        assert len(site_events) == tick  # one dispatch, not one per source
        # Sources fired before the drain: what they emitted this tick was
        # drained this tick (capacity is ample), so nothing waits.
        assert site.backlog == 0
    assert sum(source.records_emitted for source in sources) > emitted + 3000
    runtime.stop()


def test_streaming_report_shows_flow_state():
    from repro.analysis.introspection import streaming_report

    engine = make_engine(seed=53)
    source = PoissonSource("p", rate=300.0, keys=["k"])
    flow = FlowConfig(policy="shed", max_backlog=200)
    runtime = GeoStreamRuntime(
        engine,
        make_job(source, flow=flow),
        SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=50.0,
    )
    runtime.enable_checkpointing(interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + 20.0)
    runtime.stop()
    report = streaming_report(runtime)
    assert "policy=shed" in report and "bound=200" in report
    assert "NEU" in report
    site = runtime.sites["NEU"]
    assert str(site.max_backlog) in report
    assert "checkpoints:" in report


# ----------------------------------------------------------------------
# Crash/restart exactly-once
# ----------------------------------------------------------------------
def test_aggregator_crash_restart_is_exactly_once():
    engine = make_engine(seed=61)
    source = PoissonSource("p", rate=40.0, keys=["k1", "k2"])
    runtime = GeoStreamRuntime(
        engine, make_job(source), SageShipping.factory(n_nodes=2)
    )
    runtime.enable_checkpointing(interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + 30.0)
    runtime.crash_aggregator()
    assert not runtime.aggregator_up
    engine.run_until(engine.sim.now + 10.0)
    dropped = runtime.batches_dropped_while_down
    retained = sum(s.retained_batches for s in runtime.sites.values())
    assert retained > 0  # the replay set survived the crash
    runtime.restart_aggregator()
    assert runtime.aggregator_up
    engine.run_until(engine.sim.now + 30.0)
    drain(engine, runtime)

    assert runtime.aggregator_crashes == 1
    assert dropped > 0  # deliveries landed on the dead process...
    assert total_lost(runtime) == 0  # ...and replay recovered them all
    results = runtime.results
    # Exactly once: no (window, key) emitted twice across the crash.
    assert len({(r.window, r.key) for r in results}) == len(results)


def test_crash_without_restart_keeps_committed_results():
    engine = make_engine(seed=67)
    source = PoissonSource("p", rate=40.0, keys=["k"])
    runtime = GeoStreamRuntime(
        engine, make_job(source), SageShipping.factory(n_nodes=2)
    )
    runtime.enable_checkpointing(interval=5.0)
    runtime.start()
    engine.run_until(engine.sim.now + 40.0)
    committed = len(runtime.aggregator.results)
    assert committed > 0  # checkpoints have been committing results
    runtime.crash_aggregator()
    runtime.crash_aggregator()  # idempotent
    assert runtime.aggregator_crashes == 1
    # Committed results already left through the transactional sink.
    assert len(runtime.results) >= committed
    runtime.stop()
