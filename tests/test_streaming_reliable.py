"""At-least-once shipping and receiver-side duplicate removal."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.simulation.units import KB
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.operators import PartialAggregate, builtin_aggregate
from repro.streaming.runtime import GlobalAggregator
from repro.streaming.shipping import ReliableShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows, Window


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=71, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2})
    eng.start(learning_phase=30.0)
    return eng


@pytest.fixture
def job():
    return StreamJob(
        name="r",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=1.0)])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
        finalize_grace=5.0,
    )


def partial_batch(seq, count=3, origin="NEU"):
    pa = PartialAggregate(Window(0.0, 10.0), "k", state=count, count=count)
    record = Record(10.0, "k", pa, origin=origin, size_bytes=200.0)
    return Batch([record], origin, created_at=10.0, seq=seq)


def plain_batch(seq=1, size=64 * KB):
    record = Record(0.0, "k", 1.0, origin="NEU", size_bytes=size)
    return Batch([record], "NEU", created_at=0.0, seq=seq)


# ----------------------------------------------------------------------
# Receiver-side dedup
# ----------------------------------------------------------------------
def test_duplicate_batch_not_double_counted(engine, job):
    """Satellite contract: the same partial-aggregate batch delivered twice
    leaves window values and record counts unchanged."""
    agg = GlobalAggregator(engine, job)
    agg.deliver(partial_batch(seq=4))
    agg.deliver(partial_batch(seq=4))  # verbatim re-delivery
    engine.run_until(engine.sim.now + job.finalize_grace + 1.0)
    assert agg.duplicates_dropped == 1
    assert len(agg.results) == 1
    result = agg.results[0]
    assert result.value == 3
    assert result.record_count == 3


def test_distinct_batches_do_merge(engine, job):
    agg = GlobalAggregator(engine, job)
    agg.deliver(partial_batch(seq=1))
    agg.deliver(partial_batch(seq=2))  # a different batch, same window
    engine.run_until(engine.sim.now + job.finalize_grace + 1.0)
    assert agg.duplicates_dropped == 0
    assert len(agg.results) == 1
    assert agg.results[0].value == 6
    assert agg.results[0].record_count == 6


# ----------------------------------------------------------------------
# ReliableShipping
# ----------------------------------------------------------------------
class FlakyInner:
    """Inner backend stub: swallows the first ``fail_first`` attempts,
    then delivers each attempt after ``delay`` seconds."""

    def __init__(self, engine, fail_first=0, delay=1.0):
        self.engine = engine
        self.fail_first = fail_first
        self.delay = delay
        self.attempts = 0
        self.bytes_shipped = 0.0
        self.batches_shipped = 0

    def ship(self, batch, on_delivered):
        self.attempts += 1
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1
        if self.attempts > self.fail_first:
            self.engine.sim.schedule(self.delay, on_delivered, batch)


def test_reliable_validation(engine):
    inner = FlakyInner(engine)
    with pytest.raises(ValueError, match="delivery_timeout"):
        ReliableShipping(engine, inner, delivery_timeout=0.0)
    with pytest.raises(ValueError, match="max_retries"):
        ReliableShipping(engine, inner, max_retries=-1)


def test_reliable_retries_until_delivered(engine):
    inner = FlakyInner(engine, fail_first=2)
    shipping = ReliableShipping(engine, inner, delivery_timeout=5.0,
                                max_retries=4)
    got = []
    shipping.ship(plain_batch(), got.append)
    engine.run_until(engine.sim.now + 120.0)
    assert len(got) == 1
    assert shipping.retries == 2
    assert shipping.acked == 1
    assert shipping.abandoned == 0
    assert inner.attempts == 3
    # Retries pay wide-area bytes like any other batch.
    assert shipping.bytes_shipped == inner.bytes_shipped
    assert shipping.bytes_shipped == pytest.approx(3 * 64 * KB)


def test_reliable_abandons_after_bounded_retries(engine):
    inner = FlakyInner(engine, fail_first=10**9)  # black hole
    shipping = ReliableShipping(engine, inner, delivery_timeout=2.0,
                                max_retries=2)
    got = []
    shipping.ship(plain_batch(), got.append)
    engine.run_until(engine.sim.now + 300.0)
    assert got == []
    assert shipping.abandoned == 1
    assert shipping.retries == 2
    assert inner.attempts == 3  # initial + bounded re-sends, then gave up


def test_late_first_copy_becomes_duplicate_and_is_deduped(engine, job):
    """A copy that outlives its timeout still reaches the receiver after
    the retry: downstream sees it twice, the aggregator counts it once."""
    agg = GlobalAggregator(engine, job)
    inner = FlakyInner(engine, delay=8.0)  # slower than the timeout
    shipping = ReliableShipping(engine, inner, delivery_timeout=5.0,
                                max_retries=3)
    shipping.ship(partial_batch(seq=6), agg.deliver)
    engine.run_until(engine.sim.now + 120.0)
    assert shipping.retries == 1
    assert shipping.acked == 1
    assert shipping.duplicates_delivered == 1
    assert agg.duplicates_dropped == 1
    assert len(agg.results) == 1
    assert agg.results[0].record_count == 3  # counted exactly once
