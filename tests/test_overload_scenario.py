"""The scripted overload-recovery scenario, per-policy contracts.

Each scenario run stacks a 5x ingest burst, a mid-burst WAN blackout,
and an aggregator crash/restart on the same deterministic workload; the
tests assert the overload contract of every policy end to end. They are
marked ``overload`` (like ``chaos``) so CI can run them in a dedicated
step.
"""

import pytest

from repro.config import OverloadConfig
from repro.scenarios import run_overload

pytestmark = pytest.mark.overload

SEED = 2013


@pytest.fixture(scope="module")
def block_result():
    return run_overload(OverloadConfig(policy="block", seed=SEED))


@pytest.fixture(scope="module")
def shed_result():
    return run_overload(OverloadConfig(policy="shed", seed=SEED))


def test_block_loses_nothing_and_bounds_the_buffer(block_result):
    r = block_result
    assert r.clean
    assert r.lost == 0
    assert r.shed == 0 and r.abandoned == 0
    assert all(peak <= r.max_backlog_bound for peak in r.backlog_peaks.values())
    # The overload went somewhere: the sources were left holding it.
    assert r.max_deferred > 0
    assert r.deferred_final == 0  # and the deferral fully drained


def test_block_recovers_through_checkpoint_and_replay(block_result):
    r = block_result
    assert r.aggregator_crashes == 1
    assert r.checkpoints > 0 and r.checkpoint_bytes > 0
    assert r.batches_dropped_while_down > 0  # the crash was real
    assert r.batches_replayed > 0  # retention replay closed the gap
    assert r.results > 0
    assert r.lost == 0  # exactly-once across the crash


def test_block_breaker_cooperates_with_the_fault_bus(block_result):
    r = block_result
    # The blackout announces link.down: the breaker opens without
    # burning timeouts, then closes again after the heal's probe.
    assert r.breaker_opens >= 1
    assert r.breaker_closes >= 1


def test_shed_bounds_latency_with_accounted_loss(shed_result, block_result):
    r = shed_result
    assert r.clean
    assert r.lost > 0  # shedding is lossy by contract...
    assert r.accounted  # ...but every record is accounted for
    assert r.lost == (
        r.shed + r.late_dropped + r.late_partial_records + r.abandoned_records
    )
    assert all(peak <= r.max_backlog_bound for peak in r.backlog_peaks.values())
    # What shed buys over block: the backlog never defers the source
    # and the latency tail stays below the lossless arm's.
    assert r.deferred_final == 0 and r.max_deferred == 0
    assert r.latency.p99 < block_result.latency.p99


def test_degrade_bounds_memory_at_twice_the_bound():
    r = run_overload(OverloadConfig(policy="degrade", seed=SEED))
    assert r.clean
    assert r.degraded_ticks > 0
    assert all(
        peak <= 2 * r.max_backlog_bound for peak in r.backlog_peaks.values()
    )
    assert r.lost == (
        r.shed + r.late_dropped + r.late_partial_records + r.abandoned_records
    )


@pytest.mark.parametrize("duration", [240.0, 241.0, 249.0])
def test_block_drains_a_horizon_ending_inside_a_window(duration, stopped_runtimes):
    # 241 / 249 s end one tick into / one tick before the end of a 10 s
    # window: the partials of that window reach the batcher only after the
    # pipe has drained once, and the quiescence rule drains again for them.
    r = run_overload(OverloadConfig(policy="block", seed=SEED, duration=duration))
    (runtime,) = stopped_runtimes
    assert runtime.in_pipe() == 0
    assert r.lost == 0 and r.accounted
    assert r.clean


def test_same_seed_same_numbers(block_result):
    """The scenario is deterministic: reruns agree to the record."""
    again = run_overload(OverloadConfig(policy="block", seed=SEED))
    for field in (
        "ingested",
        "counted",
        "results",
        "backlog_peaks",
        "max_deferred",
        "blocked_ticks",
        "breaker_opens",
        "breaker_closes",
        "retries",
        "checkpoints",
        "batches_replayed",
        "wan_bytes",
    ):
        assert getattr(again, field) == getattr(block_result, field), field
    assert again.latency.p99 == block_result.latency.p99


def test_describe_renders_the_verdict(block_result):
    text = block_result.describe()
    assert "CLEAN" in text
    assert "policy=block" in text
    assert f"records ingested: {block_result.ingested}" in text
