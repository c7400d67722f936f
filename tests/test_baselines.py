"""Tests for the baseline transfer strategies."""

import pytest

from repro.baselines import (
    BlobRelay,
    EndPoint2EndPoint,
    GridFtpLike,
    StaticParallel,
    StaticShortestPath,
)
from repro.cloud.deployment import CloudEnvironment
from repro.config import (
    DirectConfig,
    GridFtpConfig,
    ParallelStaticConfig,
    ShortestPathConfig,
)
from repro.core.engine import SageEngine
from repro.core.strategy import SageStrategy
from repro.simulation.units import GB, MB


def make_engine(seed=19, stable=True):
    env = CloudEnvironment(
        seed=seed,
        variability_sigma=0.0 if stable else 0.25,
        glitches=not stable,
    )
    engine = SageEngine(
        env, deployment_spec={"NEU": 6, "WEU": 4, "EUS": 4, "NUS": 6}
    )
    engine.start(learning_phase=180.0)
    return engine


SIZE = 256 * MB


def test_endpoint2endpoint_single_flow():
    engine = make_engine()
    r = EndPoint2EndPoint(DirectConfig(streams=1)).run(engine, "NEU", "NUS", SIZE)
    expected = SIZE / (engine.env.network.tcp_window / engine.env.topology.rtt("NEU", "NUS"))
    assert r.seconds == pytest.approx(expected, rel=0.05)
    assert r.egress_usd > 0


def test_static_parallel_faster_than_direct():
    e1 = make_engine(seed=4)
    direct = EndPoint2EndPoint(DirectConfig(streams=4)).run(e1, "NEU", "NUS", SIZE)
    e2 = make_engine(seed=4)
    par = StaticParallel(ParallelStaticConfig(n_nodes=5, streams=4)).run(e2, "NEU", "NUS", SIZE)
    assert par.seconds < direct.seconds


def test_static_parallel_suffers_from_degraded_node():
    engine = make_engine(seed=6)
    strat = StaticParallel(ParallelStaticConfig(n_nodes=4, streams=4))
    plan = strat.build_plan(engine, "NEU", "NUS")
    # Degrade one of its fixed senders before launch.
    victim = plan.routes[2].path[0]
    victim.degrade(0.15)
    healthy_engine = make_engine(seed=6)
    healthy = StaticParallel(ParallelStaticConfig(n_nodes=4, streams=4)).run(
        healthy_engine, "NEU", "NUS", SIZE
    )
    hurt = strat.run(engine, "NEU", "NUS", SIZE)
    assert hurt.seconds > healthy.seconds * 1.3  # straggler dominates


def test_gridftp_includes_submission_latency():
    e1 = make_engine(seed=9)
    fast = GridFtpLike(GridFtpConfig(submission_latency=0.0)).run(e1, "NEU", "NUS", SIZE)
    e2 = make_engine(seed=9)
    slow = GridFtpLike(GridFtpConfig(submission_latency=30.0)).run(e2, "NEU", "NUS", SIZE)
    assert slow.seconds == pytest.approx(fast.seconds + 30.0, rel=0.1)


def test_blob_relay_two_passes_slower_than_direct_parallel():
    e1 = make_engine(seed=12)
    blob = BlobRelay().run(e1, "NEU", "NUS", SIZE)
    e2 = make_engine(seed=12)
    grid = GridFtpLike().run(e2, "NEU", "NUS", SIZE)
    assert blob.seconds > grid.seconds
    assert blob.extra_usd > 0  # storage charges


def test_shortest_path_strategies_run():
    e1 = make_engine(seed=15)
    static = StaticShortestPath(ShortestPathConfig(n_nodes=8)).run(e1, "NEU", "NUS", SIZE)
    assert static.seconds > 0


def test_sage_strategy_beats_naive_on_unstable_cloud():
    e1 = make_engine(seed=33, stable=False)
    naive = StaticParallel(ParallelStaticConfig(n_nodes=8, streams=4)).run(e1, "NEU", "NUS", 2 * GB)
    e2 = make_engine(seed=33, stable=False)
    sage = SageStrategy(n_nodes=8).run(e2, "NEU", "NUS", 2 * GB)
    assert sage.seconds < naive.seconds * 1.1  # at worst comparable


def test_validation():
    with pytest.raises(ValueError):
        StaticParallel({"n_nodes": 0})
    with pytest.raises(ValueError):
        GridFtpLike({"streams": 0})
    with pytest.raises(ValueError):
        GridFtpLike({"submission_latency": -1.0})
    with pytest.raises(ValueError):
        BlobRelay({"object_size": 0.0})
    with pytest.raises(ValueError):
        BlobRelay({"parallel_objects": 0})
