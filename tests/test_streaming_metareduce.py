"""Tests for the multi-site MapReduce meta-reducer."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.simulation.units import MB
from repro.streaming.metareduce import (
    MapReduceSiteSpec,
    MetaReducer,
)
from repro.streaming.shipping import BlobShipping, SageShipping


def make_engine(seed=23):
    env = CloudEnvironment(seed=seed, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 3, "WEU": 3, "NUS": 3}
    )
    engine.start(learning_phase=120.0)
    return engine


def specs(n_files=50, size=1 * MB, compute=5.0):
    return [
        MapReduceSiteSpec("NEU", [size] * n_files, compute_time=compute),
        MapReduceSiteSpec("WEU", [size] * n_files, compute_time=compute),
    ]


def test_metareduce_delivers_everything():
    engine = make_engine()
    mr = MetaReducer(engine, specs(), "NUS", SageShipping.factory(n_nodes=2))
    report = mr.run()
    assert report.files_delivered == 100
    assert report.bytes_delivered == pytest.approx(100 * MB, rel=0.01)
    assert report.transfer_time > 5.0  # compute delay included
    assert report.completion_time > report.transfer_time  # reduce phase
    assert set(report.per_site_transfer_time) == {"NEU", "WEU"}


def test_metareduce_compute_delay_gates_shipping():
    engine = make_engine(seed=3)
    fast = MetaReducer(
        engine,
        [MapReduceSiteSpec("NEU", [1 * MB] * 10, compute_time=0.0)],
        "NUS",
        SageShipping.factory(n_nodes=2),
    ).run()
    engine2 = make_engine(seed=3)
    slow = MetaReducer(
        engine2,
        [MapReduceSiteSpec("NEU", [1 * MB] * 10, compute_time=60.0)],
        "NUS",
        SageShipping.factory(n_nodes=2),
    ).run()
    assert slow.transfer_time == pytest.approx(fast.transfer_time + 60.0, rel=0.2)


def test_metareduce_sage_beats_blob_on_large_files():
    engine_blob = make_engine(seed=8)
    blob = MetaReducer(
        engine_blob,
        [MapReduceSiteSpec("NEU", [20 * MB] * 30, compute_time=0.0)],
        "NUS",
        BlobShipping.factory(),
    ).run()
    engine_sage = make_engine(seed=8)
    sage = MetaReducer(
        engine_sage,
        [MapReduceSiteSpec("NEU", [20 * MB] * 30, compute_time=0.0)],
        "NUS",
        SageShipping.factory(n_nodes=3),
    ).run()
    assert sage.transfer_time < blob.transfer_time


def test_metareduce_validation():
    engine = make_engine()
    with pytest.raises(ValueError):
        MetaReducer(engine, [], "NUS", SageShipping.factory())
    with pytest.raises(ValueError):
        MapReduceSiteSpec("NEU", [])
    with pytest.raises(ValueError):
        MapReduceSiteSpec("NEU", [0.0])
    with pytest.raises(ValueError, match="reducer region"):
        MetaReducer(
            engine,
            [MapReduceSiteSpec("NEU", [1.0])],
            "SUS",
            SageShipping.factory(),
        )


def test_metareduce_mean_file_time():
    engine = make_engine(seed=5)
    report = MetaReducer(
        engine,
        [MapReduceSiteSpec("NEU", [1 * MB] * 10, compute_time=0.0)],
        "NUS",
        SageShipping.factory(n_nodes=2),
    ).run()
    assert report.mean_file_time > 0
