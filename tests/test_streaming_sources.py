"""Tests for stream sources."""

from hashlib import sha256

import numpy as np
import pytest

from repro.simulation.engine import Simulator
from repro.simulation.random import RngRegistry
from repro.streaming.records import RecordBatch
from repro.streaming.sources import (
    BurstSource,
    MmppSource,
    PoissonSource,
    ScheduleSource,
    SensorGridSource,
)
from tests import _source_oracle as oracle


def collect(source, duration, seed=0):
    """Run ``source`` alone; returns the sim and everything it emitted."""
    sim = Simulator(seed=seed)
    out = []
    source.attach(sim, "NEU", out.append)
    source.start()
    sim.run_until(duration)
    source.stop()
    return sim, RecordBatch.concat(out) if out else RecordBatch.empty("NEU")


def keys_of(batch):
    return [batch.keys[i] for i in batch.key_idx]


def test_poisson_rate_and_ordering():
    src = PoissonSource("p", rate=100.0, keys=["a", "b"])
    sim, batch = collect(src, 100.0)
    assert len(batch) == pytest.approx(10_000, rel=0.1)
    assert set(keys_of(batch)) == {"a", "b"}
    assert batch.origin == "NEU"
    # Event times lie within the elapsed window, in order.
    assert batch.t.min() >= 0 and batch.t.max() <= 100.0
    assert np.all(np.diff(batch.t) >= 0)


def test_poisson_reproducible():
    a = collect(PoissonSource("p", rate=50.0), 20.0, seed=3)[1]
    b = collect(PoissonSource("p", rate=50.0), 20.0, seed=3)[1]
    assert len(a) and np.array_equal(a.t, b.t)


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonSource("p", rate=0.0)


def test_source_lifecycle_errors():
    src = PoissonSource("p", rate=1.0)
    with pytest.raises(RuntimeError, match="attached"):
        src.start()
    sim = Simulator()
    src.attach(sim, "NEU", lambda batch: None)
    src.start()
    with pytest.raises(RuntimeError, match="already started"):
        src.start()


def test_mmpp_burstiness():
    src = MmppSource(
        "m", base_rate=50.0, burst_rate=2000.0, mean_quiet=30.0, mean_burst=10.0
    )
    sim, batch = collect(src, 600.0, seed=5)
    # Count per-second arrivals; bursts should produce heavy upper tail.
    counts = np.bincount(batch.t.astype(int), minlength=600)
    # Burst seconds run far above the long-run mean rate.
    assert counts.max() > 4 * max(counts.mean(), 1.0)
    mean_rate = len(batch) / 600.0
    assert 50.0 < mean_rate < 2000.0


def test_mmpp_validation():
    with pytest.raises(ValueError):
        MmppSource("m", base_rate=0.0, burst_rate=10.0)
    with pytest.raises(ValueError):
        MmppSource("m", base_rate=1.0, burst_rate=10.0, mean_quiet=0.0)


def test_sensor_grid_rate_and_keys():
    src = SensorGridSource("g", n_sensors=100, report_interval=10.0)
    sim, batch = collect(src, 200.0, seed=1)
    # ~100 sensors / 10 s → 10 records/s → ~2000 records.
    assert len(batch) == pytest.approx(2000, rel=0.15)
    assert len(set(keys_of(batch))) == 100
    assert src.mean_rate == pytest.approx(10.0)


def test_sensor_values_drift_slowly():
    src = SensorGridSource("g", n_sensors=1, report_interval=1.0,
                           drift_sigma=0.0, noise_sigma=0.0)
    sim, batch = collect(src, 50.0, seed=2)
    assert np.std(batch.value) < 0.01  # no drift, no noise → constant


def test_sensor_validation():
    with pytest.raises(ValueError):
        SensorGridSource("g", n_sensors=0)
    with pytest.raises(ValueError):
        SensorGridSource("g", n_sensors=1, report_interval=0.0)


# ----------------------------------------------------------------------
# Built-in sources against their per-record oracles, column for column
# ----------------------------------------------------------------------
_KEYS = ["k0", "k1", "k2", "k3", "k4"]

#: kind -> (oracle tick, source class, constructor arguments). The oracle
#: reads the same dict (plus the base-class defaults).
_ORACLE_CASES = {
    "poisson": (oracle.poisson_tick, PoissonSource, {"rate": 40.0, "keys": _KEYS}),
    "poisson-value-fn": (
        oracle.poisson_tick,
        PoissonSource,
        {
            "rate": 40.0,
            "keys": _KEYS,
            "value_fn": lambda rng: float(rng.exponential(3.0)),
        },
    ),
    "mmpp": (
        oracle.mmpp_tick,
        MmppSource,
        {
            "base_rate": 10.0,
            "burst_rate": 120.0,
            "mean_quiet": 8.0,
            "mean_burst": 3.0,
            "keys": _KEYS,
        },
    ),
    "schedule": (
        oracle.schedule_tick,
        ScheduleSource,
        {
            "rate_fn": lambda t: 30.0 + 25.0 * np.sin(t / 7.0),
            "keys": _KEYS,
            "key_weights": [8.0, 4.0, 2.0, 1.0, 1.0],
            "bytes_fn": lambda t: 150.0 + 2.0 * t,
        },
    ),
    "schedule-uniform-keys": (
        oracle.schedule_tick,
        ScheduleSource,
        {
            "rate_fn": lambda t: 5.0 if t < 20.0 else 0.0,
            "keys": _KEYS,
        },
    ),
    "burst": (
        oracle.burst_tick,
        BurstSource,
        {
            "base_rate": 0.0,
            "burst_rate": 90.0,
            "burst_start": 10.5,
            "burst_end": 25.25,
            "keys": _KEYS,
        },
    ),
}


@pytest.mark.parametrize("seed", [7, 11, 2013])
@pytest.mark.parametrize("kind", list(_ORACLE_CASES))
def test_builtin_source_matches_its_per_record_oracle(kind, seed):
    tick_fn, cls, kwargs = _ORACLE_CASES[kind]
    ticks = 60
    source = cls("src", **kwargs)
    sim, batch = collect(source, float(ticks), seed=seed)

    params = dict(kwargs, record_bytes=source.record_bytes)
    rng = RngRegistry(seed).get("source/src")  # the stream the source drew from
    state: dict = {}
    rows = []
    for k in range(ticks):
        rows.extend(tick_fn(rng, params, state, float(k), float(k + 1)))

    assert len(rows) > 50, "oracle produced too little to compare"
    assert len(batch) == len(rows)
    assert batch.t.tolist() == [r[0] for r in rows]
    assert keys_of(batch) == [r[1] for r in rows]
    assert batch.value.tolist() == [r[2] for r in rows]
    assert [type(v) for v in batch.value.tolist()] == [type(r[2]) for r in rows]
    assert batch.size.tolist() == [r[3] for r in rows]
    # Both left the stream at the same point.
    assert sim.rngs.get("source/src").random() == rng.random()


def test_sensor_grid_stream_is_pinned_by_value():
    # The grid's vectorized rounds never had a bit-identical scalar twin
    # (the loop drew noise and jitter sensor by sensor), so its stream is
    # pinned outright: 50 sensors, seed 7, 60 ticks.
    src = SensorGridSource("grid", n_sensors=50, report_interval=5.0)
    _, batch = collect(src, 60.0, seed=7)
    digest = sha256()
    for column in (batch.t, batch.key_idx.astype(np.int64), batch.value, batch.size):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert len(batch) == 597
    assert digest.hexdigest() == (
        "dada90adf5cbdb8651b9004471ea8275a6400d44e0472d178fdce461e734758a"
    )


def test_sensor_grid_multi_round_ticks_are_pinned_too():
    # A report interval well under the tick makes every tick several
    # reporting rounds (up to 133 records from 50 sensors) — the branch
    # that joins per-round columns. Recorded from the list-and-concatenate
    # form this replaced: 50 sensors, seed 7, 40 ticks.
    src = SensorGridSource("grid", n_sensors=50, report_interval=0.4)
    _, batch = collect(src, 40.0, seed=7)
    digest = sha256()
    for column in (batch.t, batch.key_idx.astype(np.int64), batch.value, batch.size):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert len(batch) == 4991
    assert digest.hexdigest() == (
        "e5e9bec010d73f5c8186eb5b3e0375ea7d859bf51d1dbe3e1ea6335012c09646"
    )
