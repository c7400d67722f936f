"""The per-record draw loops of the built-in sources, kept as the test oracle.

Until PR 16 every source in ``repro.streaming.sources`` carried two emission
methods that had to agree: a scalar loop building one ``Record`` at a time and
the vectorized one that builds a ``RecordBatch``. The scalar loops live here
now, as pure functions of ``(rng, params, state, t0, t1)`` that share no code
with ``src/`` (the PR 13 ``_fluid_oracle.py`` pattern): ``params`` is a plain
dict of constructor arguments, ``state`` a dict the function mutates the way
the source mutated its attributes, and the return value the tick's rows
``(event_time, key, value, size_bytes)`` in emission order.

``tests/test_streaming_sources.py`` drives each built-in source and its
oracle from the same named RNG stream and compares column for column.
``SensorGridSource`` has no oracle: its scalar loop interleaved the RNG
differently from the vectorized rounds and never was bit-identical — its
stream is pinned by value instead.
"""

from __future__ import annotations

import numpy as np

Row = tuple[float, str, float, float]


def _rows(rng, times, keys, key_idx, sizes, value_fn=None) -> list[Row]:
    """One row per arrival; the value draws come last, one scalar at a time."""
    return [
        (
            float(times[i]),
            keys[key_idx[i]],
            value_fn(rng) if value_fn else float(rng.normal()),
            sizes[i],
        )
        for i in range(len(times))
    ]


def poisson_tick(rng, p: dict, state: dict, t0: float, t1: float) -> list[Row]:
    n = rng.poisson(p["rate"] * (t1 - t0))
    if n == 0:
        return []
    times = np.sort(rng.uniform(t0, t1, n))
    key_idx = rng.integers(0, len(p["keys"]), n)
    sizes = [p["record_bytes"]] * n
    return _rows(rng, times, p["keys"], key_idx, sizes, p.get("value_fn"))


def mmpp_tick(rng, p: dict, state: dict, t0: float, t1: float) -> list[Row]:
    if "switch_at" not in state:
        state["bursting"] = False
        state["switch_at"] = t0 + rng.exponential(p["mean_quiet"])
    while state["switch_at"] <= t1:
        state["bursting"] = not state["bursting"]
        hold = p["mean_burst"] if state["bursting"] else p["mean_quiet"]
        state["switch_at"] += rng.exponential(hold)
    rate = p["burst_rate"] if state["bursting"] else p["base_rate"]
    n = rng.poisson(rate * (t1 - t0))
    if n == 0:
        return []
    times = np.sort(rng.uniform(t0, t1, n))
    key_idx = rng.integers(0, len(p["keys"]), n)
    return _rows(rng, times, p["keys"], key_idx, [p["record_bytes"]] * n)


def schedule_tick(rng, p: dict, state: dict, t0: float, t1: float) -> list[Row]:
    origin = state.setdefault("origin_time", t0)
    # Midpoint rule over the whole tick.
    mean = max(0.0, float(p["rate_fn"](t0 + (t1 - t0) / 2.0 - origin))) * (t1 - t0)
    n = rng.poisson(mean) if mean > 0 else 0
    if n == 0:
        return []
    times = np.sort(rng.uniform(t0, t1, n))
    if p.get("key_weights") is not None:
        weights = np.asarray(p["key_weights"], dtype=float)
        key_p = weights / float(sum(p["key_weights"]))
        key_idx = rng.choice(len(p["keys"]), size=n, p=key_p)
    else:
        key_idx = rng.integers(0, len(p["keys"]), n)
    if p.get("bytes_fn") is not None:
        sizes = [
            max(1.0, float(p["bytes_fn"](float(times[i]) - origin)))
            for i in range(n)
        ]
    else:
        sizes = [p["record_bytes"]] * n
    return _rows(rng, times, p["keys"], key_idx, sizes)


def burst_tick(rng, p: dict, state: dict, t0: float, t1: float) -> list[Row]:
    origin = state.setdefault("origin_time", t0)
    # Integrate the piecewise-constant rate over the tick so a tick
    # straddling a burst boundary draws the exact expected count.
    lo = origin + p["burst_start"]
    hi = origin + p["burst_end"]
    overlap = max(0.0, min(t1, hi) - max(t0, lo))
    mean = p["base_rate"] * ((t1 - t0) - overlap) + p["burst_rate"] * overlap
    n = rng.poisson(mean) if mean > 0 else 0
    if n == 0:
        return []
    times = np.sort(rng.uniform(t0, t1, n))
    key_idx = rng.integers(0, len(p["keys"]), n)
    return _rows(rng, times, p["keys"], key_idx, [p["record_bytes"]] * n)
