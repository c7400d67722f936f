"""Observability overhead on the E9-style streaming hot path.

Two claims are benchmarked on the same job, seed, and deployment as a
scaled-down E9a run:

* **off ≈ free** — with observability disabled (the default), the
  instrumentation hooks reduce to boolean guards and shared no-op
  handles, so the run must not be slower than the fully instrumented
  run by more than 2% (CI gates on this bound; the disabled run does
  strictly less work, so min-of-rounds makes it reliable).
* **on is bounded** — enabling metrics + stage profiling + the event
  log must cost well under 50% wall time even on this
  workload, which is small enough that the fixed instrumentation cost
  is maximally visible.

Wall-clock timings use the best of ``ROUNDS`` runs to shave scheduler
noise; simulated work is deterministic across repeats.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.obs import Observer
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows
from repro.workloads.synthetic import fresh_engine

SEED = 24011
SPEC = {"NEU": 3, "WEU": 3, "EUS": 3, "NUS": 3}
SITES = ("NEU", "WEU", "EUS")
DURATION = 60.0
RATE = 1000.0
ROUNDS = 3


def make_job() -> StreamJob:
    return StreamJob(
        name="obs-overhead",
        sites=[
            SiteSpec(
                r,
                [PoissonSource(f"s-{r}", rate=RATE, keys=[r],
                               record_bytes=200.0)],
            )
            for r in SITES
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("mean"),
    )


def timed_run(observer=None) -> tuple[float, int]:
    engine = fresh_engine(
        seed=SEED, spec=SPEC, learning_phase=120.0, observer=observer
    )
    runtime = GeoStreamRuntime(
        engine, make_job(), SageShipping.factory(n_nodes=2)
    )
    t0 = time.perf_counter()
    runtime.run_for(DURATION)
    elapsed = time.perf_counter() - t0
    processed = sum(s.records_processed for s in runtime.sites.values())
    return elapsed, processed


def run_overhead():
    timed_run(None)  # warmup: imports, allocator, branch caches
    # off/on rounds interleave so slow drift in machine load lands on
    # both sides of the ratio; min-of-rounds shaves the noise spikes.
    off_times, on_times = [], []
    spans = series = stages = 0
    for _ in range(ROUNDS):
        off_times.append(timed_run(None)[0])
        obs = Observer()
        t, _ = timed_run(obs)
        on_times.append(t)
        spans = len(obs.log.spans)
        series = len(obs.registry.snapshot())
        stages = len(obs.profiler.stages())
    return min(off_times), min(on_times), spans, series, stages


@pytest.mark.benchmark(group="obs")
def test_obs_overhead(benchmark, report):
    off, on, spans, series, stages = benchmark.pedantic(
        run_overhead, rounds=1, iterations=1
    )
    _, processed = timed_run(None)
    table = render_table(
        ["mode", "wall (s)", "records/s (wall)"],
        [
            ["observability off", off, processed / off],
            ["observability on", on, processed / on],
        ],
        title="Observability overhead on a 3-site streaming run",
    )

    rec = ExperimentRecord(
        "OBS", "Observability overhead (off must stay free)", SEED,
        parameters={"rate": f"{RATE:.0f} ev/s/site",
                    "duration": f"{DURATION:.0f} s"},
    )
    rec.check(
        "disabled instrumentation costs nothing: the obs-off run is "
        "within 2% of the fully instrumented run (it should be faster)",
        off <= 1.02 * on,
        f"off {off:.3f}s vs on {on:.3f}s ({off / on:.2f}x)",
    )
    rec.check(
        "enabled observability overhead is bounded (< 50% wall time)",
        on <= 1.50 * off,
        f"on/off ratio {on / off:.2f}x",
    )
    rec.check(
        "the enabled run actually recorded something",
        spans > 0 and series > 0 and stages > 0,
        f"{spans} spans, {series} metric series, {stages} profiled stages",
    )
    report("OBS", table, rec.render())
    rec.assert_shape()
