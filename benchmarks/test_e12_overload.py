"""E12 — Overload recovery: backpressure vs load shedding.

The scripted overload scenario (5x ingest burst at both sites, a 40 s
WAN blackout mid-burst, an aggregator crash restarted from checkpoint)
run once per overload policy. Expected shape: ``block`` converts the
overload into source deferral and latency but counts every admitted
record exactly once — even across the crash; ``shed`` keeps the latency
tail flat and pays in records, every one of them accounted by a shed or
late counter, never silently.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.config import OverloadConfig
from repro.scenarios import run_overload
from repro.simulation.units import KB

SEED = 24012
DURATION = 240.0


def run_e12():
    block = run_overload(OverloadConfig(policy="block", seed=SEED, duration=DURATION))
    shed = run_overload(OverloadConfig(policy="shed", seed=SEED, duration=DURATION))
    return block, shed


@pytest.mark.benchmark(group="e12")
def test_e12_overload_recovery(benchmark, report):
    block, shed = benchmark.pedantic(run_e12, rounds=1, iterations=1)
    rows = []
    for r in (block, shed):
        rows.append(
            [
                r.policy,
                r.ingested,
                r.counted,
                r.lost,
                max(r.backlog_peaks.values()),
                r.max_deferred,
                r.shed,
                f"{r.latency.p99:.1f}",
                r.batches_replayed,
                r.wan_bytes / KB,
            ]
        )
    table = render_table(
        ["policy", "ingested", "counted", "lost", "peak backlog",
         "peak defer", "shed", "p99 (s)", "replayed", "WAN KB"],
        rows,
        title="E12 — overload recovery under burst + blackout + crash "
        f"(2 sites -> NUS, {DURATION:.0f} s, bound "
        f"{block.max_backlog_bound})",
    )

    rec = ExperimentRecord(
        "E12",
        "Overload recovery: bounded buffers, accounted loss, exactly-once",
        SEED,
        parameters={
            "scenario": "5x burst (60-90 s) + 40 s blackhole + crash at 150 s",
            "flow": f"max_backlog {block.max_backlog_bound}, "
            "inflight window 8, breaker 3/20 s",
            "checkpoints": "every 15 s, exactly-once sink + batch replay",
        },
    )
    rec.check(
        "block loses nothing, even across the aggregator crash",
        block.clean and block.lost == 0 and block.aggregator_crashes == 1,
        f"lost {block.lost}, crashes {block.aggregator_crashes}, "
        f"{block.batches_replayed} batches replayed",
    )
    rec.check(
        "both policies hold every site buffer at the bound",
        all(
            peak <= r.max_backlog_bound
            for r in (block, shed)
            for peak in r.backlog_peaks.values()
        ),
        f"peaks block {block.backlog_peaks}, shed {shed.backlog_peaks}",
    )
    rec.check(
        "block pays in deferral and latency, shed in records",
        block.max_deferred > 0
        and block.shed == 0
        and shed.max_deferred == 0
        and shed.shed > 0,
        f"block deferred {block.max_deferred}, shed dropped {shed.shed}",
    )
    rec.check(
        "every record shed loses is accounted by a counter",
        shed.clean and shed.accounted and shed.lost > 0,
        f"lost {shed.lost} == shed {shed.shed} + late "
        f"{shed.late_dropped + shed.late_partial_records} + abandoned "
        f"{shed.abandoned_records}",
    )
    rec.check(
        "shedding buys a flatter latency tail than blocking",
        shed.latency.p99 < block.latency.p99,
        f"p99 {shed.latency.p99:.1f} s vs {block.latency.p99:.1f} s",
    )
    rec.check(
        "the breaker cooperated with the fault bus during the blackout",
        block.breaker_opens >= 1 and block.breaker_closes >= 1,
        f"{block.breaker_opens} opens, {block.breaker_closes} closes",
    )
    report("E12", table, rec.render())
    rec.assert_shape()
