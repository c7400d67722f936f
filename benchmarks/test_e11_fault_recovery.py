"""E11 — Fault injection and hard-failure recovery.

The scripted chaos scenario (two sender-VM crashes with restarts, one
60 s link blackhole, a batch-duplication window) against the identical
fault-free workload. Expected shape: both arms count every ingested
record exactly once — under faults because detection-driven replans,
stall-driven rerouting and at-least-once shipping with receiver dedup
close the gaps; the faulty arm pays for it in retried wide-area bytes
and recovery activity, never in data.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.config import ChaosConfig
from repro.scenarios import run_chaos
from repro.simulation.units import KB

SEED = 24011
DURATION = 240.0


def run_e11():
    faulty = run_chaos(ChaosConfig(seed=SEED, duration=DURATION))
    baseline = run_chaos(ChaosConfig(seed=SEED, duration=DURATION, inject=False))
    return faulty, baseline


@pytest.mark.benchmark(group="e11")
def test_e11_fault_recovery(benchmark, report):
    faulty, baseline = benchmark.pedantic(run_e11, rounds=1, iterations=1)
    rows = []
    for name, r in (("chaos", faulty), ("fault-free", baseline)):
        rows.append(
            [
                name,
                r.ingested,
                r.counted,
                r.lost,
                r.double_counted,
                len(r.faults),
                r.retries,
                max(r.detection_latencies, default=0.0),
                r.wan_bytes / KB,
                f"${r.egress_usd:.4f}",
            ]
        )
    table = render_table(
        ["arm", "ingested", "counted", "lost", "doubled", "faults",
         "retries", "worst det (s)", "WAN KB", "egress"],
        rows,
        title="E11 — recovery under VM crashes + link blackhole "
        f"(2 sites -> NUS, {DURATION:.0f} s)",
    )

    rec = ExperimentRecord(
        "E11",
        "Fault-injection recovery: zero loss, zero double-counting",
        SEED,
        parameters={
            "scenario": "2 VM crashes (90 s outage) + 60 s blackhole + dup window",
            "detector": f"bound {faulty.detection_bound:.0f} s",
            "shipping": "reliable(sage), timeout 15 s, <=8 retries",
        },
    )
    rec.check(
        "chaos arm loses nothing and double-counts nothing",
        faulty.clean and faulty.abandoned == 0,
        f"lost {faulty.lost}, doubled {faulty.double_counted}, "
        f"abandoned {faulty.abandoned}",
    )
    rec.check(
        "goodput matches the fault-free arm record for record",
        faulty.ingested == baseline.ingested
        and faulty.counted == baseline.counted,
        f"{faulty.counted} vs {baseline.counted} records counted",
    )
    rec.check(
        "detection latency stays within the heartbeat bound",
        bool(faulty.detection_latencies)
        and max(faulty.detection_latencies) <= faulty.detection_bound,
        f"worst {max(faulty.detection_latencies, default=0.0):.1f} s "
        f"vs bound {faulty.detection_bound:.1f} s",
    )
    rec.check(
        "recovery is paid in wide-area bytes, not in data",
        faulty.retries > 0 and faulty.wan_bytes > baseline.wan_bytes,
        f"{faulty.retries} retries, "
        f"{(faulty.wan_bytes - baseline.wan_bytes) / KB:.1f} KB extra",
    )
    rec.check(
        "the baseline needed no recovery machinery at all",
        baseline.retries == 0 and baseline.suspicions == 0
        and not baseline.faults,
    )
    report("E11", table, rec.render())
    rec.assert_shape()
