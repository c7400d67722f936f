"""E6 — Comparing against the existing transfer options.

Size sweep NEU -> NUS across the data-movement options a 2013 cloud user
actually had: staging through the cloud object store (the only native
offering), a plain endpoint-to-endpoint copy, a Globus-Online-style tuned
transfer, and the environment-aware system. Reproduced shape: blob
staging is the slowest by a multiple (two passes over the data, per-op
ceilings, HTTP); the tuned grid-era tool sits in between; the managed
system wins, with the margin growing with size.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.baselines import BlobRelay, EndPoint2EndPoint, GridFtpLike
from repro.core.strategy import SageStrategy
from repro.simulation.units import GB, MB
from repro.workloads.synthetic import fresh_engine

SEED = 24006
SIZES = (64 * MB, 256 * MB, 1 * GB, 2 * GB)
STRATEGIES = (
    ("AzureBlobs", lambda: BlobRelay()),
    ("EndPoint2EndPoint", lambda: EndPoint2EndPoint({"streams": 4})),
    ("GlobusOnline-like", lambda: GridFtpLike()),
    ("GEO-SAGE", lambda: SageStrategy(n_nodes=10)),
)


def run_grid():
    grid = {}
    for size in SIZES:
        for name, make in STRATEGIES:
            engine = fresh_engine(seed=SEED, learning_phase=180.0)
            grid[(size, name)] = make().run(engine, "NEU", "NUS", size).seconds
    return grid


@pytest.mark.benchmark(group="e6")
def test_e6_vs_existing_solutions(benchmark, report):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = [
        [size / MB] + [grid[(size, name)] for name, _ in STRATEGIES]
        for size in SIZES
    ]
    table = render_table(
        ["size MB"] + [name for name, _ in STRATEGIES],
        rows,
        title="E6 — transfer time (s) NEU->NUS by solution",
        precision=1,
    )

    rec = ExperimentRecord("E6", "Comparison with existing solutions", SEED)
    largest = SIZES[-1]
    sage = grid[(largest, "GEO-SAGE")]
    rec.check(
        "GEO-SAGE is the fastest option at every size above 64 MB",
        all(
            grid[(s, "GEO-SAGE")] <= min(grid[(s, n)] for n, _ in STRATEGIES[:-1])
            for s in SIZES[1:]
        ),
    )
    rec.check(
        "blob staging is slowest by a multiple",
        grid[(largest, "AzureBlobs")] > 2.0 * sage,
        f"{grid[(largest, 'AzureBlobs')] / sage:.1f}x slower than GEO-SAGE",
    )
    rec.check(
        "large gain over the plain endpoint-to-endpoint copy",
        grid[(largest, "EndPoint2EndPoint")] > 3.0 * sage,
        f"{grid[(largest, 'EndPoint2EndPoint')] / sage:.1f}x",
    )
    rec.check(
        "meaningful gain over the tuned grid-era tool",
        grid[(largest, "GlobusOnline-like")] > 1.05 * sage,
        f"{grid[(largest, 'GlobusOnline-like')] / sage:.2f}x",
    )
    margin_small = grid[(SIZES[0], "AzureBlobs")] / grid[(SIZES[0], "GEO-SAGE")]
    margin_large = grid[(largest, "AzureBlobs")] / sage
    rec.check(
        "blob staging is penalised at every size (fixed HTTP/staging "
        "overheads dominate small payloads; per-op ceilings large ones)",
        margin_small > 2.5 and margin_large > 2.5,
        f"{margin_small:.1f}x at {SIZES[0] / MB:.0f} MB, "
        f"{margin_large:.1f}x at {largest / MB:.0f} MB",
    )
    rec.note(
        "the testbed's reported ~5x over the default cloud offering falls "
        "between the two margins measured here"
    )
    report("E6", table, rec.render())
    rec.assert_shape()
