"""E5 — Environment-aware transfers vs. simple parallel transfers.

Same payloads, same helper-VM count, two strategies: the decision-managed
transfer (which watches node health and achieved throughput, and re-plans
around problems) and the environment-unaware static parallel split. Both
runs experience the *same* mid-transfer degradation: two of the source
site's VMs drop to 20 % capacity partway through. Reproduced shape: the
gain of awareness grows with payload size and site distance, reaching
~20 % for multi-GB transfers between far datacenters.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.baselines import StaticParallel
from repro.core.decision import DecisionConfig
from repro.core.strategy import SageStrategy
from repro.simulation.units import GB, MB
from repro.workloads.synthetic import fresh_engine

SEED = 24005
SIZES = (256 * MB, 1 * GB, 4 * GB)
PAIRS = (("SUS", "NUS"), ("NEU", "NUS"))
N_NODES = 5


def run_one(strategy_name: str, src: str, dst: str, size: float) -> float:
    engine = fresh_engine(
        seed=SEED,
        spec={src: 8, dst: 8},
        learning_phase=180.0,
        decision_config=DecisionConfig(
            replan_interval=15.0, warmup=5.0, allow_multi_dc=False
        ),
    )
    # Injected fault: at 25 % of the naive expected duration, two of the
    # sender VMs degrade badly (same VMs, same time, in both arms).
    thr = engine.monitor.estimated_throughput(src, dst)
    eta = size / (thr * N_NODES)
    victims = engine.deployment.vms(src)[1:3]
    engine.sim.schedule(
        max(5.0, 0.25 * eta), lambda: [vm.degrade(0.2) for vm in victims]
    )
    if strategy_name == "sage":
        strat = SageStrategy(n_nodes=N_NODES, adaptive=True)
    else:
        strat = StaticParallel({"n_nodes": N_NODES, "streams": 4})
    return strat.run(engine, src, dst, size).seconds


def run_grid():
    grid = {}
    for src, dst in PAIRS:
        for size in SIZES:
            grid[(src, dst, size, "sage")] = run_one("sage", src, dst, size)
            grid[(src, dst, size, "naive")] = run_one("naive", src, dst, size)
    return grid


@pytest.mark.benchmark(group="e5")
def test_e5_env_aware_vs_naive(benchmark, report):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    rows = []
    improvements = {}
    for src, dst in PAIRS:
        for size in SIZES:
            sage = grid[(src, dst, size, "sage")]
            naive = grid[(src, dst, size, "naive")]
            imp = (naive - sage) / naive
            improvements[(src, dst, size)] = imp
            rows.append(
                [f"{src}->{dst}", size / MB, naive, sage, 100 * imp]
            )
    table = render_table(
        ["pair", "size MB", "naive (s)", "GEO-SAGE (s)", "gain %"],
        rows,
        title="E5 — environment-aware vs simple parallel (2 senders degraded mid-way)",
        precision=1,
    )

    rec = ExperimentRecord(
        "E5", "Environment-aware wide-area transfers", SEED,
        parameters={"nodes": N_NODES, "fault": "2 senders to 20 %"},
    )
    large_far = improvements[("NEU", "NUS", 4 * GB)]
    rec.check(
        "awareness wins on large transfers between far sites",
        large_far > 0.10,
        f"{large_far:.0%} faster",
    )
    rec.check(
        "gain reaches the ~20 % band on the largest far transfer",
        large_far > 0.15,
        f"{large_far:.0%}",
    )
    rec.check(
        "gain grows with data size (far pair)",
        improvements[("NEU", "NUS", 4 * GB)]
        >= improvements[("NEU", "NUS", 256 * MB)],
    )
    rec.check(
        "never materially slower than the naive strategy",
        all(imp > -0.08 for imp in improvements.values()),
        f"worst {min(improvements.values()):.0%}",
    )
    report("E5", table, rec.render())
    rec.assert_shape()
