"""E7 — Multi-datacenter path transfer strategies.

An application deployed over all six EU/US sites pushes data NEU -> NUS.
Four strategies share the same node budget:

* **DirectLink** — parallel instances on the direct link only;
* **ShortestPath-static** — widest datacenter path chosen once;
* **ShortestPath-dynamic** — widest path re-chosen on fresh monitoring;
* **GEO-SAGE** — the multi-path selector (grow the widest path while the
  marginal node beats the next path's normalised throughput, else open
  that path).

E7a fixes 25 nodes and watches cumulative throughput over a 10-minute
window; E7b fixes the window and sweeps the node count. Reproduced shape:
with few nodes all strategies are close; as nodes grow, single-path
strategies saturate their one link while the multi-path schema keeps
aggregating capacity and wins by a clear margin.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.baselines.shortest_path import (
    StaticShortestPath,
    instances_for_budget,
    materialise_path,
)
from repro.simulation.units import GB, MB
from repro.workloads.synthetic import fresh_engine

SEED = 24007
WINDOW = 600.0
HUGE = 1000 * GB  # never finishes inside the window
SPEC = {"NEU": 14, "WEU": 8, "NUS": 14, "SUS": 8, "EUS": 8, "WUS": 8}


#: The library's widest-path baseline (3 hops, 4 streams per route); the arms
#: reuse its path choice and plan building, and measure a window themselves.
BASELINE = StaticShortestPath()


def _execute(engine, path, nodes):
    plan = materialise_path(
        engine, path, instances_for_budget(path, nodes), BASELINE.streams
    )
    return engine.transfers.execute(plan, HUGE, charge=False)


class DirectLinkArm:
    label = "DirectLink"

    def start(self, engine, nodes):
        self.session = _execute(engine, ["NEU", "NUS"], nodes)

    def delivered(self):
        return self.session.transferred


class StaticPathArm:
    label = "ShortestPath-static"

    def start(self, engine, nodes):
        path = BASELINE.choose_path(engine, "NEU", "NUS")
        self.session = _execute(engine, path, nodes)

    def delivered(self):
        return self.session.transferred


class DynamicPathArm:
    label = "ShortestPath-dynamic"

    def __init__(self, replan_interval=30.0):
        self.replan_interval = replan_interval
        self.sessions = []

    def start(self, engine, nodes):
        self.engine = engine
        self.nodes = nodes
        self._launch(BASELINE.choose_path(engine, "NEU", "NUS"))

    def _launch(self, path):
        self.path = path
        self.sessions.append(_execute(self.engine, path, self.nodes))
        self.engine.sim.schedule(self.replan_interval, self._replan)

    def _replan(self):
        session = self.sessions[-1]
        if session.done:
            return
        fresh = BASELINE.choose_path(self.engine, "NEU", "NUS")
        if fresh != self.path:
            session.cancel()
            self._launch(fresh)
        else:
            self.engine.sim.schedule(self.replan_interval, self._replan)

    def delivered(self):
        return sum(s.transferred for s in self.sessions)


class SageArm:
    label = "GEO-SAGE"

    def start(self, engine, nodes):
        self.engine = engine
        self.mt = engine.decisions.transfer(
            "NEU", "NUS", HUGE, n_nodes=nodes, adaptive=True
        )

    def delivered(self):
        return sum(s.transferred for s in self.mt.sessions)


ARMS = (DirectLinkArm, StaticPathArm, DynamicPathArm, SageArm)


def run_window(arm_cls, nodes, probe_times=()):
    engine = fresh_engine(seed=SEED, spec=SPEC, learning_phase=240.0)
    arm = arm_cls()
    t0 = engine.sim.now
    arm.start(engine, nodes)
    series = []
    for t in probe_times or (WINDOW,):
        engine.run_until(t0 + t)
        series.append(arm.delivered())
    return series


@pytest.mark.benchmark(group="e7")
def test_e7a_throughput_in_time(benchmark, report):
    probe_times = [120.0, 240.0, 360.0, 480.0, 600.0]

    def run():
        return {
            arm.label: run_window(arm, 25, probe_times) for arm in ARMS
        }

    series = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for i, t in enumerate(probe_times):
        rows.append(
            [int(t)] + [series[a.label][i] / (t * MB) for a in ARMS]
        )
    table = render_table(
        ["t (s)"] + [a.label for a in ARMS],
        rows,
        title="E7a — cumulative throughput (MB/s) NEU->NUS, 25 nodes over 6 sites",
    )

    final = {a.label: series[a.label][-1] for a in ARMS}
    rec = ExperimentRecord(
        "E7a", "Multi-DC paths: throughput over a 10-minute window", SEED,
        parameters={"nodes": 25},
    )
    rec.check(
        "the multi-path schema moves the most data",
        final["GEO-SAGE"] >= max(v for k, v in final.items() if k != "GEO-SAGE"),
        f"{final['GEO-SAGE'] / (WINDOW * MB):.1f} MB/s",
    )
    rec.check(
        "clear gain over the single shortest path at the 10-minute mark",
        final["GEO-SAGE"] > 1.15 * final["ShortestPath-static"],
        f"+{final['GEO-SAGE'] / final['ShortestPath-static'] - 1:.0%}",
    )
    rec.check(
        "dynamic path selection at least matches the static choice",
        final["ShortestPath-dynamic"] >= 0.95 * final["ShortestPath-static"],
    )
    rec.check(
        "single-link parallelism saturates (DirectLink is not the winner)",
        final["DirectLink"] < final["GEO-SAGE"],
    )
    report("E7a", table, rec.render())
    rec.assert_shape()


@pytest.mark.benchmark(group="e7")
def test_e7b_throughput_vs_nodes(benchmark, report):
    node_counts = (5, 10, 15, 20, 25, 30)

    def run():
        return {
            arm.label: [run_window(arm, n)[0] for n in node_counts]
            for arm in ARMS
        }

    delivered = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n] + [delivered[a.label][i] / (WINDOW * MB) for a in ARMS]
        for i, n in enumerate(node_counts)
    ]
    table = render_table(
        ["nodes"] + [a.label for a in ARMS],
        rows,
        title="E7b — mean throughput (MB/s) in a fixed 10-minute window",
    )

    rec = ExperimentRecord(
        "E7b", "Multi-DC paths: throughput vs node count", SEED
    )
    small = {a.label: delivered[a.label][0] for a in ARMS}
    big = {a.label: delivered[a.label][-1] for a in ARMS}
    ratio_small = small["GEO-SAGE"] / max(
        v for k, v in small.items() if k != "GEO-SAGE"
    )
    ratio_big = big["GEO-SAGE"] / max(
        v for k, v in big.items() if k != "GEO-SAGE"
    )
    rec.check(
        "at few nodes multi-path brings no advantage (relay instances "
        "cost extra VMs); the crossover appears as nodes grow",
        ratio_small < 1.1 < ratio_big,
        f"SAGE/best-other: {ratio_small:.2f} at 5 nodes, "
        f"{ratio_big:.2f} at 30",
    )
    rec.check(
        "GEO-SAGE wins at 25+ nodes",
        big["GEO-SAGE"] >= 1.15 * max(v for k, v in big.items() if k != "GEO-SAGE"),
        f"+{big['GEO-SAGE'] / max(v for k, v in big.items() if k != 'GEO-SAGE') - 1:.0%}",
    )
    sage_scaling = big["GEO-SAGE"] / small["GEO-SAGE"]
    direct_scaling = big["DirectLink"] / small["DirectLink"]
    rec.check(
        "the multi-path schema scales further with nodes than one link can",
        sage_scaling > direct_scaling,
        f"x{sage_scaling:.1f} vs x{direct_scaling:.1f}",
    )
    report("E7b", table, rec.render())
    rec.assert_shape()
