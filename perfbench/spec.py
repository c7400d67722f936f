"""What the benchmark measures: workloads, metrics, units, bounds.

No system imports here. ``BENCHMARK.json`` at the repository root states the
same workloads and contract metrics for the driver; :func:`check_contract`
refuses to run when the two disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Written by runs, ignored by git: latest.json, trace-<workload>.jsonl.
RESULTS = Path(__file__).resolve().parent / "results"
DEFAULT_SEED = 7

#: name -> the one-line reason the workload exists (README has the long form).
WORKLOADS: dict[str, str] = {
    "stream_hot": (
        "3 sites x 2000 sensors, 3 keys, 30 s windows, no checkpoints: sources "
        "and the window fold do the work, batching/shipping/merge almost none"
    ),
    "stream_keys": (
        "64 keys per site with 15 s checkpoints: per-(window,key) groups, "
        "partials, merge and history-sized checkpoints dominate"
    ),
    "stream_raw": (
        "raw-record shipping: every record is re-objectified, batched, shipped "
        "and folded at the global site; the network carries real volume"
    ),
    "soak_adversarial": (
        "generated low-rate sources, faults and 3 leader kills: per-tick Python "
        "overhead, control plane, restore and auditor, numpy barely matters"
    ),
    "transfer_mix": (
        "waves of 12 concurrent managed transfers, no streaming at all: fluid "
        "network, path selection, decision, monitor and transfer sessions"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # "host": wall clock of the simulator; "sim": the modelled cloud
    better: str  # "lower" | "higher"
    #: Host metrics: share of the median by which a later change may be
    #: worse. Sim metrics repeat exactly for a fixed seed; ``None`` = exact.
    bound: float | None


#: The 14 end-to-end metrics of ISSUE 11, printed by ``python -m perfbench``.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("run_wall_s", "s", "host", "lower", 0.20),
    Metric("records_per_s", "1/s", "host", "higher", 0.20),
    Metric("transfers_per_s", "1/s", "host", "higher", 0.20),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10),
    Metric("window_latency_p50_s", "s", "sim", "lower", None),
    Metric("window_latency_p99_s", "s", "sim", "lower", None),
    Metric("usd_per_1k_records", "USD", "sim", "lower", None),
    Metric("wan_bytes_per_record", "B", "sim", "lower", None),
    Metric("transfer_time_p50_s", "s", "sim", "lower", None),
    Metric("transfer_time_p95_s", "s", "sim", "lower", None),
    Metric("transfer_usd_per_gb", "USD/GB", "sim", "lower", None),
    Metric("predict_err_p50", "ratio", "sim", "lower", None),
    Metric("failed_share", "ratio", "sim", "lower", None),
)
E2E_BY_NAME = {m.name: m for m in END_TO_END}

#: Relative difference below which two sim values count as identical.
SIM_TOLERANCE = 1e-9

_ALL = ("stream", "soak", "transfer")  # the kinds of workload

#: The driver's contract wants every end-to-end metric on every workload,
#: never zero, and no time that reads the same on every run. So
#: ``BENCHMARK.json`` carries the metrics above by role: one name for "work
#: per second" whether the work is records or transfers, and so on. Each
#: entry maps a contract name to the end-to-end value it reports per kind of
#: workload; "latency.mean" is the mean window latency or transfer time. (The
#: soak's latency percentiles are pinned by constants, its finalize grace
#: and failover timeout, and read the same for every seed; the mean moves.)
CONTRACT: dict[str, dict[str, str]] = {
    "setup_s": dict.fromkeys(_ALL, "setup_s"),
    "run_wall_s": dict.fromkeys(_ALL, "run_wall_s"),
    "work_per_s": {
        "stream": "records_per_s", "soak": "records_per_s",
        "transfer": "transfers_per_s",
    },
    "peak_rss_mb": dict.fromkeys(_ALL, "peak_rss_mb"),
    "sim_latency_mean_s": dict.fromkeys(_ALL, "latency.mean"),
    "sim_usd_per_1k_work": dict.fromkeys(_ALL, "sim.usd_per_1k_work"),
    "sim_wan_bytes_per_work": dict.fromkeys(_ALL, "sim.wan_bytes_per_work"),
}


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_contract(contract: dict) -> None:
    """``BENCHMARK.json`` and this module must name the same things."""
    problems = []
    if [w["name"] for w in contract["workloads"]] != list(WORKLOADS):
        problems.append("workloads differ")
    if [m["name"] for m in contract["end_to_end"]] != list(CONTRACT):
        problems.append("end_to_end metrics differ")
    if problems:
        raise SystemExit(
            "BENCHMARK.json disagrees with perfbench/spec.py: "
            + "; ".join(problems)
        )
