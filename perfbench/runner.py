"""Runs workloads in child interpreters and turns their results into metrics.

The parent never imports the system: it starts :mod:`perfbench.child`, times
set-up from the outside (spawn -> the child's ``ready`` line, so interpreter
start and ``import repro`` are in it) and aggregates repetitions. Host
metrics are medians over repetitions; sim metrics must be identical in every
repetition of a seed, which is itself one of the correctness checks.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import spec

ROOT = spec.ROOT
BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Micro-bench sizing: the full set follows ISSUE 11 (>= 0.5 s, 5 times);
#: a driver run with ``--trace 1`` has to fit its per-run budget.
MICRO_FULL = (0.5, 5)
MICRO_QUICK = (0.1, 3)
#: Repetitions of a workload in one measurement, whatever ``--seconds`` says.
MAX_REPS = 8


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise ChildFailed(f"system under test not found: {src / 'repro'}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    # One process, one thread: nothing may fan out behind numpy's back.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(*child_args: str) -> tuple[float, dict]:
    """Run one child; returns ``(setup_s, result)``."""
    env = _child_env()
    cmd = [sys.executable, "-m", "perfbench.child", *child_args]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            message = json.loads(line)
            if message.get("event") == "ready" and setup_s is None:
                setup_s = time.perf_counter() - started
            elif message.get("event") == "result":
                result = message
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or result is None or setup_s is None:
        raise ChildFailed(f"{' '.join(cmd)} exited with {code}")
    return setup_s, result


# ----------------------------------------------------------------------
# From one repetition to named metrics
# ----------------------------------------------------------------------
def end_to_end(rep: dict, setup_s: float) -> dict[str, float]:
    """The ISSUE-11 end-to-end metrics one repetition has (others absent)."""
    kind = rep["kind"]
    latency = rep["latency"]
    sim = rep["sim"]
    out = {
        "setup_s": setup_s,
        "run_wall_s": rep["run_wall_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }
    if kind == "transfer":
        out["transfers_per_s"] = rep["work"] / rep["run_wall_s"]
        out["transfer_time_p50_s"] = latency["p50"]
        out["transfer_time_p95_s"] = latency["p95"]
        out["transfer_usd_per_gb"] = sim["transfer_usd_per_gb"]
        out["predict_err_p50"] = sim["predict_err_p50"]
    else:
        out["records_per_s"] = rep["work"] / rep["run_wall_s"]
        out["window_latency_p50_s"] = latency["p50"]
        # p99 needs ten samples beyond it; below 1000 results report p95.
        tail = "p99" if latency["n"] >= 1000 else "p95"
        out["window_latency_p99_s"] = latency[tail]
        out["usd_per_1k_records"] = sim["usd_per_1k_work"]
        out["wan_bytes_per_record"] = sim["wan_bytes_per_work"]
    return out


def contract_values(rep: dict, setup_s: float) -> dict[str, float]:
    """The BENCHMARK.json end-to-end metrics of one repetition."""
    named = end_to_end(rep, setup_s)
    out = {}
    for name, per_kind in spec.CONTRACT.items():
        source = per_kind[rep["kind"]]
        group, _, field = source.partition(".")
        out[name] = rep[group][field] if field else named[source]
    return out


def _is_host(name: str) -> bool:
    if name in spec.E2E_BY_NAME:
        return spec.E2E_BY_NAME[name].kind == "host"
    return not name.startswith("sim_")


def same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=spec.SIM_TOLERANCE, abs_tol=0.0)


def aggregate(per_rep: list[dict[str, float]]) -> tuple[dict, list[str]]:
    """Median/min/max per metric, and the sim metrics that did not repeat."""
    out = {}
    drifted = []
    for name in per_rep[0]:
        values = [rep[name] for rep in per_rep]
        if _is_host(name):
            value = statistics.median(values)
        else:
            value = values[0]
            if not all(same(value, other) for other in values[1:]):
                drifted.append(name)
        out[name] = {"value": value, "min": min(values), "max": max(values),
                     "n": len(values)}
    return out, drifted


# ----------------------------------------------------------------------
# Measuring one workload
# ----------------------------------------------------------------------
def _load_baseline() -> dict | None:
    if not BASELINE.exists():
        return None
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def check_pinned(rep: dict) -> list[str]:
    """Problems against the digests pinned in ``baseline.json``.

    Only the pinned seed can be checked, and only under the numpy that
    produced the pins (its random streams define the inputs).
    """
    baseline = _load_baseline()
    if baseline is None or rep["seed"] != baseline["seed"]:
        return []
    if rep["versions"]["numpy"] != baseline["versions"]["numpy"]:
        print(f"perfbench: pins were made under numpy "
              f"{baseline['versions']['numpy']}; not checked", file=sys.stderr)
        return []
    pinned = baseline["workloads"][rep["workload"]]
    if rep["config_digest"] != pinned["config_digest"]:
        return ["workload parameters changed since the pin: re-pin baseline.json"]
    if rep["digest"] != pinned["sim_digest"]:
        return ["sim digest differs from the one pinned in baseline.json"]
    return []


def measure_workload(
    name: str, seed: int, *, seconds: float | None = None, reps: int | None = None
) -> dict:
    """Untraced repetitions of one workload, aggregated.

    Either ``reps`` repetitions, or as many as it takes for their walls to
    add up to ``seconds`` (at least one, at most :data:`MAX_REPS`).
    """
    runs = []
    while True:
        setup_s, rep = spawn("--workload", name, "--seed", str(seed))
        runs.append((setup_s, rep))
        measured = sum(r["run_wall_s"] for _, r in runs)
        if reps is not None:
            if len(runs) >= reps:
                break
        elif measured >= seconds or len(runs) >= MAX_REPS:
            break
    named, drifted = aggregate([end_to_end(r, s) for s, r in runs])
    contract, _ = aggregate([contract_values(r, s) for s, r in runs])
    first = runs[0][1]
    # A failed check fails that repetition's operations; a sim result that
    # does not repeat, or differs from its pin, fails all of them.
    across = [f"sim metric {m} differs between repetitions" for m in drifted]
    if any(r["digest"] != first["digest"] for _, r in runs):
        across.append("sim digest differs between repetitions")
    across += check_pinned(first)
    attempted = sum(r["operations"] for _, r in runs)
    failed = attempted if across else sum(
        r["operations"] for _, r in runs if r["failed_checks"]
    )
    problems = across + [
        "failed checks: " + ", ".join(r["failed_checks"])
        for _, r in runs if r["failed_checks"]
    ]
    named["failed_share"] = {"value": failed / attempted, "min": 0.0,
                             "max": failed / attempted, "n": len(runs)}
    return {
        "workload": name,
        "seed": seed,
        "kind": first["kind"],
        "reps": len(runs),
        "end_to_end": named,
        "contract": contract,
        "latency_samples": first["latency"]["n"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "sim_digest": first["digest"],
        "config_digest": first["config_digest"],
        "versions": first["versions"],
    }


def trace_workload(name: str, seed: int, untraced_wall_s: float) -> dict:
    """One traced repetition; its layer table plus the tracing overhead."""
    _, rep = spawn("--workload", name, "--seed", str(seed), "--trace", "1")
    layers = rep["layers"]
    layers["trace.overhead_ratio"] = rep["run_wall_s"] / untraced_wall_s
    return {
        "layers": layers,
        "traced_wall_s": rep["run_wall_s"],
        "trace_file": rep["trace_file"],
        "digest": rep["digest"],
        "failed_checks": rep["failed_checks"],
        "operations": rep["operations"],
    }


def run_micro(names: list[str], seed: int, sizing: tuple[float, int]) -> dict:
    target, reps = sizing
    _, result = spawn("--micro", ",".join(names), "--seed", str(seed),
                      "--target", str(target), "--reps", str(reps))
    return result["micro"]


# ----------------------------------------------------------------------
# The driver's contract: one workload, one JSON line
# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    contract = spec.load_contract()
    spec.check_contract(contract)
    if not trace:
        measured = measure_workload(workload, seed, seconds=seconds)
        metrics = {
            m["name"]: {"value": measured["contract"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in contract["end_to_end"]
        }
        correct = not measured["problems"]
        attempted, failed = measured["attempted"], measured["failed"]
        problems = measured["problems"]
    else:
        # The untraced repetition gives the overhead ratio its base and the
        # digest the traced one must reproduce: tracing may slow the
        # simulator down but must not change what it simulates.
        measured = measure_workload(workload, seed, reps=1)
        wall = measured["end_to_end"]["run_wall_s"]["value"]
        traced = trace_workload(workload, seed, wall)
        problems = list(measured["problems"])
        if traced["digest"] != measured["sim_digest"]:
            problems.append("tracing changed the sim digest")
        if traced["failed_checks"]:
            problems.append(
                "traced run failed checks: " + ", ".join(traced["failed_checks"])
            )
        values = dict(traced["layers"])
        micro_names = [m["name"] for m in contract["per_layer"]
                       if m["name"].startswith("micro.")]
        values.update(run_micro(micro_names, seed, MICRO_QUICK))
        metrics = {
            # A layer that lost its boundary has no number; the contract
            # wants one, and trace.missing_boundaries says why it is 0.
            m["name"]: {"value": values.get(m["name"]) or 0.0, "unit": m["unit"]}
            for m in contract["per_layer"]
        }
        correct = not problems
        attempted = measured["attempted"] + traced["operations"]
        failed = attempted if problems else 0
    for problem in problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
