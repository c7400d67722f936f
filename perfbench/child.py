"""One run in a fresh interpreter: a workload (traced or not) or micro-benches.

Started by :mod:`perfbench.runner`, never by hand. Speaks two JSON lines on
standard output: ``{"event": "ready"}`` when set-up is done (the parent stops
its set-up clock on it) and ``{"event": "result", ...}`` at the end.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from perfbench.spec import RESULTS, ROOT


def _say(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def run_workload(name: str, seed: int, trace: bool) -> dict:
    from perfbench import _sut

    workload = _sut.WORKLOADS[name]
    tracer = cap = None
    if trace:
        from perfbench.trace import Tracer

        tracer = Tracer(f"{name}-s{seed}", _sut.layer_of)
        cap = _sut.install(tracer, reference=(name == "stream_keys"))
    state = workload.setup(seed)
    if tracer is not None:
        tracer.reset()  # set-up spans are not the run's
        cap.reset()
    _say("ready")
    start = time.perf_counter()
    workload.run(state)
    run_wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.freeze()
    outcome = workload.finish(state)
    results = outcome.pop("results", None)
    if cap is not None and cap.reference is not None:
        outcome["checks"]["reference_fold"] = cap.reference.check(
            results, outcome["work"] - sum(r.record_count for r in results)
        )
    out = {
        "workload": name,
        "kind": workload.kind,
        "seed": seed,
        "run_wall_s": run_wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work": outcome["work"],
        "operations": outcome["operations"],
        "failed_checks": sorted(k for k, ok in outcome["checks"].items() if not ok),
        "digest": outcome["digest"],
        "config_digest": _sut.config_digest(name),
        "versions": _sut.versions(),
        "latency": outcome["latency"],
        "sim": outcome["sim"],
    }
    if tracer is not None:
        out["layers"] = _sut.layer_metrics(tracer, cap, outcome, run_wall_s)
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{name}.jsonl"
        tracer.write(path, {"workload": name, "seed": seed,
                            "run_wall_s": run_wall_s})
        out["trace_file"] = str(path.relative_to(ROOT))
    return out


def measure(op, unit: str, target_s: float, reps: int) -> float:
    """Median over ``reps`` repetitions, each sized to last ``target_s``."""
    clock = time.perf_counter

    def repetition(calls: int) -> tuple[int, float]:
        start = clock()
        work = 0
        for _ in range(calls):
            work += op()
        return work, clock() - start

    calls = 1
    work, elapsed = repetition(calls)  # also warms caches and lazy set-up
    while elapsed < target_s:
        calls = max(calls + 1, int(calls * min(10.0, 1.2 * target_s / elapsed)))
        work, elapsed = repetition(calls)
    samples = [(work, elapsed)] + [repetition(calls) for _ in range(reps - 1)]
    per_unit = [elapsed / work for work, elapsed in samples]
    if unit == "1/s":
        return statistics.median(1.0 / x for x in per_unit)
    return statistics.median(per_unit) * {"us": 1e6, "ms": 1e3}[unit]


def run_micro(names: list[str], seed: int, target_s: float, reps: int) -> dict:
    from perfbench import _sut

    _say("ready")
    values = {}
    for name in names:
        unit, factory = _sut.MICRO[name]
        values[name] = measure(factory(seed), unit, target_s, reps)
    return {"micro": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload")
    parser.add_argument("--micro", help="comma-separated micro-bench names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--target", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.micro:
        result = run_micro(args.micro.split(","), args.seed, args.target, args.reps)
    else:
        result = run_workload(args.workload, args.seed, bool(args.trace))
    _say("result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
