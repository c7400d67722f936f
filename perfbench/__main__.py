"""``python -m perfbench``: the whole benchmark, or one piece of it.

* no arguments: every workload (untraced repetitions, then one traced run)
  and every micro-bench; prints each metric by name with its unit and writes
  ``perfbench/results/latest.json``;
* ``--workload`` / ``--micro`` / ``--seed`` / ``--reps``: a part of that;
* ``--check-repeat``: two sets of untraced runs back to back, exit 1 unless
  every sim metric and digest is identical and every host median repeats
  within its bound;
* ``--workload W --seed N --seconds S --trace 0|1``: the driver's contract
  (``BENCHMARK.json``): one workload, one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from perfbench import runner, spec


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_end_to_end(measured: dict) -> None:
    print(f"\n== {measured['workload']} (seed {measured['seed']}, "
          f"{measured['reps']} untraced repetitions) ==")
    for metric in spec.END_TO_END:
        stat = measured["end_to_end"].get(metric.name)
        if stat is None:
            print(f"  {metric.name:24s} {'n/a':>14s}")
            continue
        bound = "exact" if metric.bound is None else f"{metric.bound:.0%}"
        note = ""
        if metric.name == "window_latency_p99_s":
            n = measured["latency_samples"]
            note = f"  ({'p99' if n >= 1000 else 'p95'} of {n} results)"
        elif metric.name.startswith("transfer_time"):
            note = f"  ({measured['latency_samples']} transfers)"
        print(f"  {metric.name:24s} {_fmt(stat['value']):>14s} {metric.unit:7s}"
              f" {metric.kind:4s} [{_fmt(stat['min'])} .. {_fmt(stat['max'])}]"
              f" bound {bound}{note}")
    for problem in measured["problems"]:
        print(f"  FAILED: {problem}")


def _layer_units() -> dict[str, str]:
    """Units of the per-layer metrics, as ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in spec.load_contract()["per_layer"]}


def _print_layers(name: str, traced: dict) -> None:
    print(f"\n-- {name}: per-layer table (traced run, "
          f"{traced['traced_wall_s']:.2f} s wall) --")
    wall = traced["traced_wall_s"]
    units = _layer_units()
    for key, value in traced["layers"].items():
        share = ""
        if key.endswith("self_s") and isinstance(value, float):
            share = f"  {value / wall:6.1%} of traced wall"
        print(f"  {key:44s} {_fmt(value):>14s} {units.get(key, ''):6s}{share}")
    print(f"  spans: {traced['trace_file']}")


def full_set(workloads, micro_names, seed, reps, trace=True) -> dict:
    out = {"seed": seed, "workloads": {}, "micro": {}}
    for name in workloads:
        measured = runner.measure_workload(name, seed, reps=reps)
        _print_end_to_end(measured)
        if trace:
            wall = measured["end_to_end"]["run_wall_s"]["value"]
            traced = runner.trace_workload(name, seed, wall)
            if traced["digest"] != measured["sim_digest"]:
                measured["problems"].append("tracing changed the sim digest")
            _print_layers(name, traced)
            measured["per_layer"] = traced["layers"]
        out["workloads"][name] = measured
        out["versions"] = measured["versions"]
    if micro_names:
        out["micro"] = runner.run_micro(micro_names, seed, runner.MICRO_FULL)
        print("\n== isolated micro-benches (median of 5) ==")
        units = _layer_units()
        for name, value in out["micro"].items():
            print(f"  {name:56s} {_fmt(value):>12s} {units[name]}")
    return out


def check_repeat(workloads, seed, reps) -> int:
    """Two sets back to back; prints observed spread next to each bound."""
    sets = [full_set(workloads, [], seed, reps, trace=False) for _ in range(2)]
    print("\n== repeatability: set 1 vs set 2 ==")
    bad = 0
    for name in workloads:
        first, second = (s["workloads"][name] for s in sets)
        if first["sim_digest"] != second["sim_digest"]:
            print(f"  {name}: sim digest differs between sets  FAILED")
            bad += 1
        for metric in spec.END_TO_END:
            a = first["end_to_end"].get(metric.name)
            b = second["end_to_end"].get(metric.name)
            if a is None:
                continue
            if metric.kind == "sim":
                ok = runner.same(a["value"], b["value"])
                verdict = "identical" if ok else "DIFFERS"
                print(f"  {name:17s} {metric.name:22s} sim  {verdict}")
            else:
                base = a["value"]
                drift = abs(b["value"] - base) / base
                spread = max(
                    (s["max"] - s["min"]) / s["value"] for s in (a, b)
                )
                ok = drift < metric.bound
                print(f"  {name:17s} {metric.name:22s} host medians differ "
                      f"{drift:6.2%}, spread within a set {spread:6.2%}, "
                      f"bound {metric.bound:.0%}  {'ok' if ok else 'FAILED'}")
            bad += not ok
        bad += len(first["problems"]) + len(second["problems"])
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument("--micro", action="append", metavar="NAME",
                        help="run only this micro-bench (repeatable)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--reps", type=int, default=3,
                        help="untraced repetitions per workload (default 3)")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--seconds", type=float,
                        help="driver contract: measure for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seconds is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--seconds needs exactly one --workload")
            return runner.contract_run(
                args.workload[0], args.seed, args.seconds, bool(args.trace)
            )
        workloads = args.workload or ([] if args.micro else list(spec.WORKLOADS))
        if args.check_repeat:
            return check_repeat(workloads, args.seed, args.reps)
        micro = args.micro or (
            [] if args.workload
            else [n for n in _layer_units() if n.startswith("micro.")]
        )
        out = full_set(workloads, micro, args.seed, args.reps)
    except runner.ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out["nproc"] = os.cpu_count()
    out["metrics"] = [dataclasses.asdict(m) for m in spec.END_TO_END]
    spec.RESULTS.mkdir(exist_ok=True)
    path = spec.RESULTS / "latest.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True), encoding="utf-8")
    failed = [n for n, w in out["workloads"].items() if w["problems"]]
    # This benchmark measures; it claims nothing.
    summary = {"results": str(path.relative_to(spec.ROOT)), "failed": failed,
               "claim": None}
    print("\n" + json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
