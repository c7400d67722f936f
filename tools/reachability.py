"""Which functions of ``src/repro`` no entry point of the project enters.

The entry points are what a user or the benchmark runs: the examples, the
``sage`` CLI (every subcommand and the flags that switch code paths on),
every perfbench workload traced and untraced plus every micro-bench, and the
experiment benchmarks. Tests are not entry points: a function only a test
calls is what this census is for.

``census`` runs every entry point in its own interpreter with a first-call
hook (a ``sys.settrace`` function that records each code object once called
and traces nothing inside it) and writes the union of the functions entered
to a JSON file. ``check`` compares that set with the allow-list: every
function no entry point enters must be listed there with a one-word reason,
and every listed function must exist and not be entered. A function defined
inside one that is not entered is covered by its enclosing function's entry.
Two definitions of one qualified name in a module (a property's getter and
setter) count as one function.

Usage (Python 3.11 or later: the hook names functions by ``co_qualname``)::

    python tools/reachability.py census   # -> reachability-entered.json
    python tools/reachability.py check    # src/repro vs tools/reachability-allow.txt

``census`` runs one entry point per CPU at a time and exits 1 when one
returns another code than expected; ``check`` exits 1 and names each
disagreement.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
ALLOW = Path(__file__).resolve().parent / "reachability-allow.txt"
ENTERED = ROOT / "reachability-entered.json"

#: Loaded as ``sitecustomize`` by every interpreter the census starts (and by
#: the processes those start, which inherit ``PYTHONPATH``). Each process
#: writes the ``relpath:qualname`` of every code object it entered under the
#: package when it exits, through ``atexit`` or through ``os._exit``, which
#: pool workers leave by and which skips ``atexit``.
HOOK = '''\
import atexit, os, sys, threading, uuid

_out = os.environ.get("REACHABILITY_OUT")
if _out:
    _root = os.environ["REACHABILITY_ROOT"] + os.sep
    _seen = set()
    _add = _seen.add

    def _hook(frame, event, arg):
        _add(frame.f_code)

    def _dump():
        names = sorted({
            os.path.relpath(c.co_filename, _root).replace(os.sep, "/")
            + ":" + c.co_qualname
            for c in list(_seen) if c.co_filename.startswith(_root)
        })
        path = os.path.join(_out, f"{os.getpid()}-{uuid.uuid4().hex}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\\n".join(names))

    _real_exit = os._exit

    def _exit(code):
        _dump()
        _real_exit(code)

    os._exit = _exit
    atexit.register(_dump)
    sys.settrace(_hook)
    threading.settrace(_hook)
'''

_CLI = ["-m", "repro.cli"]
_SMALL = [*_CLI, "--seed", "5", "--deploy", "NEU:3,NUS:3,WEU:2", "--learning", "120"]
_WORKLOADS = ("stream_hot", "stream_keys", "stream_raw", "soak_adversarial",
              "transfer_mix")


def entry_points(work: Path) -> list[tuple[str, list[str], tuple[int, ...]]]:
    """``(name, python argv, accepted return codes)`` for every entry point.

    ``work`` is a scratch directory for the files the runs write."""
    w = str(work)
    runs = []  # longest first, so parallel jobs finish together
    # Every benchmark runs to the end either way; a wall-clock gate
    # (test_obs_overhead's on/off ratio) can fail under the hook's cost.
    runs.append(("pytest benchmarks",
                 ["-m", "pytest", str(work / "benchmarks"), "--benchmark-disable",
                  "-q", "-p", "no:cacheprovider", "--rootdir", w], (0, 1)))
    for name in _WORKLOADS:
        for trace in ("0", "1"):
            runs.append((f"perfbench {name} --trace {trace}",
                         ["-m", "perfbench.child", "--workload", name,
                          "--seed", "7", "--trace", trace], (0,)))
    runs.append(("perfbench micro", ["-m", "perfbench.child", "--micro",
                                     ",".join(_micro_names()), "--seed", "7",
                                     "--target", "0.02", "--reps", "1"], (0,)))
    examples = sorted((ROOT / "examples").glob("*.py"))
    runs += [(f"example {p.stem}", [str(p)], (0,)) for p in examples]
    cli = [
        ["map"],
        ["transfer", "NEU", "NUS", "500MB"],
        ["transfer", "NEU", "NUS", "500MB", "--budget", "0.5"],
        ["transfer", "NEU", "NUS", "500MB", "--deadline", "300"],
        ["transfer", "NEU", "WEU", "200MB", "--nodes", "2"],
        ["plan", "NEU", "NUS", "1GB"],
        ["disseminate", "NEU", "NUS,WEU", "300MB"],
        ["introspect", "--hours", "0.5"],
        ["stream", "--duration", "120", "--policy", "shed"],
        ["stream", "--duration", "120", "--policy", "block"],
        ["stream", "--duration", "120", "--policy", "degrade"],
        ["dashboard", "--duration", "60", "--refresh", "20"],
        ["dashboard", "--duration", "60", "--once"],
    ]
    runs += [(" ".join(a), [*_SMALL, *a], (0,)) for a in cli]
    runs += [
        ("--trace --metrics --flight-record stream",
         [*_SMALL, "--trace", f"{w}/t.jsonl", "--metrics", f"{w}/m.prom",
          "--flight-record", f"{w}/f.jsonl", "stream", "--duration", "120"], (0,)),
        ("stream --workload clicks",  # clicks needs the default deployment
         [*_CLI, "--learning", "120", "stream", "--workload", "clicks",
          "--duration", "120"], (0,)),
        ("chaos", [*_CLI, "chaos"], (0,)),
        ("--trace chaos --no-faults",
         [*_CLI, "--trace", f"{w}/c.jsonl", "chaos", "--no-faults"], (0,)),
        ("overload", [*_CLI, "overload"], (0,)),
        ("overload --policy shed", [*_CLI, "overload", "--policy", "shed"], (0,)),
        ("overload --policy block --no-brownout --no-crash",
         [*_CLI, "overload", "--policy", "block", "--no-brownout", "--no-crash"], (0,)),
        ("audit", [*_CLI, "audit", "--duration", "120",
                   "--jsonl", f"{w}/audit.jsonl"], (0,)),
        ("soak", [*_CLI, "--seed", "7", "soak", "--hours", "0.5", "--digest",
                  "--jsonl", f"{w}/soak.jsonl", "--report-json", f"{w}/soak.json"], (0,)),
        ("soak --failovers", [*_CLI, "soak", "--hours", "0.5", "--failovers", "2"], (0,)),
        # A breached SLO fails the run and dumps the flight ring unasked.
        ("soak breach", [*_CLI, "--seed", "7", "soak", "--hours", "0.5",
                         "--max-latency", "0.001"], (1,)),
        ("serve", [*_CLI, "serve", "--jsonl", f"{w}/serve.jsonl",
                   "--report-json", f"{w}/serve.json"], (0,)),
        ("serve --admission-rate --retry-budget",
         [*_CLI, "serve", "--duration", "300", "--kill-leader-every", "0",
          "--admission-rate", "50", "--retry-budget", "4"], (0,)),
        ("serve --policy degrade", [*_CLI, "serve", "--policy", "degrade"], (0,)),
        ("perf stream", [*_CLI, "--seed", "7", "perf", "stream", "--duration", "60"], (0,)),
        ("perf chaos", [*_CLI, "perf", "chaos"], (0,)),
        ("perf overload", [*_CLI, "perf", "overload"], (0,)),
        ("sweep cold", [*_CLI, "sweep", "--jobs", "2", "--duration", "120",
                        "--generated", "2", "--cache-dir", f"{w}/cache",
                        "--jsonl", f"{w}/sweep.jsonl", "--digest"], (0,)),
        ("sweep warm", [*_CLI, "sweep", "--jobs", "2", "--duration", "120",
                        "--generated", "2", "--cache-dir", f"{w}/cache"], (0,)),
    ]
    return runs


def _micro_names() -> list[str]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in contract["per_layer"]
            if m["name"].startswith("micro.")]


def census() -> int:
    if sys.version_info < (3, 11):
        print("census needs Python 3.11 or later (code objects gained "
              "co_qualname there)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        tmp = Path(tmp)
        hook, entered, work = tmp / "hook", tmp / "entered", tmp / "work"
        for d in (hook, entered, work):
            d.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        # The benchmarks rewrite their committed result tables; run a copy.
        shutil.copytree(ROOT / "benchmarks", work / "benchmarks",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"  # one set iteration order on every host
        env["REACHABILITY_OUT"] = str(entered)
        env["REACHABILITY_ROOT"] = str(PACKAGE.resolve())

        def run(entry):
            name, argv, want = entry
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, *argv], cwd=work, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            wall = time.perf_counter() - start
            print(f"{wall:7.1f}s  rc {proc.returncode}  {name}", flush=True)
            if proc.returncode not in want:
                tail = proc.stdout[-3000:]
                return f"{name}: rc {proc.returncode}, expected {want}\n{tail}"
            return None

        with ThreadPoolExecutor(max_workers=os.cpu_count() or 2) as pool:
            failures = [f for f in pool.map(run, entry_points(work)) if f]
        names = set()
        for path in entered.iterdir():
            names.update(filter(None, path.read_text(encoding="utf-8").split("\n")))
    ENTERED.write_text(json.dumps(sorted(names), indent=0) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


@dataclass(frozen=True)
class Function:
    lines: int
    parent: str | None  # the enclosing function's key, if any


def functions(package: Path) -> dict[str, Function]:
    """Every ``def`` under ``package``, keyed ``relpath:qualname``."""
    found: dict[str, Function] = {}

    def visit(node, rel: str, prefix: str, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{rel}:{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = child.end_lineno - first + 1
                if key in found:
                    lines += found[key].lines
                found[key] = Function(lines, parent)
                visit(child, rel, f"{prefix}{child.name}.<locals>.", key)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.", parent)
            else:
                visit(child, rel, prefix, parent)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), rel, "", None)
    return found


def unentered(funcs: dict[str, Function], entered: set[str]) -> set[str]:
    """Functions not entered whose enclosing function (if any) was."""
    return {k for k, f in funcs.items()
            if k not in entered and (f.parent is None or f.parent in entered)}


def read_allow(path: Path) -> tuple[dict[str, str], list[str]]:
    """``{function: reason}`` from the allow-list, and its malformed lines."""
    allow: dict[str, str] = {}
    bad = []
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] in allow:
            bad.append(f"{path.name}:{n}: want one '<function> <reason>' per function: {line}")
            continue
        allow[fields[0]] = fields[1]
    return allow, bad


def check(package: Path, entered: set[str], allow_path: Path) -> list[str]:
    """Every disagreement between the entered set and the allow-list."""
    funcs = functions(package)
    dead = unentered(funcs, entered)
    allow, problems = read_allow(allow_path)
    for key in sorted(dead - allow.keys()):
        problems.append(f"{key}: entered by no entry point and not on the allow-list")
    for key in sorted(allow.keys() - dead):
        if key not in funcs:
            why = "no such function"
        elif key in entered:
            why = "entered by an entry point"
        else:
            why = "covered by its enclosing function's entry"
        problems.append(f"{key}: on the allow-list but {why}")
    lines = sum(funcs[k].lines for k in dead)
    print(f"{len(dead)} of {len(funcs)} functions ({lines} lines) entered by no "
          f"entry point; {len(allow)} on the allow-list")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="reachability", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("census", help="run every entry point, record what it enters")
    sub.add_parser("check", help="compare the entered set with the allow-list")
    args = parser.parse_args(argv)
    if args.command == "census":
        return census()
    entered = set(json.loads(ENTERED.read_text(encoding="utf-8")))
    problems = check(PACKAGE, entered, ALLOW)
    for problem in problems:
        print(problem)
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
