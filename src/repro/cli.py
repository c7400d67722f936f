"""Command-line interface to the simulated SAGE service.

The Transfer Agent of the real system exposes FTP-like commands next to
its API; this CLI plays that role for the reproduction — every major
capability is drivable from a shell against a freshly provisioned
simulated cloud:

.. code-block:: console

   $ sage map                                  # live link throughput map
   $ sage transfer NEU NUS 2GB --budget 0.30   # managed transfer
   $ sage plan NEU NUS 4GB                     # cost/time curve + knee
   $ sage disseminate NEU WEU,EUS,NUS 500MB    # multicast replication
   $ sage introspect --hours 2                 # delivered-SLA report
   $ sage stream --workload sensors --duration 300
   $ sage --seed 7 chaos --duration 240        # fault-recovery report
   $ sage overload --policy shed               # overload-recovery report
   $ sage audit --jsonl violations.jsonl       # strict SLO/invariant audit
   $ sage --seed 7 soak --hours 48             # generated adversarial soak
   $ sage soak --hours 2 --failovers 5         # leader-failover chaos soak
   $ sage serve --kill-leader-every 420        # resident service + failover

(entry point: ``python -m repro.cli`` or the ``sage`` console script).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from time import perf_counter

from repro.analysis.introspection import introspection_report, streaming_report
from repro.analysis.tables import render_table
from repro.api import default_suite, run_experiment, run_sweep
from repro.config import (
    POLICIES,
    ChaosConfig,
    OverloadConfig,
    ScenarioConfig,
    ServeConfig,
    SoakConfig,
)
from repro.core.dissemination import Disseminator
from repro.flow.policy import FlowConfig
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.dashboard import render_dashboard
from repro.scenarios import SCENARIOS
from repro.simulation.units import GB, KB, MB, TB, format_bytes, format_duration
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import SageShipping
from repro.workloads.clickstream import clickstream_job
from repro.workloads.sensors import sensor_fusion_job
from repro.workloads.synthetic import fresh_engine, standard_deployment

_SIZE_UNITS = {"B": 1.0, "KB": KB, "MB": MB, "GB": GB, "TB": TB}


def parse_size(text: str) -> float:
    """Parse '500MB', '2.5GB', '1024' (bytes) into a byte count."""
    m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+)\s*([KMGT]?B)?\s*", text, re.I)
    if not m:
        raise argparse.ArgumentTypeError(f"cannot parse size {text!r}")
    value = float(m.group(1))
    unit = (m.group(2) or "B").upper()
    return value * _SIZE_UNITS[unit]


def parse_spec(text: str | None) -> dict[str, int]:
    """Parse 'NEU:5,NUS:5' into a deployment spec."""
    if not text:
        return standard_deployment()
    spec: dict[str, int] = {}
    for part in text.split(","):
        try:
            region, count = part.split(":")
            spec[region.strip().upper()] = int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse deployment {text!r}; expected REGION:N,..."
            ) from None
    return spec


def _observer(args):
    """Build (once) the run's observer from the --trace/--metrics/
    --flight-record flags."""
    obs = getattr(args, "_observer", None)
    if obs is None:
        wants = (
            getattr(args, "trace", None)
            or getattr(args, "metrics", None)
            or getattr(args, "flight_record", None)
        )
        obs = Observer() if wants else NULL_OBSERVER
        args._observer = obs
    return obs


def _force_observer(args) -> Observer:
    """Commands that *are* observability (perf, dashboard) always record,
    and scenario commands always fly with the black box armed.

    Even without ``--trace``/``--metrics``/``--flight-record`` the run
    keeps the event log's ring, so a failing (or crashing) scenario
    can dump what broke. The instance is cached on ``args`` — the
    post-mortem dump in :func:`main` must read the very observer the
    engine recorded into; a fresh one would be empty.
    """
    if not _observer(args).enabled:
        args._observer = Observer()
    return args._observer


def _dump_flight(args, rc) -> None:
    """Dump the engine-bound flight ring after a failed/crashed command."""
    obs = getattr(args, "_observer", None)
    if obs is None or not obs.log.ring:
        return
    path = getattr(args, "flight_record", None) or f"flight-{args.command}.jsonl"
    count = obs.export(flight_path=path)["flight"]
    print(
        f"flight: command failed ({rc}); "
        f"dumped last {count} events -> {path}",
        file=sys.stderr,
    )


def _engine(args):
    return fresh_engine(
        seed=args.seed,
        spec=parse_spec(getattr(args, "deploy", None)),
        learning_phase=args.learning,
        observer=_observer(args),
    )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_map(args) -> int:
    engine = _engine(args)
    rows = engine.monitor.link_map.matrix_rows()
    print(render_table(rows[0], rows[1:], title="Inter-datacenter throughput map (MB/s)"))
    return 0


def cmd_transfer(args) -> int:
    engine = _engine(args)
    size = parse_size(args.size)
    before = engine.env.meter.snapshot()
    mt = engine.decisions.transfer(
        args.src.upper(),
        args.dst.upper(),
        size,
        budget_usd=args.budget,
        deadline_s=args.deadline,
        n_nodes=args.nodes,
    )
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    spent = engine.env.meter.snapshot() - before
    print(
        f"transferred {format_bytes(size)} {args.src.upper()}->{args.dst.upper()} "
        f"in {format_duration(mt.elapsed)} "
        f"({size / mt.elapsed / MB:.1f} MB/s), egress ${spent.egress_usd:.3f}, "
        f"replans {mt.replans}"
    )
    print(f"schema: {mt.schema_history[-1]}")
    return 0


def cmd_plan(args) -> int:
    engine = _engine(args)
    size = parse_size(args.size)
    thr = engine.monitor.estimated_throughput(args.src.upper(), args.dst.upper())
    options = engine.decisions.tradeoff.options(size, thr, max_nodes=args.max_nodes)
    knee = engine.decisions.tradeoff.knee(options)
    front = engine.decisions.tradeoff.pareto_front(options)
    rows = [
        [
            o.n_nodes,
            format_duration(o.predicted_time),
            f"${o.usd:.3f}",
            "*" if o in front else "",
            "<- knee" if o is knee else "",
        ]
        for o in options
    ]
    print(
        render_table(
            ["nodes", "time", "cost", "pareto", ""],
            rows,
            title=f"Cost/time options for {format_bytes(size)} "
            f"{args.src.upper()}->{args.dst.upper()} "
            f"(link ≈ {thr / MB:.1f} MB/s)",
        )
    )
    return 0


def cmd_disseminate(args) -> int:
    engine = _engine(args)
    size = parse_size(args.size)
    destinations = [d.strip().upper() for d in args.destinations.split(",")]
    diss = Disseminator(engine, n_nodes_per_edge=args.nodes or 3)
    plan = diss.plan(args.src.upper(), destinations)
    print(f"tree: {plan.describe()} (depth {plan.depth()})")
    report = diss.run(size, plan)
    rows = [
        [dst, format_duration(report.arrival(dst))] for dst in destinations
    ]
    print(render_table(["site", "arrival"], rows, title="Dissemination"))
    print(f"makespan {format_duration(report.makespan)}")
    return 0


def cmd_introspect(args) -> int:
    engine = _engine(args)
    engine.run_until(engine.sim.now + args.hours * 3600.0)
    print(introspection_report(engine.monitor, observer=engine.observer))
    return 0


def _stream_runtime(engine, args) -> GeoStreamRuntime:
    """Build the CLI's standard streaming runtime from --workload flags."""
    if args.workload == "sensors":
        regions = [r for r in engine.deployment.regions() if r != "NUS"][:3]
        job = sensor_fusion_job(site_regions=regions, aggregation_region="NUS")
    else:
        regions = [r for r in engine.deployment.regions() if r != "WUS"][:3]
        job = clickstream_job(site_regions=regions, aggregation_region="WUS")
    if getattr(args, "policy", None):
        job = dataclasses.replace(
            job, flow=FlowConfig(policy=args.policy, max_backlog=args.max_backlog)
        )
    return GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))


def cmd_stream(args) -> int:
    engine = _engine(args)
    runtime = _stream_runtime(engine, args)
    flow = runtime.flow
    runtime.run_for(args.duration)
    stats = runtime.latency_stats()
    print(
        f"{args.workload}: ingested {runtime.records_ingested()} records, "
        f"{len(runtime.results)} global results, "
        f"WAN {format_bytes(runtime.wan_bytes())}"
    )
    print(stats.describe())
    if flow is not None:
        print(streaming_report(runtime))
    return 0


def _write_violations(args, reports) -> int:
    """Write the ``--jsonl`` violation log; returns the violation count."""
    violations = [
        {"scenario": report.scenario, **v}
        for report in reports
        for v in report.audit.get("violations", [])
    ]
    if args.jsonl:
        # Empty file on green — CI uploads it either way, so a missing
        # artifact never aliases a clean run.
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            for v in violations:
                fh.write(json.dumps(v, sort_keys=True) + "\n")
        print(f"violations: {len(violations)} -> {args.jsonl}")
    return len(violations)


def _overrides(args, scenario: str) -> dict:
    """The config fields of ``scenario`` that ``args`` carries: every
    scenario flag's ``dest`` is the field it sets (plus the global seed)."""
    given = vars(args)
    return {
        f.name: given[f.name]
        for f in dataclasses.fields(SCENARIOS[scenario][0])
        if f.name in given
    }


def cmd_scenario(args) -> int:
    """``chaos`` / ``overload`` / ``soak`` / ``serve``: flags → config → report."""
    report = run_experiment(
        args.command, _overrides(args, args.command), observer=_force_observer(args)
    )
    print(report.describe())
    if hasattr(args, "jsonl"):  # soak, serve
        _write_violations(args, [report])
    if getattr(args, "report_json", None):
        with open(args.report_json, "w", encoding="utf-8") as fh:
            fh.write(report.canonical_json() + "\n")
        print(f"report: -> {args.report_json}")
    if getattr(args, "digest", False):
        # Bare digest on its own line: CI greps it to compare runs.
        print(report.digest)
    return 0 if report.clean else 1


def cmd_audit(args) -> int:
    """Run scenarios under the continuous SLO auditor, strictly."""
    obs = _force_observer(args)
    reports = [
        run_experiment(name, {**_overrides(args, name), "strict_slo": True}, observer=obs)
        for name in ("chaos", "overload")
        if args.scenario in (name, "all")
    ]
    for report in reports:
        audit = report.audit
        print(
            f"{report.scenario}: {audit['checks']} checks, "
            f"{audit['violation_count']} violations, "
            f"${report.cost.get('total_usd', 0.0):.4f} total "
            f"({'clean' if report.clean else 'VIOLATED'})"
        )
    violations = _write_violations(args, reports)
    return 0 if all(r.clean for r in reports) and not violations else 1


def cmd_perf(args) -> int:
    """Profile one scenario; print the dashboard."""
    # Coverage is attributed time against the whole command: engine
    # construction and the learning phase are part of what a user waits for.
    wall0 = perf_counter()
    obs = _force_observer(args)
    if args.scenario == "stream":
        engine = _engine(args)
        runtime = _stream_runtime(engine, args)
        runtime.run_for(args.duration)
    else:
        run_experiment(
            args.scenario, {"duration": args.duration}, seed=args.seed, observer=obs
        )
    print(render_dashboard(obs, top=args.top,
                           title=f"SAGE perf — {args.scenario}",
                           wall_seconds=perf_counter() - wall0))
    return 0


def cmd_dashboard(args) -> int:
    """Run a streaming workload, re-rendering the dashboard as it goes."""
    wall0 = perf_counter()
    obs = _force_observer(args)
    engine = _engine(args)
    runtime = _stream_runtime(engine, args)
    title = f"SAGE dashboard — {args.workload}"

    def frame(title: str) -> str:
        return render_dashboard(obs, top=args.top, title=title,
                                wall_seconds=perf_counter() - wall0)

    runtime.start()
    end = engine.sim.now + args.duration
    # Re-painting with ANSI clear only makes sense on a terminal; when
    # piped (tests, logs), frames append as plain text blocks.
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    while engine.sim.now < end:
        engine.run_until(min(end, engine.sim.now + args.refresh))
        if not args.once:
            print(clear + frame(title))
            print()
    runtime.stop()
    engine.run_until(engine.sim.now + runtime.job.finalize_grace + 30.0)
    print(frame(f"{title} (final)"))
    return 0


def cmd_sweep(args) -> int:
    observer = _observer(args)
    report = run_sweep(
        default_suite(duration=args.duration, generated=args.generated),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        root_seed=args.seed,
        observer=observer,
    )
    print(report.describe())
    if args.jsonl:
        path = report.write_jsonl(args.jsonl)
        print(f"wrote shard log to {path}")
    if args.digest:
        # Bare digest on its own line: CI greps it to compare runs.
        print(report.digest())
    return 0 if report.ok else 1


#: ``--help`` text of the flags named after the config field they set, by
#: parser (its ``prog``) then field; type, default and choices are the field's
#: own (:mod:`repro.config`). A field missing here has no help text.
_FIELD_HELP = {
    "sage": {"seed": "experiment seed"},
    "sage audit": {"policy": "overload policy for the overload arm"},
    "sage soak": {
        "hours": "simulated hours to soak (days are fine: 48h of the default profile runs in about two wall minutes)",
        "profile": "generator intensity profile",
        "failovers": "arm the control plane with warm standbys and spread exactly N unplanned leader kills across the middle of the run (0: no control plane)",
        "check_interval": "simulated seconds between invariant checks",
        "phase_hours": "report-phase length in hours (0: auto-split into up to 6 phases)",
    },
    "sage serve": {
        "duration": "simulated seconds to serve",
        "kill_leader_every": "kill the current lease holder every N simulated seconds (0: never); kills stop after 75%% of the run so the tail drains",
        "max_kills": "cap scheduled kills (0: no cap beyond the time window)",
        "policy": "overload policy of the serving pipeline",
        "reconfigure_at": "apply the scripted live reconfiguration at this simulated time (0: none)",
        "admission_rate": "per-site token-bucket admission rate in records/s (0: gate off)",
        "lease_ttl": "leader lease TTL in simulated seconds",
        "retry_budget": "cap concurrent shipping retries across all links (0: off)",
    },
}
_FIELD_TYPES = {"int": int, "float": float, "str": str}
_JSONL_HELP = "write the violation log (JSONL; empty file when clean)"
#: Hand-named flags: option string -> (field it sets, argparse keywords).
#: Left unset, each carries the config class's own default.
_NAMED_FLAGS = {
    "--no-faults": ("inject", {"action": "store_false", "help": "run the identical workload without injecting faults"}),
    "--no-brownout": ("brownout", {"action": "store_const", "const": None, "help": "skip the mid-burst WAN link outage"}),
    "--no-crash": ("crash_at", {"action": "store_const", "const": None, "help": "skip the aggregator crash/restart"}),
    "--no-strict": ("strict_slo", {"action": "store_false", "help": "report SLO violations without failing the command"}),
    "--standbys": ("standby_regions", {"type": lambda text: tuple(text.split(",")), "metavar": "STANDBYS", "help": "comma-separated warm-standby regions in promotion priority order"}),
    "--max-latency": ("slo_max_latency_s", {"type": float, "metavar": "MAX_LATENCY", "help": "per-window end-to-end latency SLO in seconds"}),
    "--max-usd-per-1k": ("slo_max_usd_per_1k", {"type": float, "metavar": "MAX_USD_PER_1K", "help": "cost SLO: attributed $ per 1000 ingested records"}),
}


def _add_field_flags(p, config_cls, *names: str) -> None:
    """One flag per config field, in order: a field name is spelled
    ``--field-name`` and typed by the field; an option string comes from
    :data:`_NAMED_FLAGS`. Either way ``dest`` is the field and the default
    is the config class's."""
    fields, helps = config_cls.__dataclass_fields__, _FIELD_HELP.get(p.prog, {})
    for name in names:
        if name.startswith("--"):
            dest, kwargs = _NAMED_FLAGS[name]
            p.add_argument(name, dest=dest, default=fields[dest].default, **kwargs)
        else:
            f = fields[name]
            p.add_argument(
                "--" + name.replace("_", "-"),
                type=_FIELD_TYPES[f.type],
                default=f.default,
                choices=f.metadata.get("choices"),
                help=helps.get(name),
            )


def _add_audit_flags(p, config_cls) -> None:
    """What a single audited scenario (``soak``, ``serve``) adds: strictness
    switch, SLO bounds, violation log, canonical-report dump."""
    _add_field_flags(p, config_cls, "--no-strict", "--max-latency", "--max-usd-per-1k")
    p.add_argument("--jsonl", metavar="PATH", help=_JSONL_HELP)
    report = config_cls.__name__.removesuffix("Config")
    p.add_argument(
        "--report-json",
        metavar="PATH",
        help=f"write the canonical {report}Report JSON to PATH",
    )


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sage",
        description="Geo-distributed data analysis over a simulated cloud.",
    )
    _add_field_flags(parser, ScenarioConfig, "seed")
    parser.add_argument(
        "--deploy",
        help="deployment spec REGION:N,... (default: standard 40-node)",
    )
    parser.add_argument(
        "--learning",
        type=float,
        default=300.0,
        help="monitoring learning phase in simulated seconds",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write a JSONL span trace of the run to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="write Prometheus-format metrics of the run to PATH",
    )
    parser.add_argument(
        "--flight-record",
        metavar="PATH",
        help="keep a flight-recorder ring of recent events and dump it "
        "as JSONL to PATH at exit (failing commands also dump "
        "automatically when any observer is active)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("map", help="print the live link throughput map")

    p = sub.add_parser("transfer", help="run a managed transfer")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("size", help="e.g. 500MB, 2GB")
    p.add_argument("--budget", type=float, help="budget in USD")
    p.add_argument("--deadline", type=float, help="deadline in seconds")
    p.add_argument("--nodes", type=int, help="fixed node count")

    p = sub.add_parser("plan", help="print the cost/time option curve")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("size")
    p.add_argument("--max-nodes", type=int, default=12)

    p = sub.add_parser("disseminate", help="replicate to several sites")
    p.add_argument("src")
    p.add_argument("destinations", help="comma-separated regions")
    p.add_argument("size")
    p.add_argument("--nodes", type=int, help="nodes per tree edge")

    p = sub.add_parser("introspect", help="delivered-SLA report")
    p.add_argument("--hours", type=float, default=1.0)

    p = sub.add_parser("stream", help="run a streaming workload")
    p.add_argument("--workload", choices=("sensors", "clicks"), default="sensors")
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument(
        "--policy",
        choices=POLICIES,
        help="enable flow control with this overload policy",
    )
    _add_field_flags(p, FlowConfig, "max_backlog")

    p = sub.add_parser(
        "chaos",
        help="run the scripted fault-recovery scenario and print the report",
    )
    _add_field_flags(p, ChaosConfig, "duration", "--no-faults")

    p = sub.add_parser(
        "overload",
        help="run the scripted overload-recovery scenario and print the report",
    )
    _add_field_flags(
        p, OverloadConfig, "policy", "duration", "max_backlog",
        "--no-brownout", "--no-crash",
    )

    p = sub.add_parser(
        "audit",
        help="run scenarios under the continuous SLO auditor "
        "(strict: any violation fails the command)",
    )
    p.add_argument("--scenario", choices=("chaos", "overload", "all"), default="all")
    _add_field_flags(
        p, OverloadConfig, "duration", "policy", "--max-latency", "--max-usd-per-1k"
    )
    p.add_argument("--jsonl", metavar="PATH", help=_JSONL_HELP)

    p = sub.add_parser(
        "soak",
        help="generate a seeded adversarial scenario and soak it for "
        "simulated hours under the continuous SLO auditor",
    )
    _add_field_flags(
        p, SoakConfig, "hours", "profile", "failovers", "check_interval", "phase_hours"
    )
    _add_audit_flags(p, SoakConfig)
    p.add_argument(
        "--digest",
        action="store_true",
        help="print the canonical result digest as the last line",
    )

    p = sub.add_parser(
        "serve",
        help="resident service mode: leader-lease failover, live "
        "reconfiguration, and admission control under audit",
    )
    _add_field_flags(
        p, ServeConfig, "duration", "kill_leader_every", "max_kills", "--standbys",
        "policy", "reconfigure_at", "admission_rate", "lease_ttl", "retry_budget",
    )
    _add_audit_flags(p, ServeConfig)

    p = sub.add_parser(
        "perf",
        help="profile a scenario: hot stages, throughput",
    )
    p.add_argument("scenario", choices=("stream", "chaos", "overload"))
    p.add_argument("--workload", choices=("sensors", "clicks"), default="sensors")
    p.add_argument("--duration", type=float, default=120.0)
    _add_field_flags(p, FlowConfig, "max_backlog")
    p.add_argument("--top", type=int, default=10, help="hot stages shown")

    p = sub.add_parser(
        "dashboard",
        help="live-updating text perf dashboard over a streaming run",
    )
    p.add_argument("--workload", choices=("sensors", "clicks"), default="sensors")
    p.add_argument("--duration", type=float, default=120.0)
    _add_field_flags(p, FlowConfig, "max_backlog")
    p.add_argument(
        "--refresh",
        type=float,
        default=15.0,
        help="virtual seconds between dashboard frames",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print a single final snapshot instead of live frames",
    )
    p.add_argument("--top", type=int, default=10, help="hot stages shown")

    p = sub.add_parser(
        "sweep",
        help="run the scenario suite sharded over a process pool, "
        "with result caching",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (output is bit-identical to "
        "--jobs 1)",
    )
    p.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="content-addressed result cache; warm re-runs execute "
        "zero simulations",
    )
    p.add_argument("--duration", type=float, default=240.0)
    p.add_argument(
        "--generated",
        type=int,
        default=0,
        metavar="N",
        help="append N seeded generator shards (short soaks over "
        "distinct generated scenarios, cycling the profiles)",
    )
    p.add_argument(
        "--jsonl",
        metavar="PATH",
        help="write the per-shard run log (JSONL) to PATH",
    )
    p.add_argument(
        "--digest",
        action="store_true",
        help="print the canonical result digest as the last line",
    )

    return parser


_COMMANDS = {
    "map": cmd_map,
    "transfer": cmd_transfer,
    "plan": cmd_plan,
    "disseminate": cmd_disseminate,
    "introspect": cmd_introspect,
    "stream": cmd_stream,
    "chaos": cmd_scenario,
    "overload": cmd_scenario,
    "audit": cmd_audit,
    "soak": cmd_scenario,
    "serve": cmd_scenario,
    "perf": cmd_perf,
    "dashboard": cmd_dashboard,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    for path in (args.trace, args.metrics, args.flight_record):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            print(f"error: directory does not exist: {path}", file=sys.stderr)
            return 2
    try:
        rc = _COMMANDS[args.command](args)
    except Exception:
        # A crashing command still dumps its black box — the entries
        # recorded up to the exception are exactly what the post-mortem
        # needs, and the observer bound to the engine holds them.
        _dump_flight(args, "exception")
        raise
    obs = getattr(args, "_observer", None)
    if obs is not None and obs.enabled:
        try:
            written = obs.export(
                trace_path=args.trace,
                metrics_path=args.metrics,
                flight_path=args.flight_record,
            )
        except OSError as exc:
            print(f"error: could not write observability output: {exc}",
                  file=sys.stderr)
            return 1
        if args.trace:
            print(f"trace: {written['spans']} spans -> {args.trace}")
        if args.metrics:
            print(f"metrics: {written['series']} series -> {args.metrics}")
        if args.flight_record:
            print(
                f"flight: {written['flight']} events -> {args.flight_record}"
            )
        elif rc != 0:
            # A failing run dumps its black box automatically: the last
            # ring of events is exactly what the post-mortem needs.
            _dump_flight(args, f"rc {rc}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
