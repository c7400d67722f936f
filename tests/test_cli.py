"""Tests for the command-line interface."""

import argparse
import dataclasses
import json

import pytest

from repro.cli import build_parser, main, parse_size, parse_spec
from repro.simulation.units import GB, KB, MB


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "text,expected",
    [
        ("1024", 1024.0),
        ("500MB", 500 * MB),
        ("2.5GB", 2.5 * GB),
        ("16kb", 16 * KB),
        (" 1 GB ", GB),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


@pytest.mark.parametrize("bad", ["", "GB", "12XB", "two GB"])
def test_parse_size_rejects(bad):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_size(bad)


def test_parse_spec():
    assert parse_spec("NEU:5,nus:3") == {"NEU": 5, "NUS": 3}
    assert sum(parse_spec(None).values()) == 40  # standard deployment
    with pytest.raises(argparse.ArgumentTypeError):
        parse_spec("NEU=5")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# ----------------------------------------------------------------------
# Commands (small deployments, short learning, to stay fast)
# ----------------------------------------------------------------------
FAST = ["--seed", "5", "--deploy", "NEU:3,NUS:3,WEU:2", "--learning", "120"]


def test_cmd_map(capsys):
    assert main(FAST + ["map"]) == 0
    out = capsys.readouterr().out
    assert "throughput map" in out
    assert "NEU" in out and "NUS" in out


def test_cmd_transfer(capsys):
    assert main(FAST + ["transfer", "NEU", "NUS", "200MB", "--nodes", "3"]) == 0
    out = capsys.readouterr().out
    assert "transferred 200.00 MB" in out
    assert "schema:" in out


def test_cmd_transfer_with_budget(capsys):
    assert main(FAST + ["transfer", "NEU", "NUS", "200MB", "--budget", "0.1"]) == 0
    assert "egress $" in capsys.readouterr().out


def test_cmd_plan(capsys):
    assert main(FAST + ["plan", "NEU", "NUS", "1GB", "--max-nodes", "6"]) == 0
    out = capsys.readouterr().out
    assert "knee" in out
    assert "pareto" in out


def test_cmd_disseminate(capsys):
    assert main(FAST + ["disseminate", "NEU", "NUS,WEU", "100MB"]) == 0
    out = capsys.readouterr().out
    assert "tree:" in out
    assert "makespan" in out


def test_cmd_introspect(capsys):
    assert main(FAST + ["introspect", "--hours", "0.5"]) == 0
    assert "Introspection-as-a-Service" in capsys.readouterr().out


def test_cmd_stream(capsys):
    assert main(FAST + ["stream", "--workload", "sensors", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "ingested" in out
    assert "latency p50" in out


def test_cmd_chaos_renders_scenario_report(capsys):
    assert main(["--seed", "5", "chaos", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "scenario chaos: seed=5" in out
    assert "verdict" in out


def test_cmd_overload_renders_scenario_report(capsys):
    assert (
        main(["--seed", "5", "overload", "--duration", "60", "--no-crash"])
        == 0
    )
    out = capsys.readouterr().out
    assert "scenario overload: seed=5" in out
    assert "verdict" in out


def test_cmd_serve_with_a_gate_above_the_load_counts_every_record(tmp_path):
    report = tmp_path / "serve.json"
    argv = [
        "serve", "--duration", "300", "--kill-leader-every", "0",
        "--admission-rate", "1000000", "--report-json", str(report),
    ]
    assert main(argv) == 0
    result = json.loads(report.read_text())["result"]
    assert result["admission_rejected"] == 0
    assert result["counted"] == result["ingested"] > 0
    assert result["results"] > 0


def test_cmd_sweep_warm_cache_and_digest(tmp_path, capsys):
    args = [
        "sweep", "--jobs", "2", "--duration", "60",
        "--cache-dir", str(tmp_path / "cache"), "--digest",
        "--jsonl", str(tmp_path / "sweep.jsonl"),
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "5 simulated" in cold
    assert (tmp_path / "sweep.jsonl").exists()

    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "5 hits / 0 misses (100% hit ratio), 0 simulated" in warm
    # The bare digest on the last line is the CI comparison anchor.
    assert cold.strip().splitlines()[-1] == warm.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# Observability flags
# ----------------------------------------------------------------------
def test_cmd_transfer_trace_writes_valid_jsonl(tmp_path, capsys):
    import json

    trace = tmp_path / "transfer.jsonl"
    assert (
        main(
            FAST
            + ["--trace", str(trace), "transfer", "NEU", "NUS", "100MB",
               "--nodes", "2"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"-> {trace}" in out
    lines = trace.read_text().strip().splitlines()
    assert lines
    spans = [json.loads(line) for line in lines]
    for span in spans:
        assert span.keys() == {"t", "kind", "name", "start", "end", "attrs"}
        assert span["kind"] == "span" and span["end"] >= span["start"]
    assert any(s["name"] == "transfer.managed" for s in spans)


def test_cmd_stream_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "stream.jsonl"
    prom = tmp_path / "stream.prom"
    assert (
        main(
            FAST
            + ["--trace", str(trace), "--metrics", str(prom),
               "stream", "--workload", "sensors", "--duration", "60"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace:" in out and "metrics:" in out
    text = prom.read_text()
    assert "# TYPE sim_events_total counter" in text
    assert "stream_window_latency_seconds" in text
    assert trace.read_text().strip()


def test_cmd_introspect_with_metrics_folds_registry(tmp_path, capsys):
    prom = tmp_path / "i.prom"
    assert (
        main(FAST + ["--metrics", str(prom), "introspect", "--hours", "0.5"])
        == 0
    )
    out = capsys.readouterr().out
    assert "Introspection-as-a-Service" in out
    assert "Run metrics" in out
    assert "monitor_samples_total" in prom.read_text()


def test_cmd_sweep_table_has_per_shard_wall_and_cache_columns(
    tmp_path, capsys
):
    args = [
        "sweep", "--duration", "60", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    for column in ("shard", "cached", "wall (s)", "speedup", "status"):
        assert column in cold
    cold_rows = [li for li in cold.splitlines() if "chaos-inject" in li]
    assert len(cold_rows) == 1
    cells = [c.strip() for c in cold_rows[0].split("|")]
    # shard | scenario | seed | cached | wall (s) | speedup | status
    assert cells[1] == "chaos"
    assert cells[3] == "no"  # cold run: simulated, not served from cache
    assert float(cells[4]) > 0.0  # per-shard wall time is real
    assert cells[5].endswith("x")  # sim speedup from the shard's perf
    assert cells[6] == "ok"

    assert main(args) == 0
    warm = capsys.readouterr().out
    warm_rows = [li for li in warm.splitlines() if "chaos-inject" in li]
    cells = [c.strip() for c in warm_rows[0].split("|")]
    assert cells[3] == "yes"  # served from the cache this time


# ----------------------------------------------------------------------
# Profiling / flight recorder
# ----------------------------------------------------------------------
def test_cmd_perf_renders_dashboard_with_measured_coverage(capsys):
    import re

    assert main(FAST + ["perf", "stream", "--duration", "60"]) == 0
    out = capsys.readouterr().out
    assert "Hot stages (exclusive wall time)" in out
    assert "Throughput" in out
    # Coverage is against the command's own wall, so never the
    # by-construction 100 % of the profiler's own window.
    coverage = int(re.search(r"attribution coverage (\d+)%", out).group(1))
    assert 80 <= coverage < 100
    stages = set(re.findall(r"^\s*([a-z.A-Z]+) \|\s+\d+ \|", out, re.M))
    assert {"streaming.sources", "streaming.runtime", "cloud.network"} <= stages
    assert "sim.loop" in stages and not any("dispatch" in s for s in stages)


def test_cmd_dashboard_once_prints_single_frame(capsys):
    assert (
        main(FAST + ["dashboard", "--duration", "60", "--once"]) == 0
    )
    out = capsys.readouterr().out
    assert out.count("SAGE dashboard") == 1
    assert "Hot stages" in out


def test_cmd_chaos_flight_record_dumps_recent_events(tmp_path, capsys):
    from repro.obs import read_jsonl

    flight, trace = tmp_path / "chaos.jsonl", tmp_path / "trace.jsonl"
    assert main(["--seed", "5", "--flight-record", str(flight),
                 "--trace", str(trace), "chaos"]) == 0
    out = capsys.readouterr().out
    assert f"-> {flight}" in out and f"-> {trace}" in out
    # One writer, one reader: both files are the same entry shape.
    spans = read_jsonl(str(trace))
    assert spans and {s["kind"] for s in spans} == {"span"}
    entries = read_jsonl(str(flight))
    # The acceptance bar: a chaos run's dump replays >= 1000 events.
    assert len(entries) >= 1000
    kinds = {e["kind"] for e in entries}
    assert "event" in kinds and "fault" in kinds
    for e in entries:
        assert "t" in e and "kind" in e
    # Entries arrive in virtual-time order (the ring preserves occurrence
    # order and the clock is monotone).
    times = [e["t"] for e in entries]
    assert times == sorted(times)


def test_failing_command_auto_dumps_flight_ring(tmp_path, capsys, monkeypatch):
    from repro import cli
    from repro.obs import read_jsonl

    def failing_chaos(args):
        obs = cli._force_observer(args)
        for i in range(5):
            obs.log.record("event", seq=i)
        return 1

    monkeypatch.setitem(cli._COMMANDS, "chaos", failing_chaos)
    monkeypatch.chdir(tmp_path)
    assert main(["--seed", "5", "chaos"]) == 1
    err = capsys.readouterr().err
    assert "dumped last 5 events" in err
    entries = read_jsonl(str(tmp_path / "flight-chaos.jsonl"))
    assert [e["seq"] for e in entries] == list(range(5))

def test_exception_in_command_still_dumps_flight_ring(
    tmp_path, capsys, monkeypatch
):
    from repro import cli
    from repro.obs import read_jsonl

    def crashing_chaos(args):
        obs = cli._force_observer(args)
        obs.log.record("event", seq=0)
        raise RuntimeError("boom mid-scenario")

    monkeypatch.setitem(cli._COMMANDS, "chaos", crashing_chaos)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(RuntimeError, match="boom"):
        main(["--seed", "5", "chaos"])
    err = capsys.readouterr().err
    assert "dumped last 1 events" in err
    entries = read_jsonl(str(tmp_path / "flight-chaos.jsonl"))
    assert entries[0]["seq"] == 0


def test_cmd_audit_green_writes_empty_violations_jsonl(tmp_path, capsys):
    jsonl = tmp_path / "violations.jsonl"
    assert (
        main(
            ["--seed", "5", "audit", "--scenario", "chaos",
             "--duration", "120", "--jsonl", str(jsonl)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "chaos:" in out and "0 violations" in out and "clean" in out
    assert f"violations: 0 -> {jsonl}" in out
    # Empty file on green: the CI artifact exists either way.
    assert jsonl.exists() and jsonl.read_text() == ""


def test_cmd_audit_flags_injected_slo_breach(tmp_path, capsys):
    import json

    jsonl = tmp_path / "violations.jsonl"
    rc = main(
        ["--seed", "5", "audit", "--scenario", "chaos", "--duration", "120",
         "--max-latency", "0.001", "--jsonl", str(jsonl)]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out
    rows = [
        json.loads(line) for line in jsonl.read_text().splitlines()
    ]
    assert rows
    assert all(r["scenario"] == "chaos" for r in rows)
    assert {r["kind"] for r in rows} == {"latency_slo"}


def test_cmd_audit_runs_both_scenarios(capsys):
    assert main(["--seed", "5", "audit", "--duration", "120"]) == 0
    out = capsys.readouterr().out
    # One summary line per audited scenario.
    assert "chaos" in out and "overload" in out


# ----------------------------------------------------------------------
# sage soak
# ----------------------------------------------------------------------
def test_cmd_soak_green_writes_all_artifacts(tmp_path, capsys):
    import json

    jsonl = tmp_path / "soak-violations.jsonl"
    report_json = tmp_path / "soak-report.json"
    rc = main(
        ["--seed", "11", "soak", "--hours", "0.1", "--profile", "calm",
         "--jsonl", str(jsonl), "--report-json", str(report_json),
         "--digest"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "soak run: profile=calm seed=11" in out
    assert "CLEAN" in out
    assert f"violations: 0 -> {jsonl}" in out
    # Empty file on green: the CI artifact exists either way.
    assert jsonl.exists() and jsonl.read_text() == ""
    payload = json.loads(report_json.read_text())
    assert payload["scenario"] == "soak"
    assert payload["result"]["slo_violations"] == 0
    # The bare digest on the last line is the CI comparison anchor.
    digest = out.strip().splitlines()[-1]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_cmd_soak_breach_fails_and_logs(tmp_path, capsys):
    import json

    jsonl = tmp_path / "soak-violations.jsonl"
    rc = main(
        ["--seed", "11", "soak", "--hours", "0.1", "--profile", "calm",
         "--max-latency", "0.001", "--jsonl", str(jsonl)]
    )
    assert rc == 1
    assert "VIOLATED" in capsys.readouterr().out
    rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert rows
    assert all(r["scenario"] == "soak" for r in rows)
    assert {r["kind"] for r in rows} == {"latency_slo"}
    # The same breach without strict gating reports but passes.
    assert main(
        ["--seed", "11", "soak", "--hours", "0.1", "--profile", "calm",
         "--max-latency", "0.001", "--no-strict"]
    ) == 0


def test_cmd_sweep_generated_shards(tmp_path, capsys):
    args = [
        "sweep", "--jobs", "2", "--duration", "60", "--generated", "2",
        "--cache-dir", str(tmp_path / "cache"), "--digest",
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "soak-gen-000" in cold and "soak-gen-001" in cold
    assert "7 simulated" in cold
    # Warm re-run: generated shards cache like any other shard.
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "7 hits / 0 misses (100% hit ratio), 0 simulated" in warm
    assert cold.strip().splitlines()[-1] == warm.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# The scenario flags are the config fields
# ----------------------------------------------------------------------
#: Option strings per subcommand, recorded from ``--help`` before the
#: flags were read off the config classes; ``-h`` omitted.
OPTION_STRINGS = {
    "chaos": "--duration --no-faults",
    "overload": "--policy --duration --max-backlog --no-brownout --no-crash",
    "audit": "--scenario --duration --policy --max-latency --max-usd-per-1k --jsonl",
    "soak": "--hours --profile --failovers --check-interval --phase-hours "
    "--no-strict --max-latency --max-usd-per-1k --jsonl --report-json --digest",
    "serve": "--duration --kill-leader-every --max-kills --standbys --policy "
    "--reconfigure-at --admission-rate --lease-ttl --retry-budget --no-strict "
    "--max-latency --max-usd-per-1k --jsonl --report-json",
    "stream": "--workload --duration --policy --max-backlog",
    "perf": "--workload --duration --max-backlog --top",
    "dashboard": "--workload --duration --max-backlog --refresh --once --top",
    "sweep": "--jobs --cache-dir --duration --generated --jsonl --digest",
}


def _subparsers():
    (action,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


@pytest.mark.parametrize("command", list(OPTION_STRINGS))
def test_subcommand_option_strings_are_frozen(command):
    options = [
        s for a in _subparsers()[command]._actions for s in a.option_strings
    ]
    assert options[2:] == OPTION_STRINGS[command].split()  # after -h, --help


@pytest.mark.parametrize("command", ["chaos", "overload", "soak", "serve", "audit"])
def test_scenario_flags_default_to_the_config_class(command):
    from repro.config import OverloadConfig
    from repro.scenarios import SCENARIOS

    cls = SCENARIOS[command][0] if command != "audit" else OverloadConfig
    parsed = vars(build_parser().parse_args([command]))
    mirrored = {
        f.name: f.default for f in dataclasses.fields(cls) if f.name in parsed
    }
    # Every flag but the output switches lands on a field (seed is global).
    assert set(parsed) - set(mirrored) <= {
        "command", "deploy", "learning", "trace", "metrics", "flight_record",
        "scenario", "jsonl", "report_json", "digest",
    }
    assert {name: parsed[name] for name in mirrored} == mirrored
