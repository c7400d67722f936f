"""The unified public surface: ``repro`` / ``repro.api`` re-exports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro import SageSession
from repro.report import ScenarioReport
from repro.simulation.units import MB


def test_package_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_api_all_names_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_package_reexports_are_the_api_objects():
    for name in repro.__all__:
        if name in {"__version__", "SageEngine"}:
            continue
        assert getattr(repro, name) is getattr(api, name), name


def test_run_experiment_by_name():
    report = repro.run_experiment(
        "overload",
        {"policy": "shed", "duration": 60.0, "crash_at": None, "brownout": None},
        seed=31,
    )
    assert isinstance(report, ScenarioReport)
    assert report.scenario == "overload"
    assert report.seed == 31
    assert report.config["policy"] == "shed"


def test_run_experiment_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        repro.run_experiment("nope")


def test_run_experiment_rejects_foreign_config():
    with pytest.raises(TypeError):
        repro.run_experiment("overload", object())


def test_default_suite_shape():
    tasks = repro.default_suite(duration=60.0)
    names = [t.name for t in tasks]
    assert names == [
        "chaos-inject",
        "chaos-baseline",
        "overload-block",
        "overload-shed",
        "overload-degrade",
    ]
    assert all(t.config["duration"] == 60.0 for t in tasks)


def test_sage_session_facade_runs_a_transfer():
    session = repro.SageSession({"NEU": 1, "WEU": 1}, seed=4)
    try:
        result = session.transfer("NEU", "WEU", size=16 * 1024 * 1024)
    finally:
        session.close()
    assert isinstance(result, repro.TransferResult)
    assert result.size == 16 * 1024 * 1024
    assert result.seconds > 0
    assert result.throughput > 0


def test_registry_names_are_the_scenario_subcommands():
    from repro import cli
    from repro.scenarios import SCENARIOS

    scenario_cmds = {c for c, fn in cli._COMMANDS.items() if fn is cli.cmd_scenario}
    assert set(SCENARIOS) == scenario_cmds == set(api.registered_scenarios())


# Import closure of a component package *without* the facade: a bare
# ``repro`` package object stands in for ``repro/__init__.py`` (which
# re-exports the whole API, scenarios included).
_CLOSURE = """
import importlib, sys, types
pkg = types.ModuleType("repro"); pkg.__path__ = [sys.argv[1]]
sys.modules["repro"] = pkg
importlib.import_module(sys.argv[2])
print(sorted(m for m in sys.modules for p in sys.argv[3:]
             if m == p or m.startswith(p + ".")))
"""


def _fresh(code: str, *argv: str) -> str:
    src = str(Path(repro.__file__).parent)
    out = subprocess.run(
        [sys.executable, "-c", code, src, *argv],
        capture_output=True, text=True, check=True, timeout=120,
        env={"PYTHONPATH": str(Path(src).parent)},
    )
    return out.stdout.strip()


@pytest.mark.parametrize(
    "module",
    ["repro.flow", "repro.faults", "repro.control", "repro.gen", "repro.streaming"],
)
def test_components_do_not_import_the_scenarios(module):
    assert _fresh(_CLOSURE, module, "repro.scenarios") == "[]"


_ABOVE_SUBSTRATE = tuple(
    f"repro.{p}"
    for p in ("core", "transfer", "monitor", "flow", "streaming", "control",
              "scenarios")
)


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("repro.simulation", _ABOVE_SUBSTRATE),
        ("repro.cloud", _ABOVE_SUBSTRATE),
        ("repro.flow", ("repro.streaming",)),
    ],
)
def test_lower_layers_do_not_import_the_layers_above(module, forbidden):
    assert _fresh(_CLOSURE, module, *forbidden) == "[]"


def test_import_repro_leaves_the_cli_and_argparse_out():
    code = "import sys, repro; print('argparse' in sys.modules, 'repro.cli' in sys.modules)"
    assert _fresh(code) == "False False"


# ----------------------------------------------------------------------
# SageSession
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session():
    return SageSession(
        deployment={"NEU": 5, "WEU": 3, "EUS": 3, "NUS": 5},
        seed=101,
        variability_sigma=0.0,
        glitches=False,
    )


def test_transfer_returns_result(session):
    r = session.transfer("NEU", "NUS", 256 * MB)
    assert r.seconds > 0
    assert r.throughput > 0
    assert r.nodes_used >= 1
    assert r.usd > 0
    assert r.schema


def test_budget_respected(session):
    budget = 0.10
    r = session.transfer("NEU", "NUS", 512 * MB, budget_usd=budget)
    # Planned within budget; realised cost tracks the plan closely.
    assert r.usd <= budget * 1.2


def test_deadline_met_when_feasible(session):
    r = session.transfer("NEU", "NUS", 256 * MB, deadline_s=120.0)
    assert r.seconds <= 120.0 * 1.25


def test_more_nodes_faster(session):
    slow = session.transfer("NEU", "NUS", 512 * MB, n_nodes=1)
    fast = session.transfer("NEU", "NUS", 512 * MB, n_nodes=8)
    assert fast.seconds < slow.seconds


def test_prediction_close_to_outcome(session):
    r = session.transfer("NEU", "NUS", 512 * MB, n_nodes=4)
    assert r.predicted_seconds is not None
    # The model is deliberately generic (one gain parameter, recalibrated
    # online as the session's earlier transfers complete), so require the
    # right ballpark rather than a tight band.
    assert 0.35 < r.seconds / r.predicted_seconds < 2.5


def test_link_map_rows(session):
    rows = session.link_map_rows()
    assert rows[0][0] == "from\\to"
    assert len(rows) == 5  # header + 4 regions


def test_estimated_throughput(session):
    assert session.estimated_throughput("NEU", "NUS") > 0


def test_costs_accumulate(session):
    before = session.costs().egress_usd
    session.transfer("NEU", "NUS", 128 * MB)
    assert session.costs().egress_usd > before


def test_close_finalizes():
    s = SageSession(
        deployment={"NEU": 2, "NUS": 2},
        seed=7,
        learning_phase=60.0,
        variability_sigma=0.0,
        glitches=False,
    )
    s.transfer("NEU", "NUS", 64 * MB)
    s.close()
    assert s.costs().vm_usd > 0  # leases billed on close
