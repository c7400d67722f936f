"""Sweep tasks: what a shard runs, and how the worker executes it.

A :class:`SweepTask` is pure data — a shard name (its identity within
the sweep, feeding seed derivation), a scenario reference, and a config
dict *without* a seed. Scenario references are either names in
:data:`repro.scenarios.SCENARIOS` (``"chaos"``, ``"overload"``) or dotted
import paths ``"pkg.module:callable"`` for user-defined experiments;
either way the worker process resolves them by import, so tasks pickle as
plain data and spawn-based pools see exactly what fork-based pools would.

A registered scenario runs through :func:`repro.scenarios.run_experiment`.
A dotted-path callable instead has the signature ``fn(config: dict, seed:
int) -> ScenarioReport | dict``; a dict return is taken as an
already-canonical result. Execution always normalises to the canonical
dict — the only currency the cache and the byte-identity checks trade
in.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

from repro.report import ScenarioReport
from repro.scenarios import run_experiment


@dataclass(frozen=True)
class SweepTask:
    """One shard of a sweep: a named, seedless scenario configuration."""

    #: Shard identity within the sweep; feeds child-seed derivation and
    #: must be unique across the sweep's tasks.
    name: str
    #: Registry name ("chaos", "overload") or "module:callable" path.
    scenario: str
    #: Scenario config as a plain dict, WITHOUT a seed — the runner
    #: injects the derived child seed.
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "config": dict(self.config),
        }


def _resolve_dotted(ref: str):
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ValueError(f"bad scenario reference {ref!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise ValueError(f"{ref!r} does not resolve to a callable")
    return fn


def execute_task(payload: dict) -> dict:
    """Run one shard to completion. Worker-side entry point.

    ``payload`` is ``{"name", "scenario", "config", "seed"}``; returns
    ``{"name", "result", "wall_seconds"}`` where ``result`` is the
    shard's canonical dict. Exceptions propagate — the pool maps them to
    failed shards.
    """
    scenario = payload["scenario"]
    config = payload["config"]
    seed = payload["seed"]
    wall0 = time.perf_counter()
    if ":" in scenario:
        report = _resolve_dotted(scenario)(dict(config), seed)
    else:
        report = run_experiment(scenario, config, seed=seed)
    wall = time.perf_counter() - wall0
    perf = None
    if isinstance(report, ScenarioReport):
        result = report.canonical_dict()
        # Shard-level perf — bookkeeping, never canonical: wall time and
        # speedup vary per host, so they ride next to the result, not in
        # it (cache keys and digests are unaffected).
        perf = {
            "virtual_seconds": report.virtual_seconds,
            "sim_speedup": report.virtual_seconds / wall if wall > 0 else 0.0,
        }
        # Audited scenarios ride their SLO outcome next to the result so
        # the sweep JSONL answers "which shard violated what" directly.
        audit = getattr(report, "audit", None)
        if isinstance(audit, dict) and audit:
            perf["slo"] = {
                "checks": audit.get("checks", 0),
                "violations": audit.get("violation_count", 0),
                "counts_by_kind": audit.get("counts_by_kind", {}),
                "clean": audit.get("clean", True),
            }
    elif isinstance(report, dict):
        result = report
    else:
        raise TypeError(
            f"scenario {scenario!r} returned {type(report).__name__}; "
            "expected ScenarioReport or dict"
        )
    return {
        "name": payload["name"],
        "result": result,
        "wall_seconds": wall,
        "perf": perf,
    }
