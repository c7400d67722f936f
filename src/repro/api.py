"""The one supported import surface of the SAGE reproduction.

Everything an experiment driver needs lives here (and is re-exported
from ``repro`` itself):

* :class:`SageSession` / :class:`TransferResult` — interactive managed
  transfers over a simulated deployment;
* :func:`run_experiment` — run one scenario by name, returning a
  :class:`~repro.report.ScenarioReport`;
* :func:`run_sweep` / :func:`default_suite` — shard a list of
  :class:`~repro.runner.SweepTask` across a process pool with result
  caching, returning a :class:`~repro.runner.SweepReport`;
* the frozen config dataclasses (:class:`ChaosConfig`,
  :class:`OverloadConfig`, ...) and typed result surfaces
  (:class:`ScenarioReport`, :class:`StreamReport`, :class:`SweepReport`).

Deeper imports (``repro.cloud``, ``repro.streaming``, ...) remain
available but are implementation surface; only this module's names are
covered by the deprecation policy.
"""

from __future__ import annotations

from repro.config import (
    SOAK_PROFILES,
    BlobRelayConfig,
    ChaosConfig,
    ControlConfig,
    DirectConfig,
    GenConfig,
    GridFtpConfig,
    OverloadConfig,
    ParallelStaticConfig,
    ServeConfig,
    ShortestPathConfig,
    SoakConfig,
    resolve_config,
)
from repro.control.scenario import run_serve
from repro.core.api import SageSession, TransferResult
from repro.gen.soak import run_soak
from repro.report import ScenarioReport, StreamReport
from repro.runner import (
    SweepReport,
    SweepRunner,
    SweepTask,
    derive_seed,
    register_scenario,
    registered_scenarios,
)
from repro.runner.tasks import execute_task, lookup_scenario


def run_experiment(
    scenario: str,
    config: dict | object | None = None,
    *,
    seed: int | None = None,
    observer=None,
) -> ScenarioReport:
    """Run one registered scenario and return its :class:`ScenarioReport`.

    ``scenario`` is a registry name (``"chaos"``, ``"overload"``, or
    anything added via :func:`register_scenario`); ``config`` is the
    scenario's config dataclass, its dict form, or ``None`` for
    defaults. ``seed`` overrides the config's seed when given.
    """
    config_cls, run_fn = lookup_scenario(scenario)
    cfg = resolve_config(config_cls, config)
    if seed is not None:
        cfg = cfg.replace(seed=seed)
    return run_fn(cfg, observer=observer)


def default_suite(
    duration: float = 240.0, generated: int = 0
) -> list[SweepTask]:
    """The standard E-suite sweep: chaos (both arms) + overload (all
    policies), one shard each — plus, with ``generated=N``, N seeded
    generator shards.

    Each generated shard is a short soak over a *distinct* generated
    scenario: the runner derives a different child seed per shard name,
    and the generator expands that seed into its own deployment,
    traffic, and fault program, cycling through the profiles. The
    content-addressed cache keys on (scenario, config, seed), so a
    cached sweep accumulates coverage of arbitrarily many generated
    scenarios across runs.
    """
    tasks = [
        SweepTask(
            name="chaos-inject",
            scenario="chaos",
            config={"duration": duration, "inject": True},
        ),
        SweepTask(
            name="chaos-baseline",
            scenario="chaos",
            config={"duration": duration, "inject": False},
        ),
    ]
    tasks.extend(
        SweepTask(
            name=f"overload-{policy}",
            scenario="overload",
            config={"policy": policy, "duration": duration},
        )
        for policy in ("block", "shed", "degrade")
    )
    tasks.extend(
        SweepTask(
            name=f"soak-gen-{i:03d}",
            scenario="soak",
            config={
                # Short horizon per shard: the axis buys scenario
                # *diversity*, the dedicated soak command buys duration.
                "hours": max(duration, 240.0) / 3600.0,
                "profile": SOAK_PROFILES[i % len(SOAK_PROFILES)],
            },
        )
        for i in range(generated)
    )
    return tasks


def run_sweep(
    tasks: list[SweepTask] | None = None,
    *,
    jobs: int = 1,
    cache_dir=None,
    root_seed: int = 2013,
    observer=None,
) -> SweepReport:
    """Run a sweep (default: :func:`default_suite`) and return its report.

    ``jobs`` > 1 shards across a spawn-based process pool; output is
    bit-identical to ``jobs=1`` by construction (see
    :mod:`repro.runner`). ``cache_dir`` enables the content-addressed
    result cache — warm re-runs execute zero simulations.
    """
    if tasks is None:
        tasks = default_suite()
    runner = SweepRunner(
        jobs=jobs, cache_dir=cache_dir, root_seed=root_seed, observer=observer
    )
    return runner.run(tasks)


__all__ = [
    "BlobRelayConfig",
    "ChaosConfig",
    "ControlConfig",
    "DirectConfig",
    "GenConfig",
    "GridFtpConfig",
    "OverloadConfig",
    "ParallelStaticConfig",
    "SOAK_PROFILES",
    "SageSession",
    "ScenarioReport",
    "ServeConfig",
    "ShortestPathConfig",
    "SoakConfig",
    "StreamReport",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "TransferResult",
    "default_suite",
    "derive_seed",
    "execute_task",
    "register_scenario",
    "registered_scenarios",
    "run_experiment",
    "run_serve",
    "run_soak",
    "run_sweep",
]
