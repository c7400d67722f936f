"""``repro.scenarios`` — every scenario, declared once and reached one way.

:mod:`~repro.scenarios.harness` owns the single lifecycle; ``chaos``,
``overload``, ``serve`` and ``soak`` are :class:`~repro.scenarios.harness.Scenario`
values built from their config, each module keeping its payload dataclass
and ``run_*`` entry point. :data:`SCENARIOS` names them and
:func:`run_experiment` is the one lookup → resolve-config → run step the API,
the CLI and the sweep workers share. Nothing below this package imports it:
``repro.faults``, ``repro.flow``, ``repro.control`` and ``repro.gen`` are the
components scenarios are built from.
"""

from __future__ import annotations

from repro.config import (
    ChaosConfig,
    OverloadConfig,
    ServeConfig,
    SoakConfig,
    resolve_config,
)
from repro.report import ScenarioReport
from repro.scenarios.chaos import run_chaos
from repro.scenarios.overload import run_overload
from repro.scenarios.serve import run_serve
from repro.scenarios.soak import SoakRunner, run_soak

#: ``name -> (config_cls, run_fn)``; ``run_fn(config, observer=None)``
#: returns a :class:`~repro.report.ScenarioReport`.
SCENARIOS: dict[str, tuple[type, object]] = {
    "chaos": (ChaosConfig, run_chaos),
    "overload": (OverloadConfig, run_overload),
    "serve": (ServeConfig, run_serve),
    "soak": (SoakConfig, run_soak),
}


def registered_scenarios() -> list[str]:
    return sorted(SCENARIOS)


def run_experiment(
    scenario: str,
    config: dict | object | None = None,
    *,
    seed: int | None = None,
    observer=None,
) -> ScenarioReport:
    """Run one registered scenario and return its :class:`ScenarioReport`.

    ``scenario`` is a registry name (``"chaos"``, ``"overload"``,
    ``"serve"`` or ``"soak"``); ``config`` is the
    scenario's config dataclass, its dict form, or ``None`` for
    defaults. ``seed`` overrides the config's seed when given.
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; registered: {registered_scenarios()}"
        )
    config_cls, run_fn = SCENARIOS[scenario]
    cfg = resolve_config(config_cls, config)
    if seed is not None:
        cfg = cfg.replace(seed=seed)
    return run_fn(cfg, observer=observer)


__all__ = [
    "SCENARIOS",
    "SoakRunner",
    "registered_scenarios",
    "run_chaos",
    "run_experiment",
    "run_overload",
    "run_serve",
    "run_soak",
]
