"""SAGE reproduction: geo-distributed streaming data analysis in clouds.

The package layers, bottom-up:

* :mod:`repro.simulation` — deterministic discrete-event kernel;
* :mod:`repro.cloud` — the simulated multi-datacenter cloud (regions,
  VMs, variable WAN links, blob storage, pricing);
* :mod:`repro.monitor` — the Monitoring Agent and its estimators;
* :mod:`repro.transfer` — the Transfer Agent (plans, routes, sessions);
* :mod:`repro.core` — the Decision Manager: cost/time models, trade-off
  engine, multi-datacenter path selection;
* :mod:`repro.streaming` — geo-distributed stream analysis on top of the
  managed transfer substrate;
* :mod:`repro.flow`, :mod:`repro.faults`, :mod:`repro.control`,
  :mod:`repro.gen` — overload handling, fault injection, the failover
  control plane and the seeded scenario generator (components only);
* :mod:`repro.scenarios` — the one scenario harness, the chaos /
  overload / serve / soak scenarios built on it, and their registry;
* :mod:`repro.baselines` — comparison systems (direct, static parallel,
  static shortest path, blob staging, GridFTP-like);
* :mod:`repro.workloads` — synthetic and application workloads (A-Brain);
* :mod:`repro.analysis` — statistics and experiment-report helpers;
* :mod:`repro.runner` — parallel sweep execution with result caching.

The supported public surface is :mod:`repro.api`, re-exported here:
sessions (:class:`SageSession`), one-shot scenarios
(:func:`run_experiment`), parallel cached sweeps (:func:`run_sweep`),
and the typed config/result dataclasses. Anything deeper is
implementation detail.
"""

from repro.api import (
    ChaosConfig,
    ControlConfig,
    GenConfig,
    OverloadConfig,
    SageSession,
    ScenarioReport,
    ServeConfig,
    SoakConfig,
    SweepReport,
    SweepRunner,
    SweepTask,
    TransferResult,
    default_suite,
    derive_seed,
    run_experiment,
    run_serve,
    run_soak,
    run_sweep,
)
from repro.core.engine import SageEngine

__version__ = "1.0.0"

__all__ = [
    "ChaosConfig",
    "ControlConfig",
    "GenConfig",
    "OverloadConfig",
    "SageEngine",
    "SageSession",
    "ScenarioReport",
    "ServeConfig",
    "SoakConfig",
    "SweepReport",
    "SweepRunner",
    "SweepTask",
    "TransferResult",
    "default_suite",
    "derive_seed",
    "run_experiment",
    "run_serve",
    "run_soak",
    "run_sweep",
    "__version__",
]
