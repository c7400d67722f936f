"""Deterministic fault injection for hard-failure experiments.

The cloud layer models *soft* degradation (AR(1) weather, glitches,
``VM.degrade``); this package injects *hard* faults on the simulation
clock — VM crashes/restarts, link blackholes (a partition is one per
link across the cut), capacity flaps, and dropped/duplicated shipped
batches — from a declarative,
seeded :class:`FaultPlan`, so two runs with the same seed replay the
identical fault schedule. The :class:`FaultInjector` applies the plan,
keeps an ordered event log (the determinism contract of ``repro chaos``),
and exposes the batch-interception hook the reliable shipping layer
consults.
"""

from repro.faults.injector import AppliedFault, FaultInjector
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, chaos_scenario

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "AppliedFault",
    "chaos_scenario",
]
