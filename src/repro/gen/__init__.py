"""repro.gen: seeded adversarial scenario generation.

The generator turns one root seed into a full scenario — deployment
layout, heterogeneous time-varying traffic, and a correlated fault
program — and :mod:`repro.scenarios.soak` executes it over simulated days
with the SLO auditor checking invariants continuously. Everything renders
into existing primitives (``ScheduleSource`` rate programs, ``FaultPlan``
schedules), so generated scenarios replay bit-identically through the
same machinery the scripted scenarios use.
"""

from repro.gen.adversity import regional_outage, slow_burn
from repro.gen.scenario import (
    GEN_PROFILES,
    REGION_CODES,
    GeneratedScenario,
    ScenarioGenerator,
)
from repro.gen.traffic import (
    FlashCrowd,
    RateSchedule,
    SourceProgram,
    TrafficProgram,
)

__all__ = [
    "GEN_PROFILES",
    "REGION_CODES",
    "FlashCrowd",
    "GeneratedScenario",
    "RateSchedule",
    "ScenarioGenerator",
    "SourceProgram",
    "TrafficProgram",
    "regional_outage",
    "slow_burn",
]
