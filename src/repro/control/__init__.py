"""``repro.control`` — the resident-service control plane.

Leader lease + standby promotion (:mod:`repro.control.lease`,
:mod:`repro.control.plane`) and ingress admission control
(:mod:`repro.control.admission`); ``sage serve`` drives them through
:mod:`repro.scenarios.serve`.
"""

from repro.control.admission import AdmissionGate
from repro.control.lease import LeaderLease
from repro.control.plane import (
    APPLY_KEYS,
    ControlPlane,
    FailoverEvent,
    Replica,
)

__all__ = [
    "APPLY_KEYS",
    "AdmissionGate",
    "ControlPlane",
    "FailoverEvent",
    "LeaderLease",
    "Replica",
]
