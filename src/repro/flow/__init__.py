"""End-to-end backpressure, load shedding, and checkpoint/restore.

This package makes the system survive *overload*. It provides:

* bounded ingest/shipping buffers with pluggable overload policies
  (:mod:`repro.flow.policy` — ``block`` / ``shed`` / ``degrade``) and
  explicit credit-based backpressure (:mod:`repro.flow.credits`);
* a circuit breaker on WAN shipping (:mod:`repro.flow.breaker`) that
  cooperates with the failure detector so dead links stop accumulating
  queued batches;
* durable checkpoint/restore of streaming state
  (:mod:`repro.flow.checkpoint`), which — combined with upstream batch
  retention and ``(origin, seq)`` dedup — upgrades at-least-once
  delivery into exactly-once window emission across aggregator restarts.

``sage overload`` scripts all of it through :mod:`repro.scenarios.overload`.
"""

from repro.flow.breaker import CircuitBreaker
from repro.flow.checkpoint import Checkpointer, CheckpointStore
from repro.flow.credits import CreditGate
from repro.flow.policy import (
    POLICIES,
    BlockPolicy,
    DegradePolicy,
    FlowConfig,
    OverloadPolicy,
    ShedPolicy,
    make_policy,
)

__all__ = [
    "FlowConfig",
    "OverloadPolicy",
    "BlockPolicy",
    "ShedPolicy",
    "DegradePolicy",
    "make_policy",
    "POLICIES",
    "CreditGate",
    "CircuitBreaker",
    "CheckpointStore",
    "Checkpointer",
]
