"""Typed result surfaces shared by scenarios, the runner, and the CLI.

Every scenario (``run_chaos``, ``run_overload``, ``run_serve``,
``run_soak``) returns the same :class:`ScenarioReport` envelope: the
scenario name, the exact configuration it ran with, wall/virtual time, an
optional metrics snapshot, and the scenario's own payload dataclass under
``details``. Attribute access falls through to the payload
(``report.ingested``, ``report.faults``, ``report.digest``).

:meth:`ScenarioReport.canonical_dict` is the *deterministic* projection:
everything derived from the seed and the configuration, nothing derived
from the host (no wall-clock, no metrics). The sweep runner caches it,
hashes it, and compares it across ``--jobs`` levels — byte-identical
parallel output is asserted against this projection.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a JSON-stable form (dicts sorted at dump time).

    Dataclasses become dicts, tuples become lists, and containers recurse;
    scalars pass through. Used for cache keys and byte-identity digests,
    so the mapping must stay deterministic and total.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, float) and value != value:  # NaN → null, JSON-safe
        return None
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding of :func:`canonical_value` output."""
    return json.dumps(
        canonical_value(value), sort_keys=True, separators=(",", ":")
    )


def metrics_snapshot(observer) -> dict[str, float]:
    """Flatten an observer's counters/gauges to ``{name{labels}: value}``."""
    if observer is None or not getattr(observer, "enabled", False):
        return {}
    out: dict[str, float] = {}
    for snap in observer.registry.snapshot().values():
        if snap.kind not in ("counter", "gauge"):
            continue
        labels = ",".join(f"{k}={v}" for k, v in snap.labels)
        key = f"{snap.name}{{{labels}}}" if labels else snap.name
        out[key] = snap.value
    return out


@dataclass(frozen=True)
class ScenarioReport:
    """Uniform scenario outcome: envelope + scenario-specific payload."""

    #: Scenario name as registered with the runner ("chaos", "overload").
    scenario: str
    #: The exact configuration the run used, as a plain dict.
    config: dict
    seed: int
    #: Simulated seconds the scenario covered (deterministic).
    virtual_seconds: float
    #: Host seconds the run took (NOT part of the canonical projection).
    wall_seconds: float
    #: Scenario payload (a :class:`~repro.scenarios.harness.ScenarioPayload`).
    details: Any = None
    #: Observer counter/gauge snapshot (NOT canonical; may be empty).
    metrics: dict[str, float] = field(default_factory=dict)

    def __getattr__(self, name: str) -> Any:
        # Only called for attributes not found on the report itself:
        # fall through to the payload (report.ingested, report.faults, ...).
        if name.startswith("__"):
            raise AttributeError(name)
        details = object.__getattribute__(self, "details")
        try:
            return getattr(details, name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__!s} has no attribute {name!r} "
                f"(nor does its {type(details).__name__!s} payload)"
            ) from None

    @property
    def clean(self) -> bool:
        """The scenario's own success contract (True if it has none)."""
        return bool(getattr(self.details, "clean", True))

    def canonical_dict(self) -> dict:
        """The deterministic projection: seed + config + payload.

        Excludes wall-clock time and metrics, so two runs of the same
        configuration — serial, parallel, or on different hosts — must
        produce identical output. The sweep cache stores exactly this.
        """
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config": canonical_value(self.config),
            "virtual_seconds": self.virtual_seconds,
            "result": canonical_value(self.details),
        }

    def canonical_json(self) -> str:
        return canonical_json(self.canonical_dict())

    def describe(self) -> str:
        head = (
            f"scenario {self.scenario}: seed={self.seed} "
            f"virtual={self.virtual_seconds:.1f}s "
            f"wall={self.wall_seconds:.2f}s"
        )
        body = getattr(self.details, "describe", None)
        return head + "\n\n" + body() if callable(body) else head
