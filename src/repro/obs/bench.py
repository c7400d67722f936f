"""Canonical ``BENCH_<name>.json`` publisher for the perf trajectory.

The ROADMAP's performance work is judged against a published trajectory:
every perf-relevant benchmark writes one ``BENCH_<name>.json`` with the
same schema, so successive runs compare like with like (the gated
end-to-end numbers live in ``perfbench/``). The schema:

``bench``
    the trajectory name (file is ``BENCH_<bench>.json``);
``scenario``
    what ran (``e9-streaming``, ``perf-baseline``, ...);
``config`` / ``config_digest``
    the exact configuration and the sha256-16 of its canonical JSON —
    two records are comparable iff their digests match;
``seed``, ``wall_seconds``, ``virtual_seconds``
    run identity and measured wall / simulated span;
``records_per_s`` / ``events_per_s``
    records processed and simulator events dispatched per *wall* second
    — the two numbers the million-source rewrite must move;
``stage_shares`` / ``stage_seconds`` / ``coverage``
    per-stage attribution from :class:`~repro.obs.profile.StageProfiler`
    (shares sum to 1.0 over the attributed time; coverage is attributed
    / measured wall);
``extras``
    free-form scenario numbers (latency percentiles, WAN bytes, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.report import canonical_json


def config_digest(config: dict[str, Any]) -> str:
    """sha256-16 of the canonical JSON form of ``config``."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class BenchRecord:
    """One point of the published performance trajectory."""

    bench: str
    scenario: str
    seed: int
    config: dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    records_per_s: float = 0.0
    events_per_s: float = 0.0
    stage_shares: dict[str, float] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    coverage: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)
    #: Lineage/ledger headline numbers (PR7+). ``None`` omits them from
    #: the JSON, keeping earlier trajectory records byte-compatible.
    e2e_latency_p99_s: float | None = None
    usd_per_1k_records: float | None = None

    @classmethod
    def from_profile(
        cls,
        bench: str,
        scenario: str,
        seed: int,
        profile: dict[str, Any],
        *,
        config: dict[str, Any] | None = None,
        records: float = 0.0,
        events: float = 0.0,
        extras: dict[str, Any] | None = None,
        e2e_latency_p99_s: float | None = None,
        usd_per_1k_records: float | None = None,
    ) -> "BenchRecord":
        """Build a record from a :meth:`StageProfiler.snapshot` dict."""
        wall = profile["wall_seconds"]
        return cls(
            bench=bench,
            scenario=scenario,
            seed=seed,
            config=dict(config or {}),
            wall_seconds=wall,
            virtual_seconds=profile["virtual_seconds"],
            records_per_s=records / wall if wall > 0 else 0.0,
            events_per_s=events / wall if wall > 0 else 0.0,
            stage_shares={
                name: s["share"] for name, s in profile["stages"].items()
            },
            stage_seconds={
                name: s["seconds"] for name, s in profile["stages"].items()
            },
            coverage=profile["coverage"],
            extras=dict(extras or {}),
            e2e_latency_p99_s=e2e_latency_p99_s,
            usd_per_1k_records=usd_per_1k_records,
        )

    def to_dict(self) -> dict[str, Any]:
        out = {
            "bench": self.bench,
            "scenario": self.scenario,
            "seed": self.seed,
            "config": self.config,
            "config_digest": config_digest(self.config),
            "wall_seconds": round(self.wall_seconds, 6),
            "virtual_seconds": round(self.virtual_seconds, 6),
            "records_per_s": round(self.records_per_s, 3),
            "events_per_s": round(self.events_per_s, 3),
            "stage_shares": {
                k: round(v, 6) for k, v in self.stage_shares.items()
            },
            "stage_seconds": {
                k: round(v, 6) for k, v in self.stage_seconds.items()
            },
            "coverage": round(self.coverage, 6),
            "extras": self.extras,
        }
        if self.e2e_latency_p99_s is not None:
            out["e2e_latency_p99_s"] = round(self.e2e_latency_p99_s, 6)
        if self.usd_per_1k_records is not None:
            out["usd_per_1k_records"] = round(self.usd_per_1k_records, 9)
        return out


def write_bench(record: BenchRecord, directory: str | Path) -> Path:
    """Write ``BENCH_<bench>.json`` under ``directory``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{record.bench}.json"
    path.write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def read_bench(path: str | Path) -> dict[str, Any]:
    """Load a ``BENCH_*.json`` file, validating the schema invariants.

    Raises :class:`ValueError` if required keys are missing or the stage
    shares fail to sum to ≈1.0 (when any stage was attributed at all).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    required = {
        "bench", "scenario", "seed", "config_digest", "wall_seconds",
        "records_per_s", "events_per_s", "stage_shares", "coverage",
    }
    missing = required - data.keys()
    if missing:
        raise ValueError(f"{path}: missing bench keys {sorted(missing)}")
    shares = data["stage_shares"]
    if shares:
        total = sum(shares.values())
        if not math.isclose(total, 1.0, abs_tol=1e-3):
            raise ValueError(
                f"{path}: stage shares sum to {total:.6f}, expected ≈1.0"
            )
    # Lineage/ledger fields are optional (older records predate them)
    # but must be sane numbers when present.
    for key in ("e2e_latency_p99_s", "usd_per_1k_records"):
        if key in data and data[key] is not None:
            value = data[key]
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or math.isnan(value)
                or value < 0
            ):
                raise ValueError(
                    f"{path}: {key} must be a non-negative number, "
                    f"got {value!r}"
                )
    return data
