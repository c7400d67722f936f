"""Traffic programs: time-varying rate schedules for generated sources.

A :class:`RateSchedule` is a piecewise-constant function rendered once
at a fixed resolution — the generator composes diurnal curves, flash
crowds, and slow drift analytically, then samples the product onto the
grid. Rendering up front (instead of evaluating closures at emit time)
makes the schedule a plain list of floats: trivially canonical for
digests, cheap at runtime (O(1) lookups), and directly comparable in
the determinism tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.streaming.sources import ScheduleSource
from repro.workloads.mixes import WORKLOAD_SHAPES, WorkloadShape

_SHAPES_BY_NAME = {shape.name: shape for shape in WORKLOAD_SHAPES}


@dataclass(frozen=True)
class RateSchedule:
    """Piecewise-constant values on a uniform grid starting at t=0.

    ``at(t)`` clamps outside the grid (first value before 0, last value
    past the end), so a source that outlives its program keeps emitting
    at the final rate instead of going dark mid-drain.
    """

    resolution: float
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        if not self.values:
            raise ValueError("schedule needs at least one value")

    def at(self, t: float) -> float:
        idx = int(t // self.resolution)
        if idx < 0:
            idx = 0
        elif idx >= len(self.values):
            idx = len(self.values) - 1
        return self.values[idx]

    @property
    def horizon(self) -> float:
        return self.resolution * len(self.values)

    @property
    def mean(self) -> float:
        return float(sum(self.values)) / len(self.values)

    @property
    def peak(self) -> float:
        return float(max(self.values))

    def to_dict(self) -> dict:
        return {"resolution": self.resolution, "values": list(self.values)}


@dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd event: linear rise to a peak, exponential decay."""

    t_peak: float
    peak_factor: float
    rise_s: float
    decay_s: float

    def factor(self, t: float) -> float:
        """Rate multiplier contributed at time ``t`` (1.0 = no effect)."""
        if t < self.t_peak - self.rise_s:
            return 1.0
        if t < self.t_peak:
            frac = 1.0 - (self.t_peak - t) / self.rise_s
            return 1.0 + (self.peak_factor - 1.0) * frac
        return 1.0 + (self.peak_factor - 1.0) * math.exp(
            -(t - self.t_peak) / self.decay_s
        )


@dataclass(frozen=True)
class SourceProgram:
    """One generated source: a workload shape bound to rendered schedules."""

    name: str
    region: str
    shape_name: str
    n_keys: int
    rates: RateSchedule
    sizes: RateSchedule

    @property
    def shape(self) -> WorkloadShape:
        return _SHAPES_BY_NAME[self.shape_name]

    def build_source(self) -> ScheduleSource:
        """Materialise as a runtime source (rates relative to first tick)."""
        shape = self.shape
        return ScheduleSource(
            name=self.name,
            rate_fn=self.rates.at,
            keys=shape.keys(self.n_keys),
            key_weights=shape.key_weights(self.n_keys),
            bytes_fn=self.sizes.at,
            record_bytes=shape.record_bytes,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "region": self.region,
            "shape": self.shape_name,
            "n_keys": self.n_keys,
            "mean_rate": self.rates.mean,
            "peak_rate": self.rates.peak,
        }


@dataclass(frozen=True)
class TrafficProgram:
    """All generated sources of one scenario."""

    sources: tuple[SourceProgram, ...] = field(default_factory=tuple)

    def by_region(self) -> dict[str, list[SourceProgram]]:
        out: dict[str, list[SourceProgram]] = {}
        for program in self.sources:
            out.setdefault(program.region, []).append(program)
        return out

    def mean_rate(self, region: str | None = None) -> float:
        return sum(
            p.rates.mean
            for p in self.sources
            if region is None or p.region == region
        )

    def peak_rate(self, region: str | None = None) -> float:
        """Worst instantaneous aggregate rate (sum of per-source peaks)."""
        return sum(
            p.rates.peak
            for p in self.sources
            if region is None or p.region == region
        )

    def summary(self) -> dict:
        return {
            "sources": [p.to_dict() for p in self.sources],
            "mean_rate": self.mean_rate(),
            "peak_rate": self.peak_rate(),
        }


def render_rates(
    rng: np.random.Generator,
    horizon: float,
    resolution: float,
    base_rate: float,
    diurnal_amplitude: float,
    diurnal_period_s: float,
    crowds: list[FlashCrowd],
) -> RateSchedule:
    """Sample ``base · diurnal · crowd`` onto the grid.

    The diurnal phase is drawn from ``rng`` (regions peak at different
    wall-clock hours); overlapping flash crowds multiply through their
    strongest member rather than stacking, so sampled pile-ups cannot
    drive the rate to absurdity.
    """
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    n = max(1, int(math.ceil(horizon / resolution)))
    values = []
    for i in range(n):
        t = (i + 0.5) * resolution
        diurnal = 1.0 + diurnal_amplitude * math.sin(
            2.0 * math.pi * t / diurnal_period_s + phase
        )
        crowd = 1.0
        for c in crowds:
            crowd = max(crowd, c.factor(t))
        values.append(round(base_rate * diurnal * crowd, 6))
    return RateSchedule(resolution=resolution, values=tuple(values))


def render_sizes(
    rng: np.random.Generator,
    horizon: float,
    resolution: float,
    nominal_bytes: float,
    drift_amplitude: float,
    drift_period_s: float,
) -> RateSchedule:
    """Slow sinusoidal drift of record sizes around the shape nominal."""
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    n = max(1, int(math.ceil(horizon / resolution)))
    values = tuple(
        round(
            nominal_bytes
            * (
                1.0
                + drift_amplitude
                * math.sin(
                    2.0 * math.pi * (i + 0.5) * resolution / drift_period_s
                    + phase
                )
            ),
            6,
        )
        for i in range(n)
    )
    return RateSchedule(resolution=resolution, values=values)


__all__ = [
    "FlashCrowd",
    "RateSchedule",
    "SourceProgram",
    "TrafficProgram",
    "render_rates",
    "render_sizes",
]
