"""Statistical helpers shared by tests and benchmarks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StatSummary:
    """Mean, spread and a 95 % confidence interval of a sample."""

    n: int
    mean: float
    std: float
    ci95: float
    minimum: float
    maximum: float

    @property
    def cv(self) -> float:
        """Coefficient of variation σ/µ."""
        return self.std / self.mean if self.mean else float("nan")

    def __str__(self) -> str:
        return f"{self.mean:.3g} ± {self.ci95:.3g} (n={self.n})"


def summarize(values) -> StatSummary:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return StatSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        ci95=confidence_interval95(arr),
        minimum=float(arr.min()),
        maximum=float(arr.max()),
    )


def confidence_interval95(values) -> float:
    """Half-width of the normal-approximation 95 % CI of the mean."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size < 2:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))
