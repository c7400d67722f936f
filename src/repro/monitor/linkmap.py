"""The real-time map of inter-datacenter link performance.

This is the "online map of the cloud network" that the decision engine
plans against: for every ordered region pair it holds an estimator fed by
that link's sampler, exposes the current estimate with uncertainty, and can
render the full throughput matrix (the E1a snapshot figure).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitor.estimators import Estimator
from repro.simulation.units import MB


@dataclass(frozen=True)
class LinkEstimate:
    """Estimated single-flow throughput of one directed region pair."""

    src: str
    dst: str
    mean: float
    std: float
    samples: int

    @property
    def known(self) -> bool:
        return self.samples > 0 and self.mean == self.mean  # not NaN


class LinkPerformanceMap:
    """Estimators for all monitored directed region pairs."""

    def __init__(self) -> None:
        self._estimators: dict[tuple[str, str], Estimator] = {}

    def register(self, src: str, dst: str, estimator: Estimator) -> None:
        self._estimators[(src, dst)] = estimator

    def observe(self, src: str, dst: str, time: float, value: float) -> None:
        try:
            est = self._estimators[(src, dst)]
        except KeyError:
            raise KeyError(f"link {src}->{dst} is not monitored") from None
        est.update(time, value)

    def estimator(self, src: str, dst: str) -> Estimator:
        return self._estimators[(src, dst)]

    def estimate(self, src: str, dst: str) -> LinkEstimate:
        est = self._estimators.get((src, dst))
        if est is None:
            return LinkEstimate(src, dst, float("nan"), float("nan"), 0)
        return LinkEstimate(src, dst, est.mean, est.std, est.samples_seen)

    def throughput(self, src: str, dst: str, default: float = float("nan")) -> float:
        """Convenience scalar lookup used by path algorithms."""
        e = self.estimate(src, dst)
        return e.mean if e.known else default

    def means(self) -> dict[tuple[str, str], float]:
        """Every known link mean, in sorted pair order — the path solvers'
        input. Known is :attr:`LinkEstimate.known`'s filter (sampled, mean
        not NaN); no estimate object or std is built per pair."""
        out: dict[tuple[str, str], float] = {}
        for pair in sorted(self._estimators):
            est = self._estimators[pair]
            mean = est.mean
            if est.samples_seen > 0 and mean == mean:
                out[pair] = mean
        return out

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._estimators)

    def regions(self) -> list[str]:
        codes: set[str] = set()
        for s, d in self._estimators:
            codes.add(s)
            codes.add(d)
        return sorted(codes)

    def matrix_rows(self) -> list[list[str]]:
        """Render the throughput matrix in MB/s (E1a snapshot figure)."""
        regions = self.regions()
        header = ["from\\to"] + regions
        rows = [header]
        for src in regions:
            row = [src]
            for dst in regions:
                if src == dst:
                    row.append("-")
                    continue
                e = self.estimate(src, dst)
                row.append(f"{e.mean / MB:.1f}" if e.known else "?")
            rows.append(row)
        return rows
