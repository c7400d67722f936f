"""Shared plumbing for baseline transfer strategies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.engine import SageEngine
from repro.simulation.units import DAY


@dataclass(frozen=True)
class BaselineResult:
    """Outcome of one baseline transfer run."""

    label: str
    seconds: float
    egress_usd: float
    vm_seconds_busy: float
    extra_usd: float = 0.0

    @property
    def throughput_of(self) -> Callable[[float], float]:
        return lambda size: size / self.seconds if self.seconds > 0 else 0.0


def run_transfer_to_completion(
    engine: SageEngine,
    start: Callable[[Callable[[], None]], None],
    timeout: float = DAY,
    step: float = 5.0,
    label: str = "baseline",
) -> float:
    """Run ``start(done_callback)`` and advance the sim until it signals.

    Returns the elapsed simulated seconds. The pattern keeps baselines
    free of event-loop boilerplate: they just call ``done()`` when their
    last byte lands. When the engine carries an enabled observer the run
    is recorded as a ``baseline.transfer`` span named by ``label``.
    """
    flag: dict[str, float | None] = {"done_at": None}

    def _done() -> None:
        flag["done_at"] = engine.sim.now

    t0 = engine.sim.now
    start(_done)
    deadline = t0 + timeout
    while flag["done_at"] is None and engine.sim.now < deadline:
        engine.run_until(min(engine.sim.now + step, deadline))
    done_at = flag["done_at"]
    if done_at is None:
        raise TimeoutError("baseline transfer did not complete before timeout")
    elapsed = done_at - t0
    engine.observer.record_span(
        "baseline.transfer", t0, done_at, label=label, seconds=elapsed
    )
    return elapsed
