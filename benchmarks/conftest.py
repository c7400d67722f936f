"""Shared plumbing for the experiment benchmarks.

Each bench target regenerates one table/figure of the (reconstructed)
evaluation: it runs the simulation(s), prints the rows, writes them to
``benchmarks/results/<exp>.txt``, and asserts the expected qualitative
shape through :class:`repro.analysis.experiments.ExperimentRecord`.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report():
    """Print an experiment's output and persist it to results/."""

    def _report(exp_id: str, *blocks: str) -> None:
        text = "\n\n".join(blocks)
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{exp_id.lower()}.txt").write_text(text + "\n")

    return _report


def run_until_done(engine, predicate, timeout=7 * 24 * 3600.0, step=10.0):
    """Advance simulated time until ``predicate()`` holds."""
    deadline = engine.sim.now + timeout
    while not predicate() and engine.sim.now < deadline:
        engine.run_until(min(engine.sim.now + step, deadline))
    if not predicate():
        raise TimeoutError("experiment did not converge before sim timeout")
