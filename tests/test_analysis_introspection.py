"""Tests for the Introspection-as-a-Service reports."""

import pytest

from repro.analysis.introspection import introspection_report, link_sla
from repro.simulation.units import GB, MB
from repro.workloads.synthetic import fresh_engine


@pytest.fixture(scope="module")
def engine():
    eng = fresh_engine(
        seed=97,
        spec={"NEU": 10, "NUS": 10, "WEU": 3},
        learning_phase=1800.0,  # half an hour of samples
    )
    return eng


def test_link_sla_fields(engine):
    sla = link_sla(engine.monitor, "NEU", "NUS")
    assert sla.samples > 10
    assert sla.p05 <= sla.p50 <= sla.p95
    assert 0.0 <= sla.consistency <= 1.0
    assert sla.grade in "ABCD"


def test_link_sla_requires_samples(engine):
    with pytest.raises(ValueError, match="no samples"):
        link_sla(engine.monitor, "NEU", "XXX")


def test_capacity_appears_after_saturating_load(engine):
    assert link_sla(engine.monitor, "NEU", "NUS").capacity is None
    # Light load teaches nothing (utilisation is not capacity)...
    mt = engine.decisions.transfer("NEU", "NUS", 256 * MB, n_nodes=2)
    while not mt.done:
        engine.run_until(engine.sim.now + 10)
    assert link_sla(engine.monitor, "NEU", "NUS").capacity is None
    # ...saturating the link does (a naive 10-route plan over-subscribes
    # it; the decision manager itself avoids doing so on purpose).
    from repro.baselines import StaticParallel

    StaticParallel({"n_nodes": 10, "streams": 8}).run(engine, "NEU", "NUS", 2 * GB)
    sla = link_sla(engine.monitor, "NEU", "NUS")
    assert sla.capacity is not None
    assert sla.capacity > 5 * MB


def test_report_renders_all_links(engine):
    report = introspection_report(engine.monitor)
    assert "Introspection-as-a-Service" in report
    for pair in ("NEU->NUS", "NUS->NEU", "NEU->WEU"):
        assert pair.split("->")[0] in report
    assert "grade" in report


def test_stable_cloud_gets_good_grades():
    eng = fresh_engine(
        seed=98,
        spec={"NEU": 2, "NUS": 2},
        learning_phase=1200.0,
        variability_sigma=0.0,
        glitches=False,
    )
    sla = link_sla(eng.monitor, "NEU", "NUS")
    # The link itself is perfectly stable; the residual inconsistency is
    # pure probe dispersion, so the grade stays in the top band.
    assert sla.grade in ("A", "B")
    assert sla.consistency > 0.85
