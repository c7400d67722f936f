"""Null/real API parity, enforced by reflection.

Every observability primitive ships a disabled twin (``NullCounter``,
``NullEventLog``, ...). Components grab handles once and drive them from
hot paths, so a Null twin missing one attribute is a latent
``AttributeError`` that only fires when observability is toggled off —
the exact configuration the test suite exercises least. This test walks
each real/null pair and asserts the public surfaces match *both ways*:

* everything public on the real object exists on the null twin (the
  disabled path can never crash a caller written against the real API);
* everything public on the null twin exists on the real object (a twin
  cannot grow convenience API the real object lacks — that hides bugs
  in the enabled path instead);
* methods keep identical signatures, so calls valid against one are
  valid against the other.
"""

from __future__ import annotations

import inspect

import pytest

from repro.obs import (
    NULL_LOG,
    NULL_OBSERVER,
    NULL_PROFILER,
    NULL_STAGE_TIMER,
    EventLog,
    MetricsRegistry,
    Observer,
    StageProfiler,
)
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
)

#: Dunders that are part of the instrumentation contract (hot paths use
#: them via ``with``, ``len``, and iteration).
CONTRACT_DUNDERS = {"__len__", "__iter__", "__enter__", "__exit__"}


def public_surface(obj) -> set[str]:
    return {
        name
        for name in dir(obj)
        if not name.startswith("_") or name in CONTRACT_DUNDERS
    }


def _real_stage_timer():
    return StageProfiler().timer("stage")


PAIRS = [
    ("observer", Observer(), NULL_OBSERVER),
    ("registry", MetricsRegistry(), NULL_REGISTRY),
    ("counter", Counter("c"), NULL_COUNTER),
    ("gauge", Gauge("g"), NULL_GAUGE),
    ("histogram", Histogram("h"), NULL_HISTOGRAM),
    ("log", EventLog(), NULL_LOG),
    ("profiler", StageProfiler(), NULL_PROFILER),
    ("stage_timer", _real_stage_timer(), NULL_STAGE_TIMER),
]


@pytest.mark.parametrize(
    "real,null", [(r, n) for _, r, n in PAIRS], ids=[p[0] for p in PAIRS]
)
def test_null_twin_covers_real_surface(real, null):
    missing = public_surface(real) - public_surface(null)
    assert not missing, (
        f"{type(null).__name__} lacks {sorted(missing)} — a component "
        f"holding a disabled handle would crash using them"
    )


@pytest.mark.parametrize(
    "real,null", [(r, n) for _, r, n in PAIRS], ids=[p[0] for p in PAIRS]
)
def test_real_covers_null_twin_surface(real, null):
    extra = public_surface(null) - public_surface(real)
    assert not extra, (
        f"{type(null).__name__} exposes {sorted(extra)} that "
        f"{type(real).__name__} lacks — twins must not grow private API"
    )


@pytest.mark.parametrize(
    "real,null", [(r, n) for _, r, n in PAIRS], ids=[p[0] for p in PAIRS]
)
def test_method_signatures_match(real, null):
    for name in sorted(public_surface(real)):
        real_attr = inspect.getattr_static(type(real), name, None)
        null_attr = inspect.getattr_static(type(null), name, None)
        if not (inspect.isfunction(real_attr) and
                inspect.isfunction(null_attr)):
            continue  # data attributes / properties: presence suffices
        real_sig = inspect.signature(real_attr)
        null_sig = inspect.signature(null_attr)
        real_params = list(real_sig.parameters)
        null_params = list(null_sig.parameters)
        assert real_params == null_params, (
            f"{type(real).__name__}.{name}{real_sig} vs "
            f"{type(null).__name__}.{name}{null_sig}"
        )


def test_null_handles_accept_real_call_shapes(tmp_path):
    """Drive each null twin exactly as instrumented hot paths do."""
    obs = NULL_OBSERVER
    obs.bind_clock(lambda: 1.0)
    obs.counter("c", site="NEU").inc(3)
    obs.gauge("g").set(1.5)
    obs.histogram("h").observe(0.25)
    with obs.stage("streaming.windows"):
        pass
    with obs.profiler.owner_timer(public_surface):
        pass
    obs.record_span("window", 0.0, 10.0, site="NEU")
    obs.log.record("event", fn="cb")
    assert not obs.log.ring and not obs.log.spans
    flight = tmp_path / "flight.jsonl"
    assert obs.export(flight_path=str(flight))["flight"] == 0
    assert not flight.exists()
    assert obs.profiler.snapshot(wall_seconds=1.0)["stages"] == {}
    assert len(obs.registry) == 0
    assert obs.export() == {"spans": 0, "series": 0, "flight": 0}
