"""Stage profiler, the event log's ring, dashboard rendering."""

from __future__ import annotations

import functools
import json
import math
import re

import pytest

from repro.obs import EventLog, Observer, StageProfiler, dump, read_jsonl
from repro.obs import log as log_module
from repro.obs.dashboard import render_dashboard
from repro.obs.profile import NULL_PROFILER, NULL_STAGE_TIMER


# ----------------------------------------------------------------------
# StageProfiler
# ----------------------------------------------------------------------
def test_timer_handles_are_cached():
    prof = StageProfiler()
    assert prof.timer("a") is prof.timer("a")
    assert prof.timer("a") is not prof.timer("b")


def test_nested_stages_attribute_exclusive_time():
    """Entering a nested stage pauses the parent: self-times are disjoint."""
    prof = StageProfiler()
    with prof.timer("outer"):
        with prof.timer("inner"):
            for _ in range(20000):
                pass
    stages = prof.stages()
    assert stages["outer"].calls == 1
    assert stages["inner"].calls == 1
    # Exclusive attribution: the sum of self-times equals the profiled
    # wall window (single outermost stage) to within float noise.
    accounted = prof.accounted_seconds()
    assert math.isclose(accounted, prof.wall_seconds, rel_tol=1e-6)
    # The busy loop ran inside "inner", so it must dominate.
    assert stages["inner"].seconds > stages["outer"].seconds


def test_shares_sum_to_one_and_sort_by_self_time():
    prof = StageProfiler()
    with prof.timer("a"):
        with prof.timer("b"):
            for _ in range(50000):
                pass
        with prof.timer("c"):
            pass
    snap = prof.snapshot()
    shares = [s["share"] for s in snap["stages"].values()]
    assert math.isclose(sum(shares), 1.0, abs_tol=1e-9)
    assert list(snap["stages"]) == sorted(
        snap["stages"], key=lambda n: -snap["stages"][n]["seconds"]
    )
    assert next(iter(snap["stages"])) == "b"


def test_virtual_window_tracks_bound_clock():
    now = {"t": 0.0}
    prof = StageProfiler(clock=lambda: now["t"])
    with prof.timer("loop"):
        now["t"] = 120.0  # the outermost stage advanced virtual time
    assert prof.virtual_seconds == pytest.approx(120.0)
    snap = prof.snapshot()
    assert snap["virtual_seconds"] == pytest.approx(120.0)


def test_coverage_against_external_wall():
    prof = StageProfiler()
    with prof.timer("only"):
        for _ in range(10000):
            pass
    wall = prof.wall_seconds / 0.5  # pretend half the run was unprofiled
    snap = prof.snapshot(wall_seconds=wall)
    assert snap["coverage"] == pytest.approx(0.5, rel=1e-6)


def test_reset_zeroes_but_keeps_handles_valid():
    prof = StageProfiler()
    timer = prof.timer("t")
    with timer:
        pass
    prof.reset()
    assert prof.accounted_seconds() == 0.0
    assert prof.wall_seconds == 0.0
    with timer:  # the cached handle still attributes after reset
        pass
    assert prof.stages()["t"].calls == 1


def test_null_handles_are_shared_and_inert():
    assert NULL_PROFILER.timer("a") is NULL_STAGE_TIMER
    assert NULL_PROFILER.owner_timer(len) is NULL_STAGE_TIMER
    with NULL_STAGE_TIMER:
        pass
    assert NULL_PROFILER.stages() == {}


# ----------------------------------------------------------------------
# Owner attribution: a callback's stage is the module that defines it
# ----------------------------------------------------------------------
class _Owner:
    def method(self):
        pass

    def __call__(self):
        pass


def _plain():
    pass


HERE = __name__


@pytest.mark.parametrize(
    "callback",
    [
        _plain,
        _Owner().method,
        functools.partial(functools.partial(_plain)),
        functools.partial(_Owner().method),
        lambda: None,
        _Owner(),
    ],
    ids=["function", "bound-method", "partial", "partial-of-method",
         "lambda", "callable-object"],
)
def test_owner_timer_names_the_defining_module(callback):
    prof = StageProfiler()
    assert prof.owner_timer(callback) is prof.timer(HERE)
    assert set(prof.stages()) == {HERE}


def test_owner_timer_drops_the_repro_prefix_and_caches_per_code_object():
    from repro.cloud.network import FluidNetwork
    from repro.streaming.sources import PoissonSource

    prof = StageProfiler()
    net = prof.owner_timer(FluidNetwork.notify_change)
    assert net is prof.timer("cloud.network")
    assert prof.owner_timer(PoissonSource.start) is prof.timer(
        "streaming.sources"
    )
    # Two bound methods of different instances share one code object.
    assert prof.owner_timer(_Owner().method) is prof.owner_timer(
        _Owner().method
    )
    assert len(prof._owners) == 3


# ----------------------------------------------------------------------
# The event log's ring
# ----------------------------------------------------------------------
def test_ring_keeps_only_the_last_capacity_entries(monkeypatch):
    monkeypatch.setattr(log_module, "RING_CAPACITY", 3)
    log = EventLog()
    for i in range(10):
        log.record("event", seq=i)
    assert [e["seq"] for e in log.ring] == [7, 8, 9]


def test_entries_are_stamped_with_the_bound_clock():
    now = {"t": 5.0}
    log = EventLog(clock=lambda: now["t"])
    log.record("a")
    now["t"] = 7.5
    log.record("b")
    assert [e["t"] for e in log.ring] == [5.0, 7.5]


def test_dump_round_trips_and_stringifies_unserialisable(tmp_path):
    log = EventLog()
    log.record("fault", fault="vm_crash", target=("NEU", 0))
    log.record("event", payload=object())  # no JSON encoder
    path = tmp_path / "flight.jsonl"
    assert dump(str(path), log.ring) == 2
    entries = read_jsonl(str(path))
    assert [e["kind"] for e in entries] == ["fault", "event"]
    assert entries[0]["fault"] == "vm_crash"
    assert isinstance(entries[1]["payload"], str)  # stringified, not lost
    # Every line is independently valid JSON (post-mortem greppability).
    for line in path.read_text().splitlines():
        json.loads(line)


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
def test_render_dashboard_surfaces_stages_meters_gauges():
    obs = Observer()
    with obs.stage("streaming.runtime"):
        with obs.stage("streaming.windows"):
            pass
    # The Throughput panel sums registry counters over their labels.
    obs.counter("stream_records_processed_total", site="NEU").inc(40)
    obs.counter("stream_records_processed_total", site="WEU").inc(2)
    obs.gauge("stream_backlog_depth", site="NEU").set(17)
    obs.gauge("flow_breaker_state", site="NEU").set(2.0)
    text = render_dashboard(obs, title="unit perf")
    assert "unit perf" in text
    assert "streaming.runtime" in text and "streaming.windows" in text
    assert re.search(r"records\s*\|\s*42\s*\|", text)
    assert 'stream_backlog_depth{site="NEU"}' in text
    assert "open" in text  # breaker state decoded, not a bare 2.0


def test_render_dashboard_coverage_is_against_the_given_wall():
    obs = Observer()
    with obs.stage("only"):
        for _ in range(10000):
            pass
    assert "coverage 100%" in render_dashboard(obs)  # its own window
    wall = obs.profiler.wall_seconds / 0.5
    assert "coverage 50%" in render_dashboard(obs, wall_seconds=wall)


def test_render_dashboard_disabled_observer():
    from repro.obs import NULL_OBSERVER

    text = render_dashboard(NULL_OBSERVER)
    assert "disabled" in text


def test_render_dashboard_empty_observer_has_placeholders():
    text = render_dashboard(Observer())
    assert "no stages profiled" in text
    assert "no throughput recorded" in text
    assert "no gauges recorded" in text
