"""Generated traffic programs: schedules, flash crowds, schedule sources."""

import numpy as np
import pytest

from repro.gen.traffic import (
    FlashCrowd,
    RateSchedule,
    SourceProgram,
    TrafficProgram,
    render_rates,
    render_sizes,
)
from repro.simulation.engine import Simulator
from repro.streaming.records import RecordBatch
from repro.streaming.sources import ScheduleSource


def rng(seed=7):
    return np.random.Generator(np.random.PCG64(seed))


# ----------------------------------------------------------------------
# RateSchedule
# ----------------------------------------------------------------------
def test_schedule_validates():
    with pytest.raises(ValueError, match="resolution"):
        RateSchedule(resolution=0.0, values=(1.0,))
    with pytest.raises(ValueError, match="at least one"):
        RateSchedule(resolution=60.0, values=())


def test_schedule_lookup_and_clamping():
    sched = RateSchedule(resolution=60.0, values=(1.0, 2.0, 3.0))
    assert sched.at(0.0) == 1.0
    assert sched.at(59.9) == 1.0
    assert sched.at(60.0) == 2.0
    assert sched.at(150.0) == 3.0
    # Clamped outside the grid: a source outliving its program keeps
    # emitting at the final rate instead of going dark mid-drain.
    assert sched.at(-5.0) == 1.0
    assert sched.at(10_000.0) == 3.0
    assert sched.horizon == 180.0
    assert sched.mean == 2.0
    assert sched.peak == 3.0


# ----------------------------------------------------------------------
# FlashCrowd
# ----------------------------------------------------------------------
def test_flash_crowd_rise_peak_decay():
    crowd = FlashCrowd(t_peak=1000.0, peak_factor=5.0, rise_s=100.0, decay_s=200.0)
    assert crowd.factor(0.0) == 1.0
    assert crowd.factor(899.0) == 1.0
    assert crowd.factor(950.0) == pytest.approx(3.0)  # halfway up
    assert crowd.factor(1000.0) == pytest.approx(5.0)
    # Exponential decay: monotone back toward 1.0, never below it.
    tail = [crowd.factor(t) for t in (1100.0, 1400.0, 2200.0)]
    assert tail == sorted(tail, reverse=True)
    assert all(f >= 1.0 for f in tail)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def test_render_rates_deterministic_and_positive():
    crowds = [FlashCrowd(t_peak=1800.0, peak_factor=4.0, rise_s=120.0, decay_s=600.0)]
    a = render_rates(rng(3), 3600.0, 60.0, 10.0, 0.6, 86400.0, crowds)
    b = render_rates(rng(3), 3600.0, 60.0, 10.0, 0.6, 86400.0, crowds)
    assert a == b
    assert len(a.values) == 60
    assert all(v > 0 for v in a.values)
    assert render_rates(rng(4), 3600.0, 60.0, 10.0, 0.6, 86400.0, crowds) != a


def test_flash_crowd_lifts_the_peak():
    crowds = [FlashCrowd(t_peak=1800.0, peak_factor=4.0, rise_s=120.0, decay_s=600.0)]
    quiet = render_rates(rng(3), 3600.0, 60.0, 10.0, 0.0, 86400.0, [])
    crowded = render_rates(rng(3), 3600.0, 60.0, 10.0, 0.0, 86400.0, crowds)
    assert crowded.peak > 3.0 * quiet.peak
    # Overlapping crowds multiply through the strongest member, not stack.
    double = render_rates(rng(3), 3600.0, 60.0, 10.0, 0.0, 86400.0, crowds * 2)
    assert double.peak == crowded.peak


def test_render_sizes_drifts_within_amplitude():
    sizes = render_sizes(rng(5), 7200.0, 60.0, 400.0, 0.25, 21600.0)
    assert all(300.0 <= v <= 500.0 for v in sizes.values)
    assert sizes.peak > sizes.mean  # the drift actually moves


# ----------------------------------------------------------------------
# SourceProgram / TrafficProgram
# ----------------------------------------------------------------------
def program(region="NEU", shape="clicks", seed=11):
    r = rng(seed)
    return SourceProgram(
        name=f"{shape}-{region.lower()}",
        region=region,
        shape_name=shape,
        n_keys=4,
        rates=render_rates(r, 1800.0, 60.0, 8.0, 0.3, 86400.0, []),
        sizes=render_sizes(r, 1800.0, 60.0, 400.0, 0.2, 21600.0),
    )


def test_traffic_program_rollups():
    traffic = TrafficProgram(
        sources=(program("NEU"), program("NEU", "sensors"), program("NUS"))
    )
    by_region = traffic.by_region()
    assert sorted(by_region) == ["NEU", "NUS"]
    assert len(by_region["NEU"]) == 2
    assert traffic.mean_rate() == pytest.approx(
        traffic.mean_rate("NEU") + traffic.mean_rate("NUS")
    )
    summary = traffic.summary()
    assert len(summary["sources"]) == 3
    assert summary["peak_rate"] >= summary["mean_rate"]


def test_build_source_emits_reproducibly():
    src_a = program().build_source()
    src_b = program().build_source()
    assert isinstance(src_a, ScheduleSource)

    def collect(source, seed=9):
        sim = Simulator(seed=seed)
        out = []
        source.attach(sim, "NEU", out.append)
        source.start()
        sim.run_until(300.0)
        source.stop()
        return RecordBatch.concat(out)

    a, b = collect(src_a), collect(src_b)
    assert len(a) > 0
    assert a.t.tolist() == b.t.tolist()
    assert a.keys == b.keys and a.key_idx.tolist() == b.key_idx.tolist()
    # Keys come from the workload shape's keyspace.
    assert all(key.startswith("/page/") for key in a.keys)


def test_schedule_source_tracks_its_program():
    sched = RateSchedule(resolution=60.0, values=(2.0, 50.0))
    src = ScheduleSource("s", rate_fn=sched.at, keys=["k"], tick=1.0)
    sim = Simulator(seed=1)
    out = []
    src.attach(sim, "NEU", out.append)
    src.start()
    sim.run_until(120.0)
    src.stop()
    t = RecordBatch.concat(out).t
    slow, fast = np.count_nonzero(t < 60.0), np.count_nonzero(t >= 60.0)
    # 25x the rate in the second minute must show up in the counts.
    assert fast > 5 * max(1, slow)
