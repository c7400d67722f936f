"""Unit tests for the simulator."""

import functools
import math

import pytest

from repro.obs import NULL_OBSERVER, Observer
from repro.simulation.engine import PeriodicGroup, SimulationError, Simulator
from repro.simulation.units import format_bytes


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    sim.run_until(7.0)
    assert fired == ["a"]
    assert sim.now == 7.0
    sim.run_until(20.0)
    assert fired == ["a", "b"]
    assert sim.now == 20.0


def test_schedule_at_absolute():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, fired.append, "x")
    sim.run_until(3.0)
    assert fired == ["x"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(2.0, lambda: None)


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(10.0)
    with pytest.raises(SimulationError):
        sim.run_until(5.0)


def test_callbacks_can_schedule_more():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run_until(10.0)
    assert fired == [0, 1, 2, 3]
    assert sim.events_processed == 4


def test_cancel_scheduled_event():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, fired.append, "no")
    ev.cancel()
    sim.run_until(5.0)
    assert fired == []


def test_periodic_task_fires_and_stops():
    sim = Simulator()
    count = {"n": 0}

    def tick():
        count["n"] += 1

    task = sim.add_periodic(10.0, tick)
    sim.run_until(35.0)
    assert count["n"] == 3
    task.stop()
    sim.run_until(100.0)
    assert count["n"] == 3
    assert task.stopped


def test_periodic_immediate_start():
    sim = Simulator()
    times = []
    sim.add_periodic(10.0, lambda: times.append(sim.now), start_delay=0.0)
    sim.run_until(25.0)
    assert times == [0.0, 10.0, 20.0]


def test_periodic_invalid_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.add_periodic(0.0, lambda: None)


def test_max_events_guard():
    sim = Simulator(max_events=100)

    def forever():
        sim.schedule(0.0, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run_until(1.0)


def test_determinism_same_seed():
    def run(seed):
        sim = Simulator(seed=seed)
        rng = sim.rngs.get("test")
        out = []
        sim.add_periodic(1.0, lambda: out.append(float(rng.random())))
        sim.run_until(10.0)
        return out

    assert run(7) == run(7)
    assert run(7) != run(8)


# ----------------------------------------------------------------------
# Profiled dispatch: a callback runs in the stage of its owning module
# ----------------------------------------------------------------------
HERE = __name__


class _Component:
    def __init__(self):
        self.calls = 0

    def work(self):
        self.calls += 1


def _profiled_sim():
    obs = Observer()
    sim = Simulator()
    sim.attach_observer(obs)
    return sim, obs.profiler


def test_scheduled_callbacks_run_in_their_owners_stage():
    sim, prof = _profiled_sim()
    comp = _Component()
    elsewhere = functools.partial(format_bytes, 1.0)  # repro.simulation.units
    sim.schedule(1.0, comp.work)
    sim.schedule(2.0, functools.partial(comp.work))
    sim.schedule(3.0, lambda: comp.work())
    sim.schedule(4.0, elsewhere)
    sim.add_periodic(5.0, comp.work)  # PeriodicTask._fire is looked through
    sim.add_periodic(5.0, elsewhere)
    sim.run_until(10.0)
    calls = {name: stat.calls for name, stat in prof.stages().items()}
    assert calls == {"sim.loop": 1, HERE: 5, "simulation.units": 3}
    assert comp.calls == 5


def test_group_members_each_get_their_own_stage():
    sim, prof = _profiled_sim()
    comp = _Component()
    group = PeriodicGroup(sim, 1.0)
    late = []

    def joins_mid_tick():
        if not late:  # first fires on the NEXT tick, under its own name
            late.append(group.add(functools.partial(format_bytes, 1.0)))

    group.add(comp.work)
    group.add(joins_mid_tick)
    sim.run_until(3.0)
    calls = {name: stat.calls for name, stat in prof.stages().items()}
    # No stage for the group's own tick: its loop is the kernel's.
    assert calls == {"sim.loop": 1, HERE: 6, "simulation.units": 2}
    assert late[0].fired == 2


def test_owner_and_nested_stages_tile_the_profiled_window():
    sim, prof = _profiled_sim()
    inner = prof.timer("streaming.windows")

    def crosses_a_layer():
        with inner:
            for _ in range(2000):
                pass

    PeriodicGroup(sim, 1.0).add(crosses_a_layer)
    sim.add_periodic(1.0, crosses_a_layer)
    sim.run_until(5.0)
    assert set(prof.stages()) == {"sim.loop", HERE, "streaming.windows"}
    assert prof.stages()["streaming.windows"].calls == 10
    assert math.isclose(
        prof.accounted_seconds(), prof.wall_seconds, rel_tol=1e-6
    )


def test_null_observer_dispatches_the_raw_callback():
    sim = Simulator()
    comp = _Component()
    callback = comp.work
    event = sim.schedule(1.0, callback)
    member = PeriodicGroup(sim, 1.0).add(callback)
    assert event.callback is callback and member.callback is callback
    assert sim._owner_timer is None
    sim.run_until(1.0)
    assert comp.calls == 2
    assert NULL_OBSERVER.profiler.stages() == {}
