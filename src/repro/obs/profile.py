"""Hot-path stage profiling: exclusive wall-clock attribution by stage.

:class:`StageProfiler` follows the handle contract of
:mod:`repro.obs.metrics`: a component asks the observer for a
:class:`StageTimer` once, at construction, and drives it from the hot
path; with observability disabled the handle is the shared
:data:`NULL_STAGE_TIMER` and the hot path pays one no-op ``with``.

Attribution is **exclusive** (self-time): entering a nested stage pauses
the enclosing one, so the per-stage seconds are disjoint and sum to the
wall time spent inside the outermost stage. The simulator wraps its
event loop in ``sim.loop`` and runs each callback in the stage
:meth:`StageProfiler.owner_timer` names after the module that defines it
(``streaming.sources``, ``cloud.network``, ...); a stage is hand-placed
only where a callback crosses into another layer (``streaming.windows``
inside the site tick). Coverage ("accounted / measured wall") tells how
much of a run the attribution explains.

The bound clock (normally ``sim.now``) is read when the outermost stage
opens and closes, so the dashboard can report the registry's counters
per wall *and* per virtual second.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any, Callable


class StageTimer:
    """One stage: its accumulated exclusive seconds and call count, and
    the reusable context manager that attributes to them.

    Handles are cached per stage name by the profiler; one timer may be
    entered recursively (the inner entry simply keeps attributing to the
    same stage).
    """

    __slots__ = ("_profiler", "name", "seconds", "calls")

    def __init__(self, profiler: "StageProfiler", name: str) -> None:
        self._profiler = profiler
        self.name = name
        self.seconds = 0.0
        self.calls = 0

    def __enter__(self) -> "StageTimer":
        t = perf_counter()
        prof = self._profiler
        stack = prof._stack
        if stack:
            top = stack[-1]
            top[0].seconds += t - top[1]
        else:
            prof._outer_t0 = t
            prof._outer_v0 = prof._clock()
        stack.append([self, t])
        return self

    def __exit__(self, *exc: Any) -> None:
        # The clock is read after the bookkeeping on the way out (and
        # before it on the way in): a stage pays for its own
        # instrumentation, not its caller.
        prof = self._profiler
        stack = prof._stack
        stage, mark = stack.pop()
        stage.calls += 1
        t = perf_counter()
        stage.seconds += t - mark
        if stack:
            stack[-1][1] = t
        else:
            prof.wall_seconds += t - prof._outer_t0
            prof.virtual_seconds += max(0.0, prof._clock() - prof._outer_v0)


class StageProfiler:
    """Creates stage timers; snapshots shares and coverage."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._timers: dict[str, StageTimer] = {}
        #: code object (or type, for other callables) -> its owner's timer.
        self._owners: dict[Any, StageTimer] = {}
        #: [timer, mark] per open stage; mark is the perf_counter reading
        #: the stage last resumed at (entry, or a nested stage's exit).
        self._stack: list[list] = []
        self._outer_t0 = 0.0
        self._outer_v0 = 0.0
        #: Wall seconds spent inside outermost stages (the profiled window).
        self.wall_seconds = 0.0
        #: Virtual seconds the profiled window advanced the bound clock.
        self.virtual_seconds = 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the virtual-time window at a clock (normally ``sim.now``)."""
        self._clock = clock

    def timer(self, name: str) -> StageTimer:
        """The (cached) stage timer handle for ``name``."""
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = StageTimer(self, name)
        return timer

    def owner_timer(self, callback: Callable[..., Any]) -> StageTimer:
        """The timer of the stage named after ``callback``'s owning module.

        The owner is the module that defines the function, seen through
        ``functools.partial`` and bound methods, with the ``repro.``
        prefix dropped (``repro.cloud.network`` -> ``cloud.network``).
        Resolved once per code object.
        """
        fn = callback
        while isinstance(fn, partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        key = getattr(fn, "__code__", None) or type(fn)
        timer = self._owners.get(key)
        if timer is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            timer = self._owners[key] = self.timer(
                module.removeprefix("repro.")
            )
        return timer

    def stages(self) -> dict[str, StageTimer]:
        return dict(self._timers)

    def accounted_seconds(self) -> float:
        """Total exclusive seconds attributed across all stages."""
        return sum(s.seconds for s in self._timers.values())

    def snapshot(self, wall_seconds: float | None = None) -> dict[str, Any]:
        """Shares and coverage over the profiled window.

        Coverage is attributed seconds over ``wall_seconds``, the
        caller's own measurement of the run (default: the profiled
        window, where it is ~1.0 by construction). Shares are over the
        attributed seconds, so they sum to 1.0 whenever any stage ran.
        """
        accounted = self.accounted_seconds()
        wall = self.wall_seconds if wall_seconds is None else wall_seconds
        stages = {
            name: {
                "seconds": stat.seconds,
                "calls": stat.calls,
                "share": stat.seconds / accounted if accounted > 0 else 0.0,
            }
            for name, stat in sorted(
                self._timers.items(), key=lambda kv: -kv[1].seconds
            )
        }
        return {
            "wall_seconds": wall,
            "profiled_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "accounted_seconds": accounted,
            "coverage": accounted / wall if wall > 0 else 0.0,
            "stages": stages,
        }

    def reset(self) -> None:
        """Zero all accumulated stats (handles stay valid)."""
        for stage in self._timers.values():
            stage.seconds = 0.0
            stage.calls = 0
        self.wall_seconds = 0.0
        self.virtual_seconds = 0.0


# ----------------------------------------------------------------------
# Disabled path: shared, stateless no-op handles.
# ----------------------------------------------------------------------
class NullStageTimer:
    __slots__ = ()
    name = ""
    seconds = 0.0
    calls = 0

    def __enter__(self) -> "NullStageTimer":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_STAGE_TIMER = NullStageTimer()


class NullStageProfiler:
    """Profiler façade that hands out the shared no-op handles."""

    __slots__ = ()
    wall_seconds = 0.0
    virtual_seconds = 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def timer(self, name: str) -> NullStageTimer:
        return NULL_STAGE_TIMER

    def owner_timer(self, callback: Callable[..., Any]) -> NullStageTimer:
        return NULL_STAGE_TIMER

    def stages(self) -> dict[str, StageTimer]:
        return {}

    def accounted_seconds(self) -> float:
        return 0.0

    def snapshot(self, wall_seconds: float | None = None) -> dict[str, Any]:
        return StageProfiler().snapshot(wall_seconds)  # of nothing: all zero

    def reset(self) -> None:
        pass


NULL_PROFILER = NullStageProfiler()
