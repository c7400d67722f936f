"""Stream sources: where geo-distributed data is born.

Each source is attached to one site of the runtime and emits records into
it on simulator time. Emission is batched per tick (default one second of
virtual time) — event times are drawn inside the tick, so event-time
semantics stay exact while the event count stays tractable at high rates.

Sources participate in credit-based backpressure: a sink may return the
number of records it admitted (anything less than offered means the site's
ingest buffer is full under the ``block`` overload policy). The rejected
tail is *deferred* — held in the source's pending buffer with its original
event times and re-offered first on the next tick — so a throttled source
loses nothing; the deferral simply shows up as end-to-end latency.
Sinks returning ``None`` (the historical contract) admit everything.

Every source hands its sink one columnar
:class:`~repro.streaming.records.RecordBatch` per tick — never a
``Record`` object per event. The order in which a source draws from its
named RNG stream is part of its contract (pinned digests depend on it);
``tests/_source_oracle.py`` holds the per-record draw loops the
Poisson-family sources are compared against, column for column.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.simulation.engine import PeriodicTask, Simulator
from repro.streaming.records import RecordBatch

#: The pending buffer of a source whose sink took everything offered.
_NOTHING_PENDING = RecordBatch.empty()


class StreamSource:
    """Base class wiring a source to the simulator.

    Subclasses implement :meth:`_emit_tick`, returning the records of one
    tick interval as one :class:`RecordBatch`. ``sink`` is set by the
    runtime when the source is attached to a site.
    """

    def __init__(
        self,
        name: str,
        tick: float = 1.0,
        record_bytes: float = 200.0,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.name = name
        self.tick = tick
        self.record_bytes = record_bytes
        self.sink: Callable[[RecordBatch], int | None] | None = None
        self.origin: str = ""
        #: Records the sink accepted (deferred records count on delivery).
        self.records_emitted = 0
        #: Sink-rejected records awaiting re-offer (block backpressure).
        self._pending = _NOTHING_PENDING
        #: High-water mark of the pending buffer.
        self.max_deferred = 0
        self._task: PeriodicTask | None = None
        self._draining = False
        self._sim: Simulator | None = None

    # ------------------------------------------------------------------
    def attach(
        self, sim: Simulator, origin: str, sink, *, batch_default: bool = True
    ) -> None:
        # The keyword selected the emission plane while there were two;
        # the benchmark's micro-benches still pass it (as True).
        if not batch_default:
            raise ValueError("sources emit RecordBatches; there is no list plane")
        self._sim = sim
        self.origin = origin
        self.sink = sink

    def start(self, *, schedule=None) -> None:
        """Begin ticking. ``schedule`` optionally overrides how the tick
        is driven (the site runtime passes its shared
        :meth:`~repro.simulation.engine.PeriodicGroup.add` so all of a
        site's sources ride one queue event per tick)."""
        if self._sim is None or self.sink is None:
            raise RuntimeError("source must be attached to a site first")
        if self._task is not None:
            if self._draining:  # resume a draining source in place
                self._draining = False
                return
            raise RuntimeError("source already started")
        self._draining = False
        if schedule is not None:
            self._task = schedule(self._fire)
        else:
            self._task = self._sim.add_periodic(self.tick, self._fire)

    def stop(self, drain: bool = False) -> None:
        """Stop the source; with ``drain``, finish delivering first.

        Under ``block`` the pending buffer may hold deferred records,
        and the site watermark is pinned at their oldest event time —
        a hard stop would therefore leave every later window open (and
        their already-admitted records unemitted) forever. ``drain``
        keeps the tick firing without generating fresh records, re-
        offering the deferred tail until the site admits all of it,
        then retires the task.
        """
        if drain and len(self._pending) and self._task is not None:
            self._draining = True
            return
        self._draining = False
        if self._task is not None:
            self._task.stop()
            self._task = None

    def _fire(self) -> None:
        assert self._sim is not None and self.sink is not None
        fresh = (
            RecordBatch.empty(self.origin)
            if self._draining
            else self._emit_tick(self._sim.now - self.tick, self._sim.now)
        )
        records = self._pending + fresh if len(self._pending) else fresh
        offered = len(records)
        if not offered:
            if self._draining:
                self.stop()
            return
        accepted = self.sink(records)
        if accepted is None:  # a sink that returns nothing admitted everything
            accepted = offered
        self.records_emitted += accepted
        deferred = offered - accepted
        self._pending = records[accepted:] if deferred else _NOTHING_PENDING
        if deferred > self.max_deferred:
            self.max_deferred = deferred
        if self._draining and not deferred:
            self.stop()

    @property
    def pending_count(self) -> int:
        """Deferred records still waiting for ingest credits."""
        return len(self._pending)

    @property
    def running(self) -> bool:
        return self._task is not None

    @property
    def oldest_pending_time(self) -> float | None:
        """Event time of the oldest deferred record (None if empty).

        The site's watermark must not pass this: a deferred record is
        *admitted late by the site's own choice*, and turning that into
        a late-drop would make the ``block`` policy lossy.
        """
        pending = self._pending
        return pending.first_event_time if len(pending) else None

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        raise NotImplementedError  # pragma: no cover - abstract

    def _rng(self) -> np.random.Generator:
        assert self._sim is not None
        return self._sim.rngs.get(f"source/{self.name}")


class _PoissonArrivals(StreamSource):
    """Sources whose tick is a Poisson count of uniformly placed arrivals."""

    def __init__(
        self,
        name: str,
        keys: list[str] | None,
        tick: float,
        record_bytes: float,
    ) -> None:
        super().__init__(name, tick, record_bytes)
        self.keys = keys or ["k0"]
        self._key_table: tuple[str, ...] | None = None

    def _draw(
        self,
        rng: np.random.Generator,
        mean: float,
        t0: float,
        t1: float,
        *,
        key_cdf: np.ndarray | None = None,
        value_fn: Callable[[np.random.Generator], float] | None = None,
        size_at: Callable[[float], float] | None = None,
    ) -> RecordBatch:
        """One tick's arrivals. The RNG call order — count, times, key
        pick, values — is fixed: pinned digests replay this stream (an
        array fill consumes the bit stream exactly like n scalar calls;
        ``size_at`` draws nothing)."""
        n = int(rng.poisson(mean)) if mean > 0 else 0
        if n == 0:
            return RecordBatch.empty(self.origin)
        # Bit for bit rng.uniform(t0, t1, n) sorted: uniform is t0 +
        # (t1 - t0) * random(n) too, but costs twice as much at small n.
        times = rng.random(n)
        times *= t1 - t0
        times += t0
        times.sort()
        if key_cdf is not None:
            # rng.choice(len(keys), size=n, p=...) draws exactly this,
            # after re-validating p and re-summing its CDF on every call.
            key_idx = key_cdf.searchsorted(rng.random(n), side="right")
        else:
            key_idx = rng.integers(0, len(self.keys), n)
        if size_at is not None:
            sizes = np.fromiter((size_at(float(t)) for t in times), np.float64, n)
        else:
            sizes = np.full(n, self.record_bytes, dtype=np.float64)
        if value_fn is None:
            values = rng.standard_normal(n)  # rng.normal(size=n), bit for bit
        else:
            # A custom value_fn draws one value at a time, in record order.
            values = np.fromiter(
                (float(value_fn(rng)) for _ in range(n)), np.float64, n
            )
        if self._key_table is None or len(self._key_table) != len(self.keys):
            self._key_table = tuple(self.keys)
        return RecordBatch(
            times, key_idx, values, sizes, self._key_table, self.origin
        )


class PoissonSource(_PoissonArrivals):
    """Memoryless arrivals at a constant mean rate."""

    def __init__(
        self,
        name: str,
        rate: float,
        keys: list[str] | None = None,
        value_fn: Callable[[np.random.Generator], float] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
    ) -> None:
        super().__init__(name, keys, tick, record_bytes)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        #: ``None`` = standard-normal values, drawn as one array.
        self.value_fn = value_fn

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        return self._draw(
            self._rng(), self.rate * (t1 - t0), t0, t1, value_fn=self.value_fn
        )


class MmppSource(_PoissonArrivals):
    """Bursty arrivals: a two-state Markov-modulated Poisson process.

    The source alternates between a quiet state (``base_rate``) and a
    burst state (``burst_rate``); sojourn times are exponential. Models
    the load spikes that stress batching and WAN scheduling.
    """

    def __init__(
        self,
        name: str,
        base_rate: float,
        burst_rate: float,
        mean_quiet: float = 60.0,
        mean_burst: float = 10.0,
        keys: list[str] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
    ) -> None:
        super().__init__(name, keys, tick, record_bytes)
        if base_rate <= 0 or burst_rate <= 0:
            raise ValueError("rates must be positive")
        if mean_quiet <= 0 or mean_burst <= 0:
            raise ValueError("sojourn times must be positive")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.mean_quiet = mean_quiet
        self.mean_burst = mean_burst
        self._bursting = False
        self._switch_at: float | None = None

    def current_rate(self) -> float:
        return self.burst_rate if self._bursting else self.base_rate

    def _advance_state(self, t0: float, t1: float, rng) -> None:
        if self._switch_at is None:
            self._switch_at = t0 + rng.exponential(self.mean_quiet)
        while self._switch_at <= t1:
            self._bursting = not self._bursting
            hold = self.mean_burst if self._bursting else self.mean_quiet
            self._switch_at += rng.exponential(hold)

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        rng = self._rng()
        self._advance_state(t0, t1, rng)  # state switches draw first
        return self._draw(rng, self.current_rate() * (t1 - t0), t0, t1)


class SensorGridSource(StreamSource):
    """A grid of sensors each reporting periodically with jitter.

    Values follow per-sensor slow random walks plus noise — realistic for
    environmental monitoring and easy to aggregate meaningfully (means,
    extremes per region).

    Each pass of the tick reports every still-due sensor once, drawing
    noise and next-report jitter as one array each across all due
    sensors — so the RNG interleaving is per round, not per sensor.
    ``tests/test_streaming_sources.py`` pins the resulting stream by
    value.
    """

    def __init__(
        self,
        name: str,
        n_sensors: int,
        report_interval: float = 10.0,
        tick: float = 1.0,
        record_bytes: float = 120.0,
        drift_sigma: float = 0.02,
        noise_sigma: float = 0.1,
    ) -> None:
        super().__init__(name, tick, record_bytes)
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        if report_interval <= 0:
            raise ValueError("report_interval must be positive")
        self.n_sensors = n_sensors
        self.report_interval = report_interval
        self.drift_sigma = drift_sigma
        self.noise_sigma = noise_sigma
        self._levels: np.ndarray | None = None
        #: Each tick's drift draws, filled in place.
        self._drift = np.empty(n_sensors)
        self._next_report: np.ndarray | None = None
        self._key_table: tuple[str, ...] | None = None
        #: The constant ``size`` column; a tick slices what it needs.
        self._sizes = np.full(n_sensors, float(record_bytes))

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        # Loop depth is max reports per sensor per tick (usually 1), not
        # total reports.
        rng = self._rng()
        if self._levels is None:
            self._levels = rng.normal(20.0, 5.0, self.n_sensors)
            self._next_report = t0 + rng.uniform(
                0, self.report_interval, self.n_sensors
            )
        next_report = self._next_report
        assert next_report is not None
        # ``normal(0, s)`` is ``0 + s * z`` and ``uniform(lo, hi)`` is
        # ``lo + (hi - lo) * u``: the same draws from the same stream,
        # without the per-call broadcasting of either.
        drift = rng.standard_normal(out=self._drift)
        drift *= self.drift_sigma
        self._levels += drift
        if self._key_table is None:
            self._key_table = tuple(
                f"{self.name}/s{idx:04d}" for idx in range(self.n_sensors)
            )
        rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        due = (next_report < t1).nonzero()[0]
        while due.size:
            report_t = next_report[due]
            value = self._levels[due] + rng.standard_normal(due.size) * self.noise_sigma
            next_report[due] = report_t + self.report_interval * (
                rng.random(due.size) * (1.1 - 0.9) + 0.9
            )
            rounds.append((np.maximum(report_t, t0), due, value))
            due = due[next_report[due] < t1]
        if not rounds:
            return RecordBatch.empty(self.origin)
        if len(rounds) == 1:  # the usual tick: no list of columns to join
            t, sensor_idx, value = rounds[0]
        else:
            t, sensor_idx, value = (np.concatenate(c) for c in zip(*rounds))
        order = t.argsort(kind="stable")
        if t.size > self._sizes.size:  # several rounds in one tick
            self._sizes = np.full(t.size, self.record_bytes)
        return RecordBatch(
            t[order],
            sensor_idx[order],
            value[order],
            self._sizes[:t.size],
            self._key_table,
            self.origin,
        )

    @property
    def mean_rate(self) -> float:
        return self.n_sensors / self.report_interval


class ScheduleSource(_PoissonArrivals):
    """Poisson arrivals driven by an arbitrary rate program.

    ``rate_fn(t)`` gives the instantaneous arrival rate at time ``t``
    *relative to the source's first tick* (the same convention
    :class:`BurstSource` and fault plans use, so a generated schedule
    means the same thing regardless of engine warm-up length).
    ``bytes_fn(t)``, when given, sizes records by the same clock —
    generated scenarios use it for slow drift in record sizes. Optional
    ``key_weights`` skew the key distribution (e.g. zipf-like page
    popularity) instead of the uniform pick of :class:`PoissonSource`.

    Each tick's expected count is the rate at the tick's midpoint times
    the tick length (the midpoint rule), so the schedule need not be
    piecewise-constant on tick boundaries.
    """

    def __init__(
        self,
        name: str,
        rate_fn: Callable[[float], float],
        keys: list[str] | None = None,
        key_weights: list[float] | None = None,
        bytes_fn: Callable[[float], float] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
    ) -> None:
        super().__init__(name, keys, tick, record_bytes)
        self.rate_fn = rate_fn
        if key_weights is not None:
            if len(key_weights) != len(self.keys):
                raise ValueError("key_weights must match keys in length")
            if any(w < 0 for w in key_weights) or sum(key_weights) <= 0:
                raise ValueError("key_weights must be non-negative, sum > 0")
            total = float(sum(key_weights))
            # The CDF numpy's weighted choice builds from p, built once.
            cdf = (np.asarray(key_weights, dtype=float) / total).cumsum()
            cdf /= cdf[-1]
            self._key_cdf: np.ndarray | None = cdf
        else:
            self._key_cdf = None
        self.bytes_fn = bytes_fn
        self._origin_time: float | None = None

    def rate_at(self, t: float) -> float:
        """Arrival rate at virtual time ``t`` (after the source started)."""
        origin = self._origin_time if self._origin_time is not None else 0.0
        return max(0.0, float(self.rate_fn(t - origin)))

    def _mean_count(self, t0: float, t1: float) -> float:
        return self.rate_at(t0 + (t1 - t0) / 2.0) * (t1 - t0)

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        if self._origin_time is None:
            self._origin_time = t0
        bytes_fn, origin_t = self.bytes_fn, self._origin_time
        return self._draw(
            self._rng(),
            self._mean_count(t0, t1),
            t0,
            t1,
            key_cdf=self._key_cdf,
            size_at=(
                None
                if bytes_fn is None
                else lambda t: max(1.0, float(bytes_fn(t - origin_t)))
            ),
        )


class BurstSource(_PoissonArrivals):
    """Poisson arrivals with one scripted overload burst.

    Emits at ``base_rate`` except inside ``[burst_start, burst_end)``,
    where the rate jumps to ``burst_rate``. Unlike :class:`MmppSource`
    the burst window is part of the schedule, not random — the overload
    experiments need the 5× spike at a known time so backpressure,
    shedding, and recovery can be asserted against it deterministically.

    The burst window is *relative to the source's first tick* (like
    fault-plan times are relative to arming), so the scenario means the
    same thing regardless of how long the engine warmed up before.
    """

    def __init__(
        self,
        name: str,
        base_rate: float,
        burst_rate: float,
        burst_start: float,
        burst_end: float,
        keys: list[str] | None = None,
        tick: float = 1.0,
        record_bytes: float = 200.0,
    ) -> None:
        super().__init__(name, keys, tick, record_bytes)
        if base_rate < 0 or burst_rate <= 0:
            raise ValueError("rates must be positive (base may be zero)")
        if burst_end <= burst_start:
            raise ValueError("burst window must have positive length")
        self.base_rate = base_rate
        self.burst_rate = burst_rate
        self.burst_start = burst_start
        self.burst_end = burst_end
        self._origin_time: float | None = None

    def rate_at(self, t: float) -> float:
        """Arrival rate at virtual time ``t`` (after the source started)."""
        origin = self._origin_time if self._origin_time is not None else 0.0
        if origin + self.burst_start <= t < origin + self.burst_end:
            return self.burst_rate
        return self.base_rate

    def _emit_tick(self, t0: float, t1: float) -> RecordBatch:
        if self._origin_time is None:
            self._origin_time = t0
        # Integrate the piecewise-constant rate over the tick so a tick
        # straddling a burst boundary draws the exact expected count.
        lo = self._origin_time + self.burst_start
        hi = self._origin_time + self.burst_end
        burst_overlap = max(0.0, min(t1, hi) - max(t0, lo))
        mean = (
            self.base_rate * ((t1 - t0) - burst_overlap)
            + self.burst_rate * burst_overlap
        )
        return self._draw(self._rng(), mean, t0, t1)
