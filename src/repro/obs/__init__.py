"""Unified observability: metrics + event log + profiling.

The paper's monitoring service drives *decisions*; this layer is the
introspection companion — it records what the engine, the streaming
runtime, and the monitor actually did, in a form that can be exported
(JSONL trace and flight dump, Prometheus text), profiled (per-stage
wall-clock attribution), and folded into reports.

Usage::

    obs = Observer()                      # enabled
    engine = fresh_engine(seed=1, observer=obs)
    ... run ...
    obs.export(trace_path="run.jsonl", metrics_path="run.prom",
               flight_path="flight.jsonl")  # every span / last N entries
    print(render_dashboard(obs))          # hottest stages + throughput
    read_jsonl("run.jsonl")               # entry dicts back

Every instrumented component takes its handles from the observer at
construction time — metric handles (:meth:`Observer.counter`, ...) and
stage timers (:meth:`Observer.stage`). When no observer is supplied the
shared :data:`NULL_OBSERVER` is used and every handle is a no-op
singleton, so the disabled hot path performs one boolean check and
allocates nothing.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable

from repro.obs.audit import AuditReport, SLOAuditor, Violation
from repro.obs.ledger import CostLedger, CostSummary
from repro.obs.lineage import BatchTrace, SiteLeg, WindowLineage, trace_id
from repro.obs.log import NULL_LOG, EventLog, NullEventLog, dump, read_jsonl
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricSnapshot,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.profile import (
    NULL_PROFILER,
    NULL_STAGE_TIMER,
    NullStageProfiler,
    NullStageTimer,
    StageProfiler,
    StageTimer,
)


class Observer:
    """Facade bundling a metrics registry, event log and stage profiler."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry()
        self.log = EventLog(clock)
        self.profiler = StageProfiler(clock)
        #: The log's own method: a span is one entry, written by one call.
        self.record_span = self.log.record_span

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point log/profiler timestamps at a clock (normally ``sim.now``)."""
        self.log.bind_clock(clock)
        self.profiler.bind_clock(clock)

    # Metric handles ---------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self.registry.histogram(name, **labels)

    # Profiling handles ------------------------------------------------
    def stage(self, name: str) -> StageTimer:
        """The (cached) wall-clock stage timer for ``name``."""
        return self.profiler.timer(name)

    # Export -----------------------------------------------------------
    def export(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
        flight_path: str | None = None,
    ) -> dict[str, int]:
        """Write requested dumps; returns counts per artifact kind.

        The trace is every span, stable-sorted by start; the flight dump
        is the ring as it stands.
        """
        from repro.obs.exporters import export_prometheus

        written = {"spans": 0, "series": 0, "flight": 0}
        if trace_path:
            spans = sorted(self.log.spans, key=itemgetter("start"))
            written["spans"] = dump(trace_path, spans)
        if metrics_path:
            export_prometheus(self.registry, metrics_path)
            written["series"] = len(self.registry.snapshot())
        if flight_path:
            written["flight"] = dump(flight_path, self.log.ring)
        return written

    def summary(self) -> str:
        """Human-readable metrics + trace roll-up."""
        from repro.obs.exporters import summary_table, trace_summary

        return summary_table(self.registry) + "\n\n" + trace_summary(
            self.log.spans
        )


class NullObserver:
    """Disabled observability: every handle is a shared no-op."""

    __slots__ = ()
    enabled = False
    registry = NULL_REGISTRY
    log = NULL_LOG
    profiler = NULL_PROFILER

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def counter(self, name: str, **labels: Any):
        return NULL_COUNTER

    def gauge(self, name: str, **labels: Any):
        return NULL_GAUGE

    def histogram(self, name: str, **labels: Any):
        return NULL_HISTOGRAM

    def stage(self, name: str) -> NullStageTimer:
        return NULL_STAGE_TIMER

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:
        pass

    def export(
        self, trace_path=None, metrics_path=None, flight_path=None
    ) -> dict[str, int]:
        return {"spans": 0, "series": 0, "flight": 0}

    def summary(self) -> str:
        return "(observability disabled)"


NULL_OBSERVER = NullObserver()

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "AuditReport",
    "SLOAuditor",
    "Violation",
    "CostLedger",
    "CostSummary",
    "BatchTrace",
    "SiteLeg",
    "WindowLineage",
    "trace_id",
    "MetricsRegistry",
    "NullRegistry",
    "MetricSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "EventLog",
    "NullEventLog",
    "dump",
    "read_jsonl",
    "StageProfiler",
    "NullStageProfiler",
    "StageTimer",
    "NullStageTimer",
    "NULL_LOG",
    "NULL_REGISTRY",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_PROFILER",
    "NULL_STAGE_TIMER",
]
