"""Unified observability: metrics + tracing + profiling + flight record.

The paper's monitoring service drives *decisions*; this layer is the
introspection companion — it records what the engine, the streaming
runtime, and the monitor actually did, in a form that can be exported
(JSONL trace, Prometheus text, flight-recorder dump), profiled (per-stage
wall-clock attribution), and folded into reports.

Usage::

    obs = Observer()                      # enabled
    engine = fresh_engine(seed=1, observer=obs)
    ... run ...
    obs.export(trace_path="run.jsonl", metrics_path="run.prom")
    print(render_dashboard(obs))          # hottest stages + throughput
    obs.recorder.dump("flight.jsonl")     # last N events, post-mortem

Every instrumented component takes its handles from the observer at
construction time — metric handles (:meth:`Observer.counter`, ...) and
stage timers (:meth:`Observer.stage`). When no observer is supplied the
shared :data:`NULL_OBSERVER` is used and every handle is a no-op
singleton, so the disabled hot path performs one boolean check and
allocates nothing.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.audit import AuditReport, SLOAuditor, Violation
from repro.obs.ledger import CostLedger, CostSummary
from repro.obs.lineage import BatchTrace, SiteLeg, WindowLineage, trace_id
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
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    NullFlightRecorder,
    read_flight_jsonl,
)
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
)


class Observer:
    """Facade bundling a metrics registry, tracer, profiler, recorder."""

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(clock)
        self.profiler = StageProfiler(clock)
        self.recorder = FlightRecorder(clock=clock)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point span/flight timestamps at a clock (normally ``sim.now``)."""
        self.tracer.bind_clock(clock)
        self.profiler.bind_clock(clock)
        self.recorder.bind_clock(clock)

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

    # Spans ------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        return self.tracer.span(name, **attrs)

    def start_span(self, name: str, parent=None, **attrs: Any) -> Span:
        return self.tracer.start_span(name, parent=parent, **attrs)

    def record_span(self, name, start, end, **attrs: Any) -> Span:
        span = self.tracer.record_span(name, start, end, **attrs)
        # Retro-recorded spans are milestones (window closes, emissions):
        # exactly what a post-mortem flight dump should contain.
        self.recorder.record("span", name=name, start=start, end=end, **attrs)
        return span

    # Export -----------------------------------------------------------
    def export(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
        flight_path: str | None = None,
    ) -> dict[str, int]:
        """Write requested dumps; returns counts per artifact kind."""
        from repro.obs.exporters import export_prometheus, export_trace_jsonl

        written = {"spans": 0, "series": 0, "flight": 0}
        if trace_path:
            written["spans"] = export_trace_jsonl(self.tracer, trace_path)
        if metrics_path:
            export_prometheus(self.registry, metrics_path)
            written["series"] = len(self.registry.snapshot())
        if flight_path:
            written["flight"] = self.recorder.dump(flight_path)
        return written

    def summary(self) -> str:
        """Human-readable metrics + trace roll-up."""
        from repro.obs.exporters import summary_table, trace_summary

        return summary_table(self.registry) + "\n\n" + trace_summary(
            self.tracer
        )


class NullObserver:
    """Disabled observability: every handle is a shared no-op."""

    __slots__ = ()
    enabled = False
    registry = NULL_REGISTRY
    tracer = NULL_TRACER
    profiler = NULL_PROFILER
    recorder = NULL_RECORDER

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

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def start_span(self, name: str, parent=None, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def record_span(self, name, start, end, **attrs: Any) -> NullSpan:
        return NULL_SPAN

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
    "Tracer",
    "NullTracer",
    "Span",
    "NullSpan",
    "StageProfiler",
    "NullStageProfiler",
    "StageTimer",
    "NullStageTimer",
    "FlightRecorder",
    "NullFlightRecorder",
    "read_flight_jsonl",
    "NULL_SPAN",
    "NULL_TRACER",
    "NULL_REGISTRY",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_PROFILER",
    "NULL_STAGE_TIMER",
    "NULL_RECORDER",
]
