"""Introspection-as-a-Service: delivered-performance reports.

The forward-looking idea from the conclusion: the same monitoring that
drives transfer decisions can be *exposed* — to users, as visibility into
the service levels their deployment actually receives; and to providers,
as a metric describing resource configurations. This module turns a
monitoring agent's state into such a report: per-link delivered
throughput percentiles, an availability-style "within x% of nominal"
score, and the learned capacity map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.monitor.agent import MonitoringAgent
from repro.simulation.units import MB


@dataclass(frozen=True)
class LinkSLA:
    """Delivered service level of one directed inter-datacenter link."""

    src: str
    dst: str
    samples: int
    mean: float
    p05: float
    p50: float
    p95: float
    #: Fraction of samples delivering at least 80 % of the median.
    consistency: float
    #: Learned aggregate capacity (None until the link has been loaded).
    capacity: float | None

    @property
    def grade(self) -> str:
        """Letter grade for quick triage."""
        if self.consistency >= 0.95:
            return "A"
        if self.consistency >= 0.85:
            return "B"
        if self.consistency >= 0.70:
            return "C"
        return "D"


def link_sla(monitor: MonitoringAgent, src: str, dst: str) -> LinkSLA:
    """Compute the delivered SLA of one monitored link."""
    history = monitor.histories.get(f"thr/{src}->{dst}")
    if history is None or len(history) == 0:
        raise ValueError(f"no samples recorded for {src}->{dst}")
    values = history.values()
    p50 = float(np.percentile(values, 50))
    consistency = float((values >= 0.8 * p50).mean())
    return LinkSLA(
        src=src,
        dst=dst,
        samples=int(values.size),
        mean=float(values.mean()),
        p05=float(np.percentile(values, 5)),
        p50=p50,
        p95=float(np.percentile(values, 95)),
        consistency=consistency,
        capacity=monitor.capacity_estimate(src, dst),
    )


def introspection_report(monitor: MonitoringAgent, observer=None) -> str:
    """Render the full delivered-performance report.

    ``observer`` (a :class:`repro.obs.Observer`) folds the run's metric
    registry snapshot into the report; the monitor's own observer is used
    when it carries an enabled one and none is passed explicitly.
    """
    lines = [
        "Introspection-as-a-Service — delivered inter-datacenter performance",
        "=" * 68,
        f"{'link':12s} {'n':>5s} {'p05':>7s} {'p50':>7s} {'p95':>7s} "
        f"{'consist':>8s} {'grade':>5s} {'capacity':>9s}",
    ]
    slas = []
    for src, dst in monitor.link_map.pairs():
        try:
            slas.append(link_sla(monitor, src, dst))
        except ValueError:
            continue
    for sla in sorted(slas, key=lambda s: (s.src, s.dst)):
        cap = f"{sla.capacity / MB:.1f}MB/s" if sla.capacity else "-"
        lines.append(
            f"{sla.src}->{sla.dst:8s} {sla.samples:5d} "
            f"{sla.p05 / MB:7.2f} {sla.p50 / MB:7.2f} {sla.p95 / MB:7.2f} "
            f"{sla.consistency:8.0%} {sla.grade:>5s} {cap:>9s}"
        )
    if not slas:
        lines.append("(no monitored links)")
    if observer is None:
        observer = getattr(monitor, "observer", None)
    if observer is not None and observer.enabled and len(observer.registry):
        from repro.obs.exporters import summary_table

        lines.append("")
        lines.append(summary_table(observer.registry))
    return "\n".join(lines)


def streaming_report(runtime) -> str:
    """Per-site flow-control view of a :class:`GeoStreamRuntime` run.

    Surfaces what the overload machinery did: peak backlog against the
    configured bound, records shed/deferred, drain stalls, and the
    shipping layer's in-flight window and breaker state.
    """
    flow = getattr(runtime, "flow", None)
    bound = flow.max_backlog if flow is not None else None
    lines = [
        "Streaming flow report"
        + (f" (policy={flow.policy}, bound={bound})" if flow else " (no flow config)"),
        f"{'site':10s} {'ingested':>9s} {'processed':>10s} {'peak':>6s} "
        f"{'shed':>6s} {'defer':>6s} {'stall':>6s} {'parked':>7s} {'breaker':>9s}",
    ]
    for region, site in sorted(runtime.sites.items()):
        deferred = sum(src.max_deferred for src in site.spec.sources)
        shipping = site.shipping
        breaker = getattr(shipping, "breaker", None)
        lines.append(
            f"{region:10s} {site.records_ingested:9d} "
            f"{site.records_processed:10d} {site.max_backlog:6d} "
            f"{site.records_shed:6d} {deferred:6d} "
            f"{site.blocked_ticks + site.degraded_ticks:6d} "
            f"{getattr(shipping, 'parked', 0):7d} "
            f"{(breaker.state if breaker is not None else '-'):>9s}"
        )
    agg = runtime.aggregator
    lines.append(
        f"aggregator: {len(runtime.results)} results, "
        f"{agg.duplicates_dropped} duplicate batches dropped, "
        f"{agg.late_partials} late partials"
    )
    store = getattr(runtime, "checkpoint_store", None)
    if store is not None:
        lines.append(
            f"checkpoints: {store.saves} saved "
            f"({store.size_bytes('aggregator')} durable bytes for the aggregator), "
            f"{store.loads} restores"
        )
    return "\n".join(lines)
