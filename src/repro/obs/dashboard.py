"""Text perf dashboard rendered from a live observer.

Each frame takes two snapshots: the :class:`~repro.obs.profile.StageProfiler`
supplies hottest stages and the wall / virtual window, the metrics
registry supplies the throughput counts, backlog/credit gauges and
breaker states. ``sage perf`` prints the final frame of a profiled
scenario; ``sage dashboard`` re-renders frames while a streaming run
advances (and ``--once`` prints a single snapshot) — both call
:func:`render_dashboard`.
"""

from __future__ import annotations

import math

from repro.analysis.tables import render_table

#: Gauge families surfaced in the "gauges" panel, in display order.
GAUGE_PANEL_PREFIXES = (
    "stream_backlog_depth",
    "stream_backlog_peak",
    "stream_watermark_lag_seconds",
    "flow_ingest_credits",
    "flow_credits_available",
    "runner_shards_inflight",
    "sim_virtual_time_seconds",
)

#: Throughput panel rows: display name -> the registry counter it sums
#: over that counter's label sets.
THROUGHPUT_COUNTERS = (
    ("batches", "ship_batches_total"),
    ("bytes", "ship_bytes_total"),
    ("events", "sim_events_total"),
    ("records", "stream_records_processed_total"),
)

_BREAKER_STATES = {0.0: "closed", 1.0: "half-open", 2.0: "open"}


def _bar(share: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, share)) * width))
    return "#" * filled + "." * (width - filled)


def _fmt_count(value: float) -> str:
    if value >= 10_000_000:
        return f"{value / 1e6:.1f}M"
    if value >= 10_000:
        return f"{value / 1e3:.1f}k"
    return f"{value:g}"


def hottest_stages(profile: dict, top: int = 10) -> str:
    """Top-``top`` stages by exclusive wall time, with share bars."""
    rows = [
        [name, s["calls"], f"{s['seconds']:.4f}",
         f"{100.0 * s['share']:5.1f}%", _bar(s["share"])]
        for name, s in list(profile["stages"].items())[:top]
    ]
    if not rows:
        return "Hot stages\n(no stages profiled)"
    return render_table(
        ["stage", "calls", "self (s)", "share", ""],
        rows,
        title="Hot stages (exclusive wall time)",
    )


def _series(snapshot: dict, kind: str, *names: str):
    """``(series key, snapshot)`` of every ``kind`` series called one of
    ``names`` — in the order the names are given, then by key."""
    for name in names:
        for key in sorted(snapshot):
            snap = snapshot[key]
            if snap.kind == kind and snap.name == name:
                yield key, snap


def throughput_panel(profile: dict, snapshot: dict) -> str:
    """Registry counts and their rates over the profiled window."""
    wall = profile["profiled_seconds"]
    virt = profile["virtual_seconds"]
    rows = []
    for label, counter in THROUGHPUT_COUNTERS:
        series = [snap.value for _, snap in _series(snapshot, "counter", counter)]
        if series:
            count = sum(series)
            rows.append(
                [label, _fmt_count(count),
                 f"{count / wall:,.0f}" if wall > 0 else "0",
                 f"{count / virt:,.0f}" if virt > 0 else "0"]
            )
    if not rows:
        return "Throughput\n(no throughput recorded)"
    return render_table(
        ["quantity", "count", "/s wall", "/s virtual"],
        rows,
        title="Throughput",
    )


def gauges_panel(snapshot: dict) -> str:
    """Backlog/credit gauges and breaker states from the registry."""
    rows: list[list[object]] = []
    for key, snap in _series(snapshot, "gauge", *GAUGE_PANEL_PREFIXES):
        last = "" if math.isnan(snap.value) else f"{snap.value:g}"
        hi = "" if math.isnan(snap.max) else f"{snap.max:g}"
        rows.append([key, last, hi])
    for key, snap in _series(snapshot, "gauge", "flow_breaker_state"):
        if not math.isnan(snap.value):
            state = _BREAKER_STATES.get(snap.value, f"?{snap.value:g}")
            rows.append([key, state, ""])
    if not rows:
        return "Gauges\n(no gauges recorded)"
    return render_table(["gauge", "value", "peak"], rows, title="Gauges")


def lineage_panel(snapshot: dict) -> str:
    """Per-site end-to-end latency percentiles from the lineage layer.

    Empty string (panel hidden) when no lineage histograms exist — runs
    without the streaming aggregator have nothing to show here.
    """
    rows = [
        [dict(snap.labels).get("site", "?"), snap.count, f"{snap.p50:.1f}",
         f"{snap.p95:.1f}", f"{snap.p99:.1f}", f"{snap.max:.1f}"]
        for _, snap in _series(
            snapshot, "histogram", "stream_e2e_latency_seconds"
        )
        if snap.count
    ]
    if not rows:
        return ""
    return render_table(
        ["site", "windows", "p50 (s)", "p95 (s)", "p99 (s)", "max (s)"],
        rows,
        title="End-to-end latency (event time -> emission)",
    )


#: Ledger gauges surfaced in the cost panel, in display order.
_COST_GAUGES = (
    "ledger_usd_per_window",
    "ledger_usd_per_1k_records",
    "ledger_link_egress_usd",
    "ledger_vm_usd",
)


def cost_panel(snapshot: dict) -> str:
    """Attributed spend from the cost ledger (hidden when no charges)."""
    rows = [
        [key, f"${snap.value:.4f}"]
        for key, snap in _series(snapshot, "gauge", *_COST_GAUGES)
        if not math.isnan(snap.value)
    ]
    if not rows:
        return ""
    return render_table(["cost", "usd"], rows, title="Cost ledger")


def slo_panel(snapshot: dict) -> str:
    """SLO-auditor violation counts by kind (hidden when never audited)."""
    rows = [
        [dict(snap.labels).get("kind", "?"), f"{snap.value:g}"]
        for _, snap in _series(snapshot, "counter", "audit_violations_total")
    ]
    if not rows:
        return ""
    return render_table(
        ["violation", "count"], rows, title="SLO violations"
    )


def render_dashboard(
    observer,
    top: int = 10,
    title: str = "SAGE perf",
    wall_seconds: float | None = None,
) -> str:
    """The full dashboard: header + throughput + hot stages + gauges,
    plus lineage/cost/SLO panels whenever their layers recorded data.
    ``wall_seconds`` is the run so far as the caller measured it, for the
    header's coverage (see :meth:`StageProfiler.snapshot`).
    """
    if not observer.enabled:
        return f"{title}\n(observability disabled — nothing to show)"
    profile = observer.profiler.snapshot(wall_seconds=wall_seconds)
    snapshot = observer.registry.snapshot()
    wall = profile["wall_seconds"]
    virt = profile["virtual_seconds"]
    speedup = virt / wall if wall > 0 else 0.0
    header = (
        f"{title} — wall {wall:.2f}s "
        f"({profile['profiled_seconds']:.2f}s profiled), virtual {virt:.0f}s "
        f"({speedup:,.0f}x real time), "
        f"attribution coverage {100.0 * profile['coverage']:.0f}%"
    )
    panels = [
        header,
        throughput_panel(profile, snapshot),
        hottest_stages(profile, top=top),
        gauges_panel(snapshot),
        lineage_panel(snapshot),
        cost_panel(snapshot),
        slo_panel(snapshot),
    ]
    return "\n\n".join(panel for panel in panels if panel)
