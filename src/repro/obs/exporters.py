"""Exporters: Prometheus text exposition and summary tables.

Two audiences, two formats (machines replaying a run read the event
log's JSONL, :func:`repro.obs.log.dump`):

* scrapers and dashboards — the Prometheus text exposition format
  (counters and gauges verbatim, histograms as quantile summaries);
* humans at a terminal — aligned tables over the registry snapshot and
  the recorded spans, rendered with the same helper the experiment
  harness uses.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.analysis.tables import render_table
from repro.obs.metrics import MetricSnapshot


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition spec.

    Inside a quoted label value, backslash, double-quote, and newline
    must appear as ``\\\\``, ``\\"``, and ``\\n`` — in that order of
    replacement, so an already-present backslash is never re-escaped.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(pairs, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = [*pairs, *extra]
    if not items:
        return ""
    return (
        "{"
        + ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
        + "}"
    )


def prometheus_text(registry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    families: dict[str, list[MetricSnapshot]] = {}
    for snap in (m.snapshot() for m in registry):
        families.setdefault(snap.name, []).append(snap)
    lines: list[str] = []
    for name in sorted(families):
        snaps = families[name]
        kind = snaps[0].kind
        # Histograms export as quantile summaries.
        lines.append(
            f"# TYPE {name} {'summary' if kind == 'histogram' else kind}"
        )
        for snap in sorted(snaps, key=lambda s: s.labels):
            if kind == "histogram":
                for q, v in (
                    ("0.5", snap.p50), ("0.95", snap.p95), ("0.99", snap.p99)
                ):
                    lines.append(
                        f"{name}"
                        f"{_labels_text(snap.labels, (('quantile', q),))} "
                        f"{_fmt(v)}"
                    )
                lines.append(
                    f"{name}_sum{_labels_text(snap.labels)} {_fmt(snap.sum)}"
                )
                lines.append(
                    f"{name}_count{_labels_text(snap.labels)} {snap.count}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(snap.labels)} {_fmt(snap.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def export_prometheus(registry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry))


# ----------------------------------------------------------------------
# Human-readable summary
# ----------------------------------------------------------------------
def summary_table(registry, title: str = "Run metrics") -> str:
    """Registry snapshot as an aligned table for reports and the CLI."""
    rows: list[list[object]] = []
    for key in sorted(snap_map := registry.snapshot()):
        s = snap_map[key]
        if s.kind == "counter":
            rows.append([key, s.kind, f"{s.value:g}", "", "", ""])
        elif s.kind == "gauge":
            last = "" if math.isnan(s.value) else f"{s.value:g}"
            hi = "" if math.isnan(s.max) else f"{s.max:g}"
            rows.append([key, s.kind, last, "", "", hi])
        else:
            rows.append([
                key,
                s.kind,
                str(s.count),
                "" if math.isnan(s.mean) else f"{s.mean:.4g}",
                "" if math.isnan(s.p95) else f"{s.p95:.4g}",
                "" if math.isnan(s.max) else f"{s.max:.4g}",
            ])
    if not rows:
        return f"{title}\n(no metrics recorded)"
    return render_table(
        ["metric", "type", "value/n", "mean", "p95", "max"],
        rows,
        title=title,
    )


def trace_summary(spans: Iterable[dict[str, Any]], limit: int = 12) -> str:
    """Per-span-name duration roll-up of a trace (top ``limit`` names)."""
    groups: dict[str, list[float]] = {}
    for span in spans:
        groups.setdefault(span["name"], []).append(span["end"] - span["start"])
    rows: list[list[object]] = []
    ranked: Iterable[str] = sorted(
        groups, key=lambda n: -sum(groups[n])
    )[:limit]
    for name in ranked:
        durations = sorted(groups[name])
        n = len(durations)
        rows.append([
            name,
            n,
            f"{sum(durations) / n:.4g}",
            f"{durations[n // 2]:.4g}",
            f"{durations[-1]:.4g}",
        ])
    if not rows:
        return "Trace spans\n(no spans recorded)"
    return render_table(
        ["span", "n", "mean (s)", "p50 (s)", "max (s)"],
        rows,
        title="Trace spans",
    )
