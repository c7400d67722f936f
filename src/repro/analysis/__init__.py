"""Statistics, tables, and experiment bookkeeping for the benchmarks."""

from repro.analysis.stats import (
    StatSummary,
    confidence_interval95,
    summarize,
)
from repro.analysis.tables import format_row, render_table
from repro.analysis.experiments import ExperimentRecord, ShapeCheck
from repro.analysis.introspection import LinkSLA, introspection_report, link_sla

__all__ = [
    "StatSummary",
    "confidence_interval95",
    "summarize",
    "render_table",
    "format_row",
    "ExperimentRecord",
    "ShapeCheck",
    "LinkSLA",
    "link_sla",
    "introspection_report",
]
