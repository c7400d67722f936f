"""Deterministic discrete-event simulation kernel.

This package is the foundation every other subsystem builds on: a single
:class:`~repro.simulation.engine.Simulator` advances virtual time, fires
scheduled callbacks in deterministic order, and hands out named, seeded
random streams through :class:`~repro.simulation.random.RngRegistry` so that
every experiment in the repository is reproducible bit-for-bit.
"""

from repro.simulation.engine import PeriodicTask, Simulator
from repro.simulation.events import END_OF_INSTANT, Event, EventQueue
from repro.simulation.random import RngRegistry
from repro.simulation.units import (
    DAY,
    GB,
    HOUR,
    KB,
    MB,
    MBPS,
    MINUTE,
    SECOND,
    TB,
    format_bytes,
    format_duration,
)

__all__ = [
    "Simulator",
    "PeriodicTask",
    "Event",
    "EventQueue",
    "END_OF_INSTANT",
    "RngRegistry",
    "KB",
    "MB",
    "GB",
    "TB",
    "MBPS",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "format_bytes",
    "format_duration",
]
