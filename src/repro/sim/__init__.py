"""Discrete-event simulation core: engine, events, process helpers."""

from .engine import SimulationEngine
from .events import Event
from .process import PeriodicProcess, RateTracker, ReportPeriod, TickGroup

__all__ = [
    "SimulationEngine",
    "Event",
    "PeriodicProcess",
    "RateTracker",
    "ReportPeriod",
    "TickGroup",
]
