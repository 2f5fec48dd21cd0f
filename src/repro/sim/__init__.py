"""Discrete-event simulation core: engine, events, process helpers."""

from .engine import SimulationEngine
from .events import Event
from .process import PeriodicProcess, ProgressTable, ReportPeriod, TickGroup

__all__ = [
    "SimulationEngine",
    "Event",
    "PeriodicProcess",
    "ProgressTable",
    "ReportPeriod",
    "TickGroup",
]
