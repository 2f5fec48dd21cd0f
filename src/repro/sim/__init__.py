"""Discrete-event simulation core: engine, events, process helpers."""

from .engine import SimulationEngine
from .events import Event
from .process import ProgressTable, TickGroup

__all__ = [
    "SimulationEngine",
    "Event",
    "ProgressTable",
    "TickGroup",
]
