"""Parallel sweep execution for independent simulation cells.

Every :class:`~repro.sim.engine.SimulationEngine` is hermetic — no global
state — so independent (environment, policy, seed) cells can fan out
across worker processes without sharing anything but their inputs.  This
package provides the ordered fan-out (over the supervised fork pool of
:mod:`repro.resilience`); the sweep *description* layer
(:class:`~repro.experiments.common.SweepSpec`) lives with the experiment
harnesses that use it.
"""

from .executor import (
    available_parallelism,
    map_ordered,
    resolve_jobs,
    supports_fork,
)

__all__ = [
    "available_parallelism",
    "map_ordered",
    "resolve_jobs",
    "supports_fork",
]
