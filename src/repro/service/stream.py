"""Deterministic task streams: one jittered task per arrival, on demand.

A batch workload materializes every task up front; a service cannot — at
millions of arrivals the task list *is* the memory bill.  A
:class:`TaskStream` instead builds task ``i`` only when arrival ``i``
fires, from per-index RNG streams, so:

* memory stays O(distinct classes), not O(arrivals);
* task ``i`` is byte-identical no matter how many tasks were built
  before it, in which order, or in which process — the same
  add-a-consumer-never-perturbs-existing-draws contract
  :class:`~repro.util.rng.RngFactory` gives named streams;
* admission comes before the build: an :class:`Arrival` draws only what
  the admission policy reads, so a shed arrival builds no task.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..util.rng import derive_seed
from ..util.validation import check_positive, require
from ..workflows.ensembles import jitter_factors, jittered_member
from ..workflows.library import paper_workload_suite
from ..workflows.task import TaskSpec, WorkloadClass

__all__ = ["Arrival", "TaskStream"]

#: an arrival's draws: (class name, time factor, base scaled by its size factor)
Draws = Tuple[str, float, TaskSpec]


class TaskStream:
    """Sample the ``i``-th service task from a weighted class mix.

    Parameters
    ----------
    classes:
        ``(class name, weight)`` pairs; arrival classes are drawn
        proportionally to weight.
    scale:
        Memory scale for the base suite
        (:func:`~repro.workflows.library.paper_workload_suite`).
    seed:
        Stream seed; two streams with equal ``(classes, scale, seed)``
        produce identical tasks for every index.
    """

    def __init__(
        self,
        classes: Tuple[Tuple[str, int], ...],
        scale: float,
        seed: int,
        *,
        time_jitter: float = 0.10,
        size_jitter: float = 0.10,
    ) -> None:
        require(bool(classes), "a task stream needs at least one class")
        check_positive(scale, "scale")
        self.scale = float(scale)
        suite = paper_workload_suite(scale)
        self._bases: Dict[str, TaskSpec] = {
            name: suite[WorkloadClass[name]] for name, _ in classes
        }
        self._names = [name for name, _ in classes]
        weights = np.asarray([float(w) for _, w in classes], dtype=float)
        self._cum = np.cumsum(weights / weights.sum())
        self.seed = int(seed)
        self.time_jitter = float(time_jitter)
        self.size_jitter = float(size_jitter)

    def bases(self) -> "list[TaskSpec]":
        """The mix's unjittered base tasks, in declared class order
        (what tier sizing provisions against)."""
        return [self._bases[name] for name in self._names]

    def wclass(self, index: int, override: Optional[str] = None) -> str:
        """The class of arrival ``index`` (or the trace's override)."""
        if override is not None:
            require(override in self._bases or override in WorkloadClass.__members__,
                    f"unknown stream class {override!r}")
            return override
        if len(self._names) == 1:
            return self._names[0]
        rng = np.random.default_rng(derive_seed(self.seed, f"svc.class.{index}"))
        return self._names[int(np.searchsorted(self._cum, float(rng.uniform())))]

    def arrival(self, index: int, override: Optional[str] = None) -> "Arrival":
        """Arrival ``index``, drawn only as far as it is asked.  A trace's
        unknown class is rejected here, whether or not it is admitted."""
        if override is not None:
            self.wclass(index, override)
        return Arrival(self, index, override)

    def draws(self, index: int, override: Optional[str] = None) -> Draws:
        """Arrival ``index``'s class draw and its
        :func:`~repro.workflows.ensembles.jitter_factors`, with the size
        factor already applied to the class base."""
        name = self.wclass(index, override)
        base = self._bases.get(name)
        if base is None:  # a trace named a class outside the mix
            base = paper_workload_suite(self.scale)[WorkloadClass[name]]
            self._bases[name] = base
        rng = np.random.default_rng(derive_seed(self.seed, f"svc.{name}.{index}"))
        tf, sf = jitter_factors(rng, self.time_jitter, self.size_jitter)
        return name, tf, base.scaled(sf)

    def task(
        self, index: int, override: Optional[str] = None, *, draws: Optional[Draws] = None
    ) -> TaskSpec:
        """Build arrival ``index``'s task from its :meth:`draws` (taken
        here unless the arrival already took them)."""
        name, tf, sized = draws if draws is not None else self.draws(index, override)
        return jittered_member(sized, f"svc-{index:07d}-{name.lower()}", tf)


class Arrival:
    """One arrival of a :class:`TaskStream`, drawn lazily.

    Admission reads at most :attr:`max_footprint`, which takes the
    arrival's draws once; :meth:`task` builds the task from those same
    draws, or has :meth:`TaskStream.task` take them if admission did not.
    A queue-cap rejection therefore draws nothing, and no shed arrival
    builds a task.
    """

    __slots__ = ("stream", "index", "override", "_draws")

    def __init__(self, stream: TaskStream, index: int, override: Optional[str] = None) -> None:
        self.stream = stream
        self.index = index
        self.override = override
        self._draws: Optional[Draws] = None

    @property
    def max_footprint(self) -> int:
        """The built task's ``max_footprint`` (phase times do not enter
        it), from this arrival's :meth:`TaskStream.draws`, taken once."""
        if self._draws is None:
            self._draws = self.stream.draws(self.index, self.override)
        return self._draws[2].max_footprint

    def task(self) -> TaskSpec:
        """Build the task, from the draws admission took if it took any."""
        return self.stream.task(self.index, self.override, draws=self._draws)
