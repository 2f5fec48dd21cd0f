"""Deterministic task streams: one jittered task per arrival, on demand.

A batch workload materializes every task up front; a service cannot — at
millions of arrivals the task list *is* the memory bill.  A
:class:`TaskStream` instead builds task ``i`` only when arrival ``i``
fires, from per-index RNG streams, so:

* memory stays O(distinct classes), not O(arrivals);
* task ``i`` is byte-identical no matter how many tasks were built
  before it, in which order, or in which process — the same
  add-a-consumer-never-perturbs-existing-draws contract
  :class:`~repro.util.rng.RngFactory` gives named streams.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..util.rng import derive_seed
from ..util.validation import check_positive, require
from ..workflows.ensembles import jittered_member
from ..workflows.library import paper_workload_suite
from ..workflows.task import TaskSpec, WorkloadClass

__all__ = ["TaskStream"]


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

    def task(self, index: int, override: Optional[str] = None) -> TaskSpec:
        """Build arrival ``index``'s task: class draw + the ±jitter of
        :func:`~repro.workflows.ensembles.jittered_member`."""
        name = self.wclass(index, override)
        base = self._bases.get(name)
        if base is None:  # a trace named a class outside the mix
            base = paper_workload_suite(self.scale)[WorkloadClass[name]]
            self._bases[name] = base
        return jittered_member(
            base,
            f"svc-{index:07d}-{name.lower()}",
            np.random.default_rng(derive_seed(self.seed, f"svc.{name}.{index}")),
            self.time_jitter,
            self.size_jitter,
        )
