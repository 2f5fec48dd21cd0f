"""Workflow DAGs.

HPC jobs arrive as workflows: DAGs of tasks where edges are
producer→consumer dependencies (§I).  :class:`Workflow` keys each
:class:`~repro.workflows.task.TaskSpec` by its task id and keeps the edges
as insertion-ordered predecessor and successor sets, with the validation
and traversal helpers the WMS planner needs.  Traversals visit tasks and
edges in the order they were added, as a ``networkx.DiGraph`` does, and
:meth:`Workflow.stages` follows networkx 3's ``topological_generations``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..util.errors import WorkflowError
from .task import TaskSpec

__all__ = ["Workflow", "chain_workflow", "fan_out_workflow", "diamond_workflow"]


class Workflow:
    """A named DAG of tasks.

    A task only gains edges from tasks already present, and
    :meth:`add_dependency` refuses an edge that would close a cycle, so
    the graph is acyclic by construction.

    Examples
    --------
    >>> wf = Workflow("demo")
    >>> _ = wf.add_task(pre);  _ = wf.add_task(sim, after=[pre.name])
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._specs: dict[str, TaskSpec] = {}
        # task id -> its producers / consumers, as dicts used as ordered sets
        self._preds: dict[str, dict[str, None]] = {}
        self._succs: dict[str, dict[str, None]] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_task(self, spec: TaskSpec, after: Iterable[str] = ()) -> str:
        """Add ``spec`` (keyed by its name), depending on tasks ``after``.

        Every name is checked before anything changes, so a rejected call
        leaves the workflow as it was."""
        tid = spec.name
        if tid in self._specs:
            raise WorkflowError(f"duplicate task {tid!r} in workflow {self.name!r}")
        deps = dict.fromkeys(after)
        for dep in deps:
            if dep not in self._specs:
                raise WorkflowError(f"dependency {dep!r} not in workflow {self.name!r}")
        self._specs[tid] = spec
        self._preds[tid] = deps
        self._succs[tid] = {}
        for dep in deps:
            self._succs[dep][tid] = None
        return tid

    def add_dependency(self, producer: str, consumer: str) -> None:
        for t in (producer, consumer):
            if t not in self._specs:
                raise WorkflowError(f"unknown task {t!r}")
        if self._reaches(consumer, producer):
            raise WorkflowError(f"{producer!r}->{consumer!r} would create a cycle")
        self._succs[producer][consumer] = None
        self._preds[consumer][producer] = None

    def _reaches(self, source: str, target: str) -> bool:
        """Whether ``target`` is ``source`` or one of its descendants."""
        seen = {source}
        stack = [source]
        while stack:
            tid = stack.pop()
            if tid == target:
                return True
            for succ in self._succs[tid]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _unknown(self, task_id: str) -> WorkflowError:
        return WorkflowError(f"unknown task {task_id!r} in workflow {self.name!r}")

    def spec(self, task_id: str) -> TaskSpec:
        try:
            return self._specs[task_id]
        except KeyError:
            raise self._unknown(task_id) from None

    def tasks(self) -> Iterator[TaskSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._specs

    def dependencies(self, task_id: str) -> tuple[str, ...]:
        try:
            return tuple(self._preds[task_id])
        except KeyError:
            raise self._unknown(task_id) from None

    def dependents(self, task_id: str) -> tuple[str, ...]:
        try:
            return tuple(self._succs[task_id])
        except KeyError:
            raise self._unknown(task_id) from None

    def edges(self) -> list[tuple[str, str]]:
        """Every (producer, consumer) pair, grouped by producer in task
        order, each producer's consumers in the order they were added."""
        return [(tid, succ) for tid, succs in self._succs.items() for succ in succs]

    def roots(self) -> tuple[str, ...]:
        return tuple(tid for tid, preds in self._preds.items() if not preds)

    def _generations(self) -> list[list[str]]:
        """Kahn's algorithm one generation at a time, as networkx 3's
        ``topological_generations``: the roots in task order, then each
        generation in the order its tasks lost their last pending
        producer while the previous generation was walked in order."""
        pending = {tid: len(preds) for tid, preds in self._preds.items()}
        generation = [tid for tid, n in pending.items() if n == 0]
        out = []
        while generation:
            out.append(generation)
            released = []
            for tid in generation:
                for succ in self._succs[tid]:
                    pending[succ] -= 1
                    if pending[succ] == 0:
                        released.append(succ)
            generation = released
        return out

    def topological_order(self) -> list[str]:
        return [tid for generation in self._generations() for tid in generation]

    def stages(self) -> list[list[str]]:
        """Antichain decomposition: tasks grouped by dependency depth —
        everything in a stage may run concurrently."""
        return [sorted(generation) for generation in self._generations()]

    def critical_path_time(self) -> float:
        """Lower bound on makespan: longest ideal-duration path."""
        best: dict[str, float] = {}
        for tid in self.topological_order():
            spec = self.spec(tid)
            preds = self.dependencies(tid)
            start = max((best[p] for p in preds), default=0.0)
            best[tid] = start + spec.ideal_duration
        return max(best.values(), default=0.0)

    @property
    def total_footprint(self) -> int:
        return sum(s.footprint for s in self.tasks())

    def validate(self) -> None:
        if len(self) == 0:
            raise WorkflowError(f"workflow {self.name!r} is empty")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Workflow {self.name!r} tasks={len(self)} edges={len(self.edges())}>"


# --------------------------------------------------------------------------- #
# shape helpers for tests / examples
# --------------------------------------------------------------------------- #

def chain_workflow(name: str, specs: Iterable[TaskSpec]) -> Workflow:
    """Linear pipeline: each task consumes its predecessor's output."""
    wf = Workflow(name)
    prev: Optional[str] = None
    for spec in specs:
        wf.add_task(spec, after=[prev] if prev else [])
        prev = spec.name
    wf.validate()
    return wf


def fan_out_workflow(name: str, source: TaskSpec, members: Iterable[TaskSpec]) -> Workflow:
    """One producer feeding an ensemble of parallel consumers."""
    wf = Workflow(name)
    wf.add_task(source)
    for spec in members:
        wf.add_task(spec, after=[source.name])
    wf.validate()
    return wf


def diamond_workflow(
    name: str, pre: TaskSpec, branches: Iterable[TaskSpec], post: TaskSpec
) -> Workflow:
    """Pre-process → parallel branches → post-process (the classic
    simulate/analyse shape from the paper's intro)."""
    wf = Workflow(name)
    wf.add_task(pre)
    branch_ids = [wf.add_task(spec, after=[pre.name]) for spec in branches]
    wf.add_task(post, after=branch_ids)
    wf.validate()
    return wf
