"""Pegasus-like workflow management: plan a DAG, release ready tasks.

"The workflow is first submitted to the WMS where it is converted to an
executable workflow represented by a DAG" (§III-B).  The executor tracks
dependency counts and submits each task to the batch scheduler the moment
its producers finish — the paper's WMS→SLURM hand-off.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from ..scheduler.job import Job, JobState
from ..scheduler.slurm import SlurmScheduler
from ..util.errors import WorkflowError
from ..workflows.dag import Workflow

__all__ = ["WorkflowExecution", "WorkflowManager"]


class WorkflowExecution:
    """One workflow instance in flight."""

    def __init__(
        self,
        workflow: Workflow,
        scheduler: SlurmScheduler,
        *,
        on_complete: Optional[Callable[["WorkflowExecution"], None]] = None,
    ) -> None:
        workflow.validate()
        self.workflow = workflow
        self.scheduler = scheduler
        self.on_complete = on_complete
        #: consumer -> producers not yet finished
        self._remaining_deps = Counter(consumer for _, consumer in workflow.edges())
        self._jobs: dict[str, Job] = {}
        self._done: set[str] = set()
        self._failed: set[str] = set()
        self.started = False

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self.started:
            raise WorkflowError(f"workflow {self.workflow.name!r} already started")
        self.started = True
        for tid in self.workflow.roots():
            self._submit(tid)

    def _submit(self, task_id: str) -> None:
        spec = self.workflow.spec(task_id)
        job = self.scheduler.submit(spec, on_done=lambda j, tid=task_id: self._task_done(tid, j))
        self._jobs[task_id] = job

    def _task_done(self, task_id: str, job: Job) -> None:
        if job.state is JobState.FAILED:
            self._failed.add(task_id)
        else:
            self._done.add(task_id)
            for succ in self.workflow.dependents(task_id):
                self._remaining_deps[succ] -= 1
                if self._remaining_deps[succ] == 0:
                    self._submit(succ)
        if self.complete and self.on_complete is not None:
            self.on_complete(self)

    # ------------------------------------------------------------------ #
    @property
    def complete(self) -> bool:
        reachable = len(self.workflow) - self._blocked_count()
        return len(self._done) + len(self._failed) >= reachable

    def _blocked_count(self) -> int:
        """Tasks that can never run because a dependency failed."""
        if not self._failed:
            return 0
        blocked: set[str] = set()
        frontier = list(self._failed)
        while frontier:
            tid = frontier.pop()
            for succ in self.workflow.dependents(tid):
                if succ not in blocked:
                    blocked.add(succ)
                    frontier.append(succ)
        return len(blocked - self._failed)

    @property
    def succeeded(self) -> bool:
        return self.complete and not self._failed

    def job_of(self, task_id: str) -> Job:
        if task_id not in self._jobs:
            raise WorkflowError(f"task {task_id!r} has not been submitted")
        return self._jobs[task_id]


class WorkflowManager:
    """Runs multiple workflows concurrently over one scheduler."""

    def __init__(self, scheduler: SlurmScheduler) -> None:
        self.scheduler = scheduler
        self.executions: list[WorkflowExecution] = []

    def submit(self, workflow: Workflow) -> WorkflowExecution:
        ex = WorkflowExecution(workflow, self.scheduler)
        self.executions.append(ex)
        ex.start()
        return ex

    @property
    def all_complete(self) -> bool:
        return all(ex.complete for ex in self.executions)

    def run_to_completion(self, max_time: float = 1e9) -> None:
        """Drive the engine until every submitted workflow completes, or
        until a task no node can hold (the scheduler's
        :attr:`~repro.scheduler.slurm.SlurmScheduler.deadlock`) is submitted."""
        sched = self.scheduler
        engine = sched.engine
        if not engine.run(
            stop=lambda: engine.now > max_time or self.all_complete or sched.deadlock is not None
        ):
            raise WorkflowError("deadlock: workflows incomplete with no pending events")
        if engine.now > max_time:
            raise WorkflowError(f"workflows still unfinished at t={engine.now}")
        if sched.deadlock is not None:
            raise WorkflowError(f"deadlock: {sched.deadlock}")
