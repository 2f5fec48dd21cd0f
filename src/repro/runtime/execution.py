"""Task execution: drives one containerized task through its phases.

A :class:`TaskExecution` owns the task's :class:`PageSet`, issues its
allocation requests through the Table-I client, installs each phase's
access distribution and triggers fault-in of touched swap pages.  Its
progress is a row of the node agent's
:class:`~repro.runtime.node_agent.RateTable`, re-rated on every
contention/placement change; the table calls :meth:`complete_phase`
when the row's phase is done.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .. import obs
from ..containers.cgroup import MemoryCgroup, OomKill
from ..core.api import RegionHandle, TieredMemoryClient
from ..core.flags import MemFlag
from ..memory.pageset import PageSet
from ..memory.tiers import CXL, SWAP
from ..metrics.collector import TaskMetrics
from ..util.errors import AllocationError
from ..util.validation import require
from ..workflows.task import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node_agent import NodeAgent

__all__ = ["TaskState", "TaskExecution"]


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class TaskExecution:
    """One task instance running on one node."""

    def __init__(
        self,
        spec: TaskSpec,
        agent: "NodeAgent",
        metrics: TaskMetrics,
        *,
        flags: Optional[MemFlag] = None,
        on_finish: Optional[Callable[["TaskExecution"], None]] = None,
    ) -> None:
        self.spec = spec
        self.agent = agent
        self.metrics = metrics
        self.on_finish = on_finish
        #: flags passed with the initial allocation; ``None`` selects the
        #: spec's effective flags, ``MemFlag.NONE`` forces the predictor path.
        self.flags = spec.effective_flags if flags is None else flags
        # one chunk of slack per allocation call: each request rounds its
        # size up to whole chunks independently
        n_allocs = (
            1
            + len(spec.shared_inputs)
            + sum(1 for p in spec.phases if p.allocate is not None)
        )
        self.pageset = PageSet(
            spec.name, spec.max_footprint + n_allocs * agent.chunk_size, agent.chunk_size
        )
        self.client: Optional[TieredMemoryClient] = None
        self.state = TaskState.PENDING
        self.phase_index = -1
        #: progress rate the node agent last installed (work-seconds per second)
        self.current_rate = 0.0
        self._phase_started_at = 0.0
        self._attached_shared: list[str] = []
        #: cgroup memory.max enforcement (None limit = uncapped)
        self.cgroup = MemoryCgroup(spec.name, spec.memory_limit)
        self._region_charges: dict[int, int] = {}
        #: set when a fault (node crash, stranded evacuation) killed this
        #: task mid-run — the scheduler requeues those, unlike OOM kills
        self.interrupted = False
        #: straggler throttle installed by the fault injector (1.0 = healthy)
        self.rate_scale = 1.0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Register memory, perform the initial allocation, begin phase 0."""
        require(self.state is TaskState.PENDING, f"{self.spec.name}: already started")
        agent = self.agent
        now = agent.engine.now
        self.metrics.started_at = now
        agent.memory.register(self.pageset)
        self.client = TieredMemoryClient(agent.context, agent.policy, self.pageset)
        try:
            self._tm_allocate(self.spec.footprint, self.flags)
            self._acquire_shared_inputs()
        except (AllocationError, OomKill) as exc:
            self._fail(str(exc))
            return
        self.state = TaskState.RUNNING
        self._begin_phase(0)

    def _tm_allocate(self, nbytes: int, flags: Optional[MemFlag]) -> RegionHandle:
        """``allocate_TM`` with cgroup charging.

        Bytes the policy backed with CXL are tiered *expansion* memory
        attached through the manager's APIs and live outside the
        container's fixed allocation; everything else (DRAM/PMem/swap)
        is charged against ``memory.max``.
        """
        assert self.client is not None
        handle = self.client.allocate_TM(nbytes, flags)
        ps = self.pageset
        idx = np.flatnonzero(ps.region == handle.region)
        charged = int(np.count_nonzero(ps.tier[idx] != int(CXL))) * ps.chunk_size
        try:
            self.cgroup.charge(charged)
        except OomKill:
            self.client.free_TM(handle)
            raise
        self._region_charges[handle.region] = charged
        return handle

    def _tm_free_region(self, region: int) -> None:
        assert self.client is not None
        self.client.free_region(region)
        self.cgroup.uncharge(self._region_charges.pop(region, 0))

    def _acquire_shared_inputs(self) -> None:
        """§III-C5 strategy 1: attach shared read-only inputs.

        With a shared-memory manager (IMME), the region is staged once in
        cluster-shared CXL and merely referenced; otherwise the task must
        allocate a private copy, inflating its own footprint.
        """
        agent = self.agent
        assert self.client is not None
        for shared in self.spec.shared_inputs:
            shm = agent.shared_memory
            if shm is not None:
                if shm.pool.contains(shared.name):
                    shm.attach(self.spec.name, shared.name)
                else:
                    shm.stage(shared.name, shared.nbytes, owner=self.spec.name)
                shm.note_access(agent.node_index, shared.name)
                self._attached_shared.append(shared.name)
            else:
                self._tm_allocate(shared.nbytes, MemFlag.CAP)

    def _release_shared_inputs(self) -> None:
        shm = self.agent.shared_memory
        if shm is None:
            return
        for name in self._attached_shared:
            shm.detach(self.spec.name, name)
        self._attached_shared.clear()

    def _begin_phase(self, index: int) -> None:
        spec = self.spec
        phase = spec.phases[index]
        self.phase_index = index
        self._phase_started_at = self.agent.engine.now
        assert self.client is not None
        if phase.release_region is not None:
            self._tm_free_region(phase.release_region)
        if phase.allocate is not None:
            try:
                self._tm_allocate(phase.allocate.nbytes, phase.allocate.flags)
            except (AllocationError, OomKill) as exc:
                self._fail(str(exc))
                return
        self._install_access_weights(phase, index)
        self._fault_in_touched(phase)
        obs.counter("task.phases", 1, wclass=spec.wclass.name)
        self.agent.trace(
            "phase", spec.name, event="begin", phase=phase.name, index=index
        )
        self.agent.begin_phase(self)

    def _install_access_weights(self, phase, index: int) -> None:
        ps = self.pageset
        mapped = np.flatnonzero(ps.mapped_mask)
        weights = np.zeros(ps.n_chunks, dtype=np.float32)
        if mapped.size:
            w = phase.pattern.weights(mapped.size, index)
            if phase.touched_fraction < 1.0:
                # restrict to the hottest `touched_fraction` of chunks
                keep = max(1, int(round(mapped.size * phase.touched_fraction)))
                order = np.argsort(-w, kind="stable")
                mask = np.zeros(mapped.size, dtype=bool)
                mask[order[:keep]] = True
                w = np.where(mask, w, 0.0)
                total = w.sum()
                if total > 0:
                    w = w / total
            weights[mapped] = w.astype(np.float32)
        self.agent.memory.set_access_weights(ps, weights)

    def _fault_in_touched(self, phase) -> None:
        """Touching the phase's working set faults in swap-resident chunks."""
        ps = self.pageset
        touched = np.flatnonzero(ps.access_weight > 0)
        swapped = touched[ps.tier[touched] == int(SWAP)]
        if swapped.size:
            self.agent.policy.fault_in(self.agent.context, ps, swapped)

    def complete_phase(self) -> None:
        """The current phase's work is done: begin the next, or finish."""
        now = self.agent.engine.now
        self.metrics.phase_durations.append(now - self._phase_started_at)
        nxt = self.phase_index + 1
        if nxt < len(self.spec.phases):
            self._begin_phase(nxt)
        else:
            self._finish()

    def _finish(self) -> None:
        agent = self.agent
        now = agent.engine.now
        self.state = TaskState.DONE
        obs.counter("task.completed", 1, wclass=self.spec.wclass.name)
        self.metrics.finished_at = now
        agent.memory.set_access_weights(self.pageset, None)
        policy = agent.policy
        if hasattr(policy, "finish_workflow"):
            policy.finish_workflow(self.spec.name, self.pageset, self.metrics.execution_time)
        self._release_shared_inputs()
        agent.memory.unregister(self.pageset)
        agent.task_finished(self)
        if self.on_finish is not None:
            self.on_finish(self)

    def interrupt(self, reason: str) -> bool:
        """Kill a running task from the outside (node crash, lost tier).

        Returns ``True`` if the task was actually running and is now dead;
        interrupted tasks are eligible for scheduler requeue, whereas
        OOM/allocation failures stay terminal.
        """
        if self.state is not TaskState.RUNNING:
            return False
        self.interrupted = True
        self._fail(reason)
        return True

    def _fail(self, reason: str) -> None:
        agent = self.agent
        self.state = TaskState.FAILED
        obs.counter("task.failed", 1, wclass=self.spec.wclass.name)
        self.metrics.failed = True
        self.metrics.failure_reason = reason
        self.metrics.finished_at = agent.engine.now
        if self.cgroup.oom_kills:
            obs.counter("task.oom_kills", self.cgroup.oom_kills, wclass=self.spec.wclass.name)
            self.metrics.oom_kills += self.cgroup.oom_kills
            agent.trace(
                "oom",
                self.spec.name,
                event="oom-kill",
                charged=self.cgroup.charged,
                limit=self.cgroup.limit,
                node=agent.memory.node_id,
            )
        self._release_shared_inputs()
        if agent.memory.get_pageset(self.pageset.owner) is not None:
            agent.memory.unregister(self.pageset)
        agent.task_finished(self)
        if self.on_finish is not None:
            self.on_finish(self)

    # ------------------------------------------------------------------ #
    # queries for the agent's contention model
    # ------------------------------------------------------------------ #
    @property
    def phase(self):
        return self.spec.phases[self.phase_index]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<TaskExecution {self.spec.name} {self.state.value} "
            f"phase={self.phase_index}/{len(self.spec.phases)}>"
        )
