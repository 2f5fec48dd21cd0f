"""SLURM-like batch scheduler with colocation and backfill.

The scheduler owns the job queue and the placement decision (which node a
container lands on); memory placement *within* a node is the memory
policy's job.  Placement is least-loaded-first over nodes with enough free
cores, FIFO with backfill: if the queue head does not fit anywhere, later
jobs that do fit may start (§II-B's node-level colocation of deconstructed
workflows is the normal case here — many containers share each node).

Container preparation (image pull / CXL read / cache hit) happens between
resource allocation and task start, so large launches expose the paper's
cold-start bottleneck faithfully.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from .. import obs
from ..containers.runtime import ContainerRuntime
from ..core.flags import MemFlag
from ..memory.tiers import MEMORY_TIERS
from ..metrics.collector import MetricsRegistry
from ..resilience import invariants as inv
from ..runtime.execution import TaskExecution, TaskState
from ..runtime.node_agent import NodeAgent
from ..sim.engine import SimulationEngine
from ..util.errors import SchedulingError
from ..util.validation import require
from ..workflows.task import TaskSpec
from .job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.stream import Arrival

__all__ = ["SlurmScheduler"]


class SlurmScheduler:
    """Queue, placement and lifecycle management for batch jobs."""

    #: placement strategies: most free cores, or most free DRAM (the
    #: memory-aware scheduling modern WMSs lack, §II-A)
    PLACEMENTS = ("least-loaded", "memory-aware")

    def __init__(
        self,
        engine: SimulationEngine,
        agents: Sequence[NodeAgent],
        containers: ContainerRuntime,
        metrics: MetricsRegistry,
        *,
        backfill: bool = True,
        placement: str = "least-loaded",
        max_retries: int = 2,
        retry_backoff: float = 4.0,
    ) -> None:
        require(len(agents) > 0, "scheduler needs at least one node")
        require(placement in self.PLACEMENTS, f"placement must be one of {self.PLACEMENTS}")
        require(max_retries >= 0, "max_retries must be >= 0")
        require(retry_backoff >= 0, "retry_backoff must be >= 0")
        self.engine = engine
        self.agents = list(agents)
        self.containers = containers
        self.metrics = metrics
        self.backfill = backfill
        self.placement = placement
        #: requeue budget per job for fault-induced failures (node crash,
        #: stranded evacuation, exhausted pull retries); OOM kills are
        #: terminal — rerunning an out-of-memory workflow cannot succeed
        self.max_retries = int(max_retries)
        #: base delay of the exponential requeue backoff (seconds)
        self.retry_backoff = float(retry_backoff)
        self.queue: deque[Job] = deque()
        self.jobs: dict[int, Job] = {}
        #: jobs in a terminal state (DONE or FAILED), kept so that
        #: :attr:`all_done` never rescans :attr:`jobs`
        self.finished_jobs = 0
        self._next_job_id = 1
        self._reserved_cores = [0] * len(agents)
        self._pumping = False
        #: nodes administratively removed from placement (``scontrol drain``)
        self.drained: set[int] = set()
        #: total fault-induced requeues across the run
        self.requeues = 0
        #: optional admission policy consulted by :meth:`try_submit`
        #: (service mode attaches one; batch submission never rejects)
        self.admission: "Optional[object]" = None
        #: arrivals turned away by the admission policy
        self.rejected = 0
        #: set by :meth:`submit` for the first job that needs more cores
        #: than any node has: it can never start, so every drive loop
        #: (:meth:`run_to_completion`, the WMS's, a service run's) stops
        #: on it and raises its own deadlock error with this reason
        self.deadlock: Optional[str] = None
        self._most_cores = max(agent.cores for agent in self.agents)
        for agent in self.agents:
            agent.on_capacity_freed.append(self._pump)

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: TaskSpec,
        *,
        flags: Optional[MemFlag] = None,
        priority: int = 0,
        exclusive: bool = False,
        on_done: Optional[Callable[[Job], None]] = None,
    ) -> Job:
        """Enqueue one job; placement is attempted immediately.

        Higher ``priority`` jobs are considered first; within a priority
        level the queue stays FIFO.  ``exclusive`` selects the traditional
        bare-metal model: a whole node, no container, no colocation.
        """
        job = Job(
            job_id=self._next_job_id,
            spec=spec,
            flags=flags,
            priority=priority,
            exclusive=exclusive,
            submitted_at=self.engine.now,
            on_done=on_done,
        )
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        if spec.cores > self._most_cores and self.deadlock is None:
            self.deadlock = (
                f"job {job.name!r} needs {spec.cores} cores, "
                f"the largest node has {self._most_cores}"
            )
        tm = self.metrics.task(spec.name, spec.wclass.name)
        tm.submitted_at = self.engine.now
        self.queue.append(job)
        if priority:
            self.queue = deque(
                sorted(self.queue, key=lambda j: (-j.priority, j.job_id))
            )
        self._pump()
        return job

    def try_submit(
        self,
        arrival: "Arrival",
        *,
        flags: Optional[MemFlag] = None,
        priority: int = 0,
        on_done: Optional[Callable[[Job], None]] = None,
    ) -> Optional[Job]:
        """Admission-gated submission: consult the attached policy about
        a lazy :class:`~repro.service.stream.Arrival` and either build and
        enqueue its task or turn it away (returns ``None``).

        Rejection is deliberately cheap — no task, no :class:`Job`, no
        metrics entry — so an open-loop stream pounding a saturated
        cluster costs one policy check per arrival, nothing more.
        """
        if self.admission is not None:
            from ..service.admission import ClusterView

            if not self.admission.admit(arrival, ClusterView(self, self.agents)):
                self.rejected += 1
                obs.counter("sched.rejected")
                return None
        return self.submit(arrival.task(), flags=flags, priority=priority, on_done=on_done)

    def submit_batch(
        self,
        specs: Iterable[TaskSpec],
        *,
        flags: Optional[MemFlag] = None,
        exclusive: bool = False,
    ) -> list[Job]:
        return [self.submit(spec, flags=flags, exclusive=exclusive) for spec in specs]

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def _free_cores(self, i: int) -> int:
        return self.agents[i].cores_free - self._reserved_cores[i]

    def _available(self, i: int) -> bool:
        return i not in self.drained and not self.agents[i].down

    def _pick_node(self, spec: TaskSpec) -> Optional[int]:
        """Choose a node with enough cores by the configured strategy:
        ``least-loaded`` maximises free cores; ``memory-aware`` maximises
        free byte-addressable memory (DRAM + PMem + CXL)."""
        best, best_score = None, None
        for i in range(len(self.agents)):
            if not self._available(i) or self._free_cores(i) < spec.cores:
                continue
            if self.placement == "memory-aware":
                mem = self.agents[i].memory
                score = sum(mem.free(t) for t in MEMORY_TIERS)
            else:
                score = self._free_cores(i)
            if best_score is None or score > best_score:
                best, best_score = i, score
        return best

    def _pump(self) -> None:
        """Dispatch every queued job that fits somewhere (FIFO + backfill)."""
        if self._pumping:
            return
        self._pumping = True
        try:
            scanned: deque[Job] = deque()
            while self.queue:
                job = self.queue.popleft()
                node = (
                    self._pick_exclusive_node(job.spec)
                    if job.exclusive
                    else self._pick_node(job.spec)
                )
                if node is None:
                    scanned.append(job)
                    if not self.backfill:
                        break
                    continue
                self._dispatch(job, node)
            scanned.extend(self.queue)
            self.queue = scanned
        finally:
            self._pumping = False

    def _pick_exclusive_node(self, spec: TaskSpec) -> Optional[int]:
        """A bare-metal job needs a completely idle node."""
        for i, agent in enumerate(self.agents):
            if not self._available(i):
                continue
            if agent.cores_used == 0 and self._reserved_cores[i] == 0:
                if agent.cores >= spec.cores:
                    return i
        return None

    def _dispatch(self, job: Job, node_index: int) -> None:
        obs.counter("sched.dispatches")
        job.state = JobState.STARTING
        job.node_index = node_index
        job._dispatch_seq += 1
        seq = job._dispatch_seq
        job._reserved = self.agents[node_index].cores if job.exclusive else job.spec.cores
        self._reserved_cores[node_index] += job._reserved
        tm = self.metrics.get(job.spec.name)
        tm.scheduled_at = self.engine.now
        if job.exclusive:
            # bare metal: no container image, no instantiation delay
            self._container_ready(job, seq)
        else:
            self.containers.prepare(
                node_index,
                job.spec.image,
                lambda: self._container_ready(job, seq),
                on_failed=lambda: self._pull_failed(job, seq),
            )

    def _stale(self, job: Job, seq: int) -> bool:
        """A callback from a dispatch the scheduler has since abandoned."""
        return job.state is not JobState.STARTING or seq != job._dispatch_seq

    def _container_ready(self, job: Job, seq: int) -> None:
        if self._stale(job, seq):
            return
        assert job.node_index is not None
        agent = self.agents[job.node_index]
        if agent.down:
            # the node died while the image was in flight
            self._release_reservation(job)
            self._requeue_or_fail(job, f"node {agent.memory.node_id} down")
            return
        tm = self.metrics.get(job.spec.name)
        tm.container_ready_at = self.engine.now
        self._release_reservation(job)
        job.state = JobState.RUNNING
        try:
            agent.start_task(
                job.spec, flags=job.flags, on_finish=lambda te: self._task_done(job, te)
            )
        except SchedulingError:
            # the reservation guaranteed cores; anything else is a bug
            raise
        if job.exclusive:
            # hold the node's remaining cores for the job's lifetime
            job._exclusive_hold = agent.cores_free
            agent.cores_used += job._exclusive_hold

    def _pull_failed(self, job: Job, seq: int) -> None:
        """The container runtime gave up on the image pull."""
        if self._stale(job, seq):
            return
        self._release_reservation(job)
        self._requeue_or_fail(job, f"image pull failed for {job.spec.image!r}")

    def _release_reservation(self, job: Job) -> None:
        if job._reserved and job.node_index is not None:
            self._reserved_cores[job.node_index] -= job._reserved
            job._reserved = 0

    def _task_done(self, job: Job, te: TaskExecution) -> None:
        if job._exclusive_hold:
            self.agents[job.node_index].cores_used -= job._exclusive_hold
            job._exclusive_hold = 0
        if te.state is TaskState.FAILED and te.interrupted:
            # fault-induced death (node crash / stranded evacuation):
            # eligible for requeue, unlike OOM or allocation failures
            self._requeue_or_fail(job, te.metrics.failure_reason)
            return
        job.state = JobState.FAILED if te.state is TaskState.FAILED else JobState.DONE
        self.finished_jobs += 1
        job.notify_done()
        self._pump()
        checker = inv.active()
        if checker.enabled:
            checker.scheduler(self)

    # ------------------------------------------------------------------ #
    # fault recovery (requeue / drain)
    # ------------------------------------------------------------------ #
    def _requeue_or_fail(self, job: Job, reason: str) -> None:
        """Requeue a fault-killed job with exponential backoff, or mark it
        failed once its retry budget is spent."""
        tm = self.metrics.get(job.spec.name)
        if job.retries >= self.max_retries:
            self.metrics.faults.retries_exhausted += 1
            job.state = JobState.FAILED
            self.finished_jobs += 1
            job.node_index = None
            tm.failed = True
            tm.failure_reason = f"{reason} (retries exhausted)"
            if tm.finished_at is None:
                tm.finished_at = self.engine.now
            job.notify_done()
            self._pump()
            return
        job.retries += 1
        self.requeues += 1
        obs.counter("sched.requeues")
        obs.event(self.engine.now, "sched", job.name, action="requeue", reason=reason)
        self.metrics.faults.job_requeues += 1
        tm.retries += 1
        tm.failed = False
        tm.failure_reason = ""
        tm.finished_at = None
        job.state = JobState.PENDING
        job.node_index = None
        delay = self.retry_backoff * (2 ** (job.retries - 1))
        self.engine.schedule(
            delay, lambda: self._enqueue_retry(job), f"requeue.{job.name}"
        )

    def _enqueue_retry(self, job: Job) -> None:
        if job.state is not JobState.PENDING:
            return
        self.queue.append(job)
        if job.priority:
            self.queue = deque(
                sorted(self.queue, key=lambda j: (-j.priority, j.job_id))
            )
        self._pump()

    def drain(self, node_index: int) -> None:
        """Remove a node from placement without touching running work."""
        require(0 <= node_index < len(self.agents), "node_index out of range")
        self.drained.add(node_index)

    def undrain(self, node_index: int) -> None:
        self.drained.discard(node_index)
        self._pump()

    def node_failed(self, node_index: int, reason: str = "node crash") -> None:
        """A node died: drain it, kill its tasks, requeue in-flight jobs.

        Running tasks die through :meth:`NodeAgent.crash` (their jobs come
        back via the normal ``_task_done`` requeue path); jobs still in
        container preparation are requeued here directly.
        """
        require(0 <= node_index < len(self.agents), "node_index out of range")
        self.drain(node_index)
        self.agents[node_index].crash(reason)
        for job in list(self.jobs.values()):
            if job.state is JobState.STARTING and job.node_index == node_index:
                job._dispatch_seq += 1  # invalidate the in-flight callback
                self._release_reservation(job)
                self._requeue_or_fail(job, reason)
        checker = inv.active()
        if checker.enabled:
            # the crash path must leave scheduler accounting whole: no job
            # lost between queue, requeue-pending, and terminal states
            checker.scheduler(self)

    def node_restored(self, node_index: int) -> None:
        """Bring a crashed node back and return it to the placement pool."""
        self.agents[node_index].restore()
        self.undrain(node_index)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        return len(self.queue)

    @property
    def busy_cores(self) -> int:
        """Cores currently executing tasks across the cluster."""
        return sum(agent.cores_used for agent in self.agents)

    @property
    def total_cores(self) -> int:
        return sum(agent.cores for agent in self.agents)

    @property
    def running_count(self) -> int:
        """Jobs currently in the RUNNING state."""
        return sum(1 for j in self.jobs.values() if j.state is JobState.RUNNING)

    def utilization(self) -> float:
        """Instantaneous busy-core fraction (a service-window sample)."""
        total = self.total_cores
        return self.busy_cores / total if total else 0.0

    def queue_snapshot(self) -> list[dict[str, object]]:
        """``squeue``-style view of pending jobs, in dispatch order."""
        now = self.engine.now
        return [
            {
                "job_id": j.job_id,
                "name": j.name,
                "cores": j.spec.cores,
                "priority": j.priority,
                "exclusive": j.exclusive,
                "waiting": now - j.submitted_at,
            }
            for j in self.queue
        ]

    @property
    def all_done(self) -> bool:
        return not self.queue and self.finished_jobs == len(self.jobs)

    def run_to_completion(self, max_time: float = 1e9) -> None:
        """Drive the engine until every submitted job finishes.

        A job that needs more cores than any node has can never start, and
        the daemon and sampler ticks keep the engine from draining, so the
        run stops on :attr:`deadlock` (before any event, for a job
        submitted before the run).
        """
        engine = self.engine
        with obs.span("sched.run_to_completion", jobs=len(self.jobs)):
            if not engine.run(
                stop=lambda: engine.now > max_time or self.all_done or self.deadlock is not None
            ):
                raise SchedulingError(
                    f"deadlock: {self.pending_count} jobs queued, no events pending"
                )
            if engine.now > max_time:
                raise SchedulingError(f"jobs still unfinished at t={engine.now}")
            if self.deadlock is not None:
                raise SchedulingError(f"deadlock: {self.deadlock}")
