"""The per-node runtime agent.

One :class:`NodeAgent` per cluster node ties everything together: the
node's memory system, the environment's memory policy, the running task
set, the memory-management daemon (heatmap advance + policy tick), and
the contention-aware rate recomputation that keeps every running task's
progress consistent with current placement.

The running tasks are the rows of one :class:`RateTable`.  A re-rating
re-bins only the rows whose pages changed, advances only the rows whose
rate changed, and the node keeps one completion event, at its earliest
projected finish.

A daemon tick re-rates the node only when something the rate kernel reads
may have changed: the memory system's placement epoch, the migration
penalty of the last re-rating, or the bytes moved since.  Otherwise a
re-rating would install the rates every task already has.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import obs
from ..core.flags import MemFlag
from ..core.heatmap import PageHeatmap
from ..memory.system import NodeMemorySystem
from ..memory.tiers import DRAM, NUM_TIERS, TierKind
from ..metrics.collector import MetricsRegistry
from ..policies.base import MemoryPolicy, PolicyContext
from ..resilience import invariants as inv
from ..sim.engine import SimulationEngine
from ..sim.process import ProgressTable, TickGroup
from ..util.validation import check_positive, require
from ..workflows.task import TaskSpec
from .execution import TaskExecution, TaskState
from .rates import (
    SHADOW,
    RateModelConfig,
    access_profiles,
    kernel_slowdowns,
    node_slowdowns,
    phase_terms,
)

__all__ = ["NodeAgent", "RateTable"]


class RateTable(ProgressTable):
    """A node's rated (RUNNING) tasks as the rows of a progress table, in
    ``running`` order: row ``i`` is ``tasks[i]`` and drains its phase.

    Beside the progress columns, a row holds the kernel's inputs — the
    phase's ``terms`` (compute, latency and bandwidth fractions, demanded
    bandwidth; written when the phase begins), the task's ``scale`` (its
    straggler ``rate_scale``) and its access ``profile`` with the
    ``PageSet.version`` that profile was binned at.  When the table's event
    fires, the due row's phase is complete.
    """

    #: each per-row array's value in a row that has nothing binned or rated
    EMPTY_ROW = {
        **ProgressTable.EMPTY_ROW,
        "terms": np.zeros((1, 4)),
        "scale": np.ones(1),
        "profile": np.zeros((1, SHADOW + 1)),
        "version": np.full(1, -1, dtype=np.int64),
    }

    def __init__(self, engine: SimulationEngine, label: str = "completion") -> None:
        super().__init__(engine, label, lambda i: self.tasks[i].complete_phase())
        self.tasks: list[TaskExecution] = []
        self.pagesets: list = []
        self.index: dict[str, int] = {}

    def rebuild(self, tasks: list[TaskExecution]) -> None:
        """Make ``tasks`` the rows, carrying every surviving row's values;
        a new row has nothing binned and its phase's work left."""
        empty = len(self.tasks)  # past the last row: the appended empty one
        take = [self.index.get(te.spec.name, empty) for te in tasks]
        self.gather(take)
        self.tasks = list(tasks)
        self.pagesets = [te.pageset for te in tasks]
        self.index = {te.spec.name: i for i, te in enumerate(tasks)}
        for i, j in enumerate(take):
            if j == empty:
                self.scale[i] = tasks[i].rate_scale
                self.begin_phase(tasks[i])

    def begin_phase(self, te: TaskExecution) -> None:
        """``te`` began a phase: new terms, all its work left, no projection."""
        i = self.index.get(te.spec.name)
        if i is not None:
            self.terms[i] = phase_terms([te.phase])[0]
            self.begin(i, te.phase.base_time)

    def rescale(self, te: TaskExecution) -> None:
        """``te``'s straggler scale changed."""
        i = self.index.get(te.spec.name)
        if i is not None:
            self.scale[i] = te.rate_scale

    def rebin(self) -> None:
        """Re-bin the access profiles of the rows whose pageset changed."""
        pagesets = self.pagesets
        versions = np.fromiter((ps.version for ps in pagesets), np.int64, len(pagesets))
        dirty = np.flatnonzero(versions != self.version)
        if dirty.size:
            self.profile[dirty] = access_profiles([pagesets[i] for i in dirty.tolist()])
            self.version[dirty] = versions[dirty]


class NodeAgent:
    """Runtime agent for one node: running set, daemon, rate model."""

    def __init__(
        self,
        engine: SimulationEngine,
        memory: NodeMemorySystem,
        policy: MemoryPolicy,
        metrics: MetricsRegistry,
        *,
        cores: int = 32,
        daemon_interval: float = 1.0,
        rate_config: Optional[RateModelConfig] = None,
        chunk_size: Optional[int] = None,
        shared_memory=None,
        node_index: int = 0,
        ticker: Optional[TickGroup] = None,
    ) -> None:
        check_positive(cores, "cores")
        self.engine = engine
        self.memory = memory
        # the migration ledger stamps entries with sim-time; a bare
        # NodeMemorySystem defaults to t=0 until an agent adopts it
        memory.now = lambda: engine.now
        self.policy = policy
        self.metrics = metrics
        #: cluster-shared CXL manager (IMME only) and this node's index,
        #: used for §III-C5 shared read-only inputs
        self.shared_memory = shared_memory
        self.node_index = int(node_index)
        self.cores = int(cores)
        self.cores_used = 0
        self.daemon_interval = float(daemon_interval)
        self.rate_config = rate_config if rate_config is not None else RateModelConfig()
        self.heatmap = PageHeatmap()
        from ..memory.pageset import DEFAULT_CHUNK_SIZE

        self.chunk_size = int(chunk_size) if chunk_size else DEFAULT_CHUNK_SIZE
        self.running: dict[str, TaskExecution] = {}
        from ..util.rng import derive_seed

        self.context = PolicyContext(
            memory=memory,
            now=lambda: self.engine.now,
            record_major=self._record_major,
            record_minor=self._record_minor,
            rng=np.random.default_rng(derive_seed(0, f"policy.{memory.node_id}")),
        )
        self._bw_capacities = np.array(
            [memory.specs[TierKind(t)].bandwidth for t in range(NUM_TIERS)], dtype=np.float64
        )
        # Daemon scheduling: the agent joins a TickGroup — the
        # environment's shared one (one coalesced engine event per
        # cluster-wide tick), or a one-member group of its own.
        if ticker is None:
            ticker = TickGroup(engine, self.daemon_interval, f"daemon.{memory.node_id}")
        require(
            abs(ticker.interval - self.daemon_interval) < 1e-12,
            f"ticker interval {ticker.interval} != daemon interval {self.daemon_interval}",
        )
        self.ticker = ticker
        self._ticker_handle: Optional[int] = None
        #: the running tasks' rates and progress, and the node's one
        #: completion event at the earliest row's projected finish
        self.table = RateTable(engine, f"{memory.node_id}.completion")
        #: the placement epoch and migration penalty the last re-rating used
        self._rated_epoch = -1
        self._rated_penalty = 0.0
        self._traced_migrated_bytes = 0
        #: callbacks fired when a task releases its cores (scheduler pump)
        self.on_capacity_freed: list[Callable[[], None]] = []
        #: node crashed (fault injection); refuses placements until restored
        self.down = False

    # ------------------------------------------------------------------ #
    # fault accounting (wired into the PolicyContext)
    # ------------------------------------------------------------------ #
    def _record_major(self, owner: str, n: int) -> None:
        self.metrics.task(owner).major_faults += int(n)

    def _record_minor(self, owner: str, n: int) -> None:
        self.metrics.task(owner).minor_faults += int(n)

    # ------------------------------------------------------------------ #
    # task lifecycle
    # ------------------------------------------------------------------ #
    @property
    def cores_free(self) -> int:
        return self.cores - self.cores_used

    def can_host(self, spec: TaskSpec) -> bool:
        return not self.down and self.cores_free >= spec.cores

    def start_task(
        self,
        spec: TaskSpec,
        *,
        flags: Optional[MemFlag] = None,
        on_finish: Optional[Callable[[TaskExecution], None]] = None,
    ) -> TaskExecution:
        """Admit and immediately start ``spec`` on this node."""
        require(self.can_host(spec), f"node {self.memory.node_id}: no cores for {spec.name}")
        require(spec.name not in self.running, f"duplicate task name {spec.name!r}")
        if self._ticker_handle is None:
            self._ticker_handle = self.ticker.add(self._daemon_tick)
        tm = self.metrics.task(spec.name, spec.wclass.name)
        te = TaskExecution(spec, self, tm, flags=flags, on_finish=on_finish)
        self.cores_used += spec.cores
        self.running[spec.name] = te
        self.memory.epoch += 1
        self.context.active_owners.add(spec.name)
        self.trace("task", spec.name, event="started", node=self.memory.node_id)
        te.start()
        return te

    def trace(self, category: str, subject: str, **data) -> None:
        """Record a structured sim-time event in the active run record."""
        obs.event(self.engine.now, category, subject, **data)

    def task_finished(self, te: TaskExecution) -> None:
        if te.spec.name in self.running:
            del self.running[te.spec.name]
            self.cores_used -= te.spec.cores
            self.memory.epoch += 1
            self.context.active_owners.discard(te.spec.name)
            self.trace(
                "task",
                te.spec.name,
                event="failed" if te.metrics.failed else "finished",
                node=self.memory.node_id,
            )
            self.recompute_rates()
            for cb in list(self.on_capacity_freed):
                cb()

    def begin_phase(self, te: TaskExecution) -> None:
        """``te`` began a phase: reset its row, then refresh everyone's rates."""
        self.table.begin_phase(te)
        self.recompute_rates()

    def on_task_change(self, te: TaskExecution) -> None:
        """``te``'s rate scale changed (a straggler) — refresh everyone's rates."""
        self.table.rescale(te)
        self.recompute_rates()

    # ------------------------------------------------------------------ #
    # fault handling (driven by the injector / scheduler)
    # ------------------------------------------------------------------ #
    def crash(self, reason: str = "node crash") -> int:
        """Kill the node: interrupt every running task, stop the daemon.

        Returns the number of tasks killed.  Idempotent — crashing a dead
        node is a no-op.
        """
        if self.down:
            return 0
        self.down = True
        killed = 0
        for te in list(self.running.values()):
            if te.interrupt(reason):
                killed += 1
        self.metrics.faults.tasks_interrupted += killed
        self.stop()
        self.trace(
            "fault", self.memory.node_id, event="node-crash", killed=killed
        )
        return killed

    def restore(self) -> None:
        """Bring a crashed node back into service (memory comes up empty)."""
        if not self.down:
            return
        self.down = False
        self.trace("fault", self.memory.node_id, event="node-restored")

    def handle_tier_offline(self, tier: TierKind) -> int:
        """A memory tier failed: evacuate it, kill stranded tasks.

        Returns the number of tasks killed because their pages fit nowhere.
        """
        evacuated, stranded = self.memory.offline_tier(tier)
        if evacuated or stranded:
            self.metrics.faults.tier_evacuations += 1
            self.metrics.faults.evacuated_bytes += evacuated
        self.trace(
            "fault",
            self.memory.node_id,
            event="tier-offline",
            tier=tier.name,
            evacuated_bytes=evacuated,
            stranded=len(stranded),
        )
        killed = 0
        for owner in stranded:
            te = self.running.get(owner)
            if te is not None and te.interrupt(f"tier {tier.name} offline, pages stranded"):
                killed += 1
        self.metrics.faults.tasks_interrupted += killed
        self.recompute_rates()
        return killed

    def handle_tier_online(self, tier: TierKind) -> None:
        self.memory.online_tier(tier)
        self.trace("fault", self.memory.node_id, event="tier-online", tier=tier.name)
        self.recompute_rates()

    # ------------------------------------------------------------------ #
    # rate model
    # ------------------------------------------------------------------ #
    def recompute_rates(self) -> None:
        """Re-rate the node's running tasks: rebuild the table's rows if the
        running set changed, re-bin the changed rows, run the kernel over
        every row, advance the rows whose rate changed, re-arm the event."""
        self._rated_epoch = self.memory.epoch
        table = self.table
        tasks = self._rated_tasks()
        if tasks != table.tasks:
            table.rebuild(tasks)
        if tasks:
            self._rated_penalty = penalty = self._migration_penalty()
            table.rebin()
            rates = (1.0 / self._slowdowns(table, penalty)) * table.scale
            moved = table.advance(rates)
            for i, rate in zip(moved.tolist(), table.rate[moved].tolist()):
                tasks[i].current_rate = rate
        else:
            self.memory.migration_bytes_window = 0
            self._rated_penalty = 0.0
        table.arm()
        checker = inv.active()
        if checker.enabled:
            self._check_table(checker)

    def _rated_tasks(self) -> list[TaskExecution]:
        return [te for te in self.running.values() if te.state is TaskState.RUNNING]

    def _capacities(self) -> np.ndarray:
        # offline tiers deliver no bandwidth; degraded links a fraction
        return self._bw_capacities * self.memory.tier_health()

    def _slowdowns(self, table: RateTable, penalty: float) -> np.ndarray:
        return kernel_slowdowns(
            table.terms, table.profile, self.memory.specs, self._capacities(),
            migration_penalty=penalty, config=self.rate_config,
        )

    def _check_table(self, checker) -> None:
        """Re-derive every running task's rate from scratch (fresh profiles,
        terms from its phase, the penalty the last re-rating applied) and
        check the table's rate against it, and the completion event against
        the earliest projection."""
        table = self.table
        tasks = self._rated_tasks()
        node = self.memory.node_id
        if tasks:
            slowdowns = node_slowdowns(
                [te.phase for te in tasks], [te.pageset for te in tasks],
                self.memory.specs, self._capacities(),
                migration_penalty=self._rated_penalty, config=self.rate_config,
            )
            rows = [table.index.get(te.spec.name) for te in tasks]
            checker.rates(node, [
                (te.spec.name, None if i is None else float(table.rate[i]),
                 (1.0 / slowdown) * te.rate_scale)
                for te, i, slowdown in zip(tasks, rows, slowdowns.tolist())
            ])
        i = table.earliest()
        event = table.event
        checker.completion(
            node,
            None if event is None else (event.time, event.seq),
            None if i is None else (float(table.due[i]), int(table.stamp[i])),
        )

    def _migration_penalty(self) -> float:
        """Charge recent daemon data movement against task progress."""
        window = self.memory.migration_bytes_window
        self.memory.migration_bytes_window = 0
        if window <= 0:
            return 0.0
        dram_bw = self.memory.specs[DRAM].bandwidth
        interval = max(self.daemon_interval, 1e-6)
        return self.rate_config.migration_overhead_coeff * window / (dram_bw * interval)

    # ------------------------------------------------------------------ #
    # daemon
    # ------------------------------------------------------------------ #
    def _daemon_tick(self, now: float) -> None:
        rates = {
            owner: te.current_rate
            for owner, te in self.running.items()
            if te.state is TaskState.RUNNING
        }
        self.heatmap.advance_node(self.memory, self.daemon_interval, rates)
        self.policy.tick(self.context)
        if obs.enabled():
            total = self.memory.stats.total_migrated_bytes
            self.trace(
                "daemon",
                self.memory.node_id,
                event="tick",
                migrated_bytes=total - self._traced_migrated_bytes,
                running=len(self.running),
                dram_rss=self.memory.rss(DRAM),
            )
            self._traced_migrated_bytes = total
        checker = inv.active()
        if checker.enabled:
            checker.memory(self.memory)
        memory = self.memory
        if memory.epoch != self._rated_epoch or self._rated_penalty or memory.migration_bytes_window:
            self.recompute_rates()
        elif checker.enabled:
            # skipped: the kernel's inputs are the last re-rating's
            self._check_table(checker)

    def stop(self) -> None:
        if self._ticker_handle is not None:
            self.ticker.remove(self._ticker_handle)
            self._ticker_handle = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<NodeAgent {self.memory.node_id} running={len(self.running)} "
            f"cores={self.cores_used}/{self.cores}>"
        )
