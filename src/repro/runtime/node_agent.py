"""The per-node runtime agent.

One :class:`NodeAgent` per cluster node ties everything together: the
node's memory system, the environment's memory policy, the running task
set, the memory-management daemon (heatmap advance + policy tick), and
the contention-aware rate recomputation that keeps every running task's
completion event consistent with current placement.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .. import obs
from ..core.flags import MemFlag
from ..core.heatmap import HeatmapConfig, PageHeatmap
from ..memory.system import NodeMemorySystem
from ..memory.tiers import DRAM, NUM_TIERS, TierKind
from ..metrics.collector import MetricsRegistry
from ..policies.base import MemoryPolicy, PolicyContext
from ..resilience import invariants as inv
from ..sim.engine import SimulationEngine
from ..sim.process import PeriodicProcess, TickGroup
from ..util.validation import check_positive, require
from ..workflows.task import TaskSpec
from .execution import TaskExecution, TaskState
from .rates import RateModelConfig, node_slowdowns

__all__ = ["NodeAgent"]


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
        heatmap_config: Optional[HeatmapConfig] = None,
        chunk_size: Optional[int] = None,
        shared_memory=None,
        node_index: int = 0,
        tracer=None,
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
        #: optional :class:`repro.sim.trace.Tracer` for structured events
        self.tracer = tracer
        #: cluster-shared CXL manager (IMME only) and this node's index,
        #: used for §III-C5 shared read-only inputs
        self.shared_memory = shared_memory
        self.node_index = int(node_index)
        self.cores = int(cores)
        self.cores_used = 0
        self.daemon_interval = float(daemon_interval)
        self.rate_config = rate_config if rate_config is not None else RateModelConfig()
        self.heatmap = PageHeatmap(heatmap_config)
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
        # Daemon scheduling: with a shared ticker (one coalesced engine
        # event per cluster-wide tick) the agent just joins the group;
        # standalone agents keep their own PeriodicProcess.
        self._ticker = ticker
        self._ticker_handle: Optional[int] = None
        if ticker is not None:
            require(
                abs(ticker.interval - self.daemon_interval) < 1e-12,
                f"ticker interval {ticker.interval} != daemon interval {self.daemon_interval}",
            )
            self._daemon: Optional[PeriodicProcess] = None
        else:
            self._daemon = PeriodicProcess(
                engine, self.daemon_interval, self._daemon_tick, f"daemon.{memory.node_id}"
            )
        self._daemon_started = False
        self._last_penalty_sample = 0.0
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
        if not self._daemon_started:
            if self._ticker is not None:
                self._ticker_handle = self._ticker.add(self._daemon_tick)
            else:
                assert self._daemon is not None
                self._daemon.start()
            self._daemon_started = True
        tm = self.metrics.task(spec.name, spec.wclass.name)
        te = TaskExecution(spec, self, tm, flags=flags, on_finish=on_finish)
        self.cores_used += spec.cores
        self.running[spec.name] = te
        self.context.active_owners.add(spec.name)
        self.trace("task", spec.name, event="started", node=self.memory.node_id)
        te.start()
        return te

    def trace(self, category: str, subject: str, **data) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.engine.now, category, subject, **data)
        # Tracer and telemetry are independent sinks: the same structured
        # events also flow into the active run record when one exists.
        obs.event(self.engine.now, category, subject, **data)

    def task_finished(self, te: TaskExecution) -> None:
        if te.spec.name in self.running:
            del self.running[te.spec.name]
            self.cores_used -= te.spec.cores
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

    def on_task_change(self, te: TaskExecution) -> None:
        """A task changed phase/placement — refresh everyone's rates."""
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
        tasks = [te for te in self.running.values() if te.state is TaskState.RUNNING]
        if not tasks:
            self.memory.migration_bytes_window = 0
            return
        slowdowns = node_slowdowns(
            [te.phase for te in tasks],
            [te.pageset for te in tasks],
            self.memory.specs,
            # offline tiers deliver no bandwidth; degraded links a fraction
            self._bw_capacities * self.memory.tier_health(),
            migration_penalty=self._migration_penalty(),
            config=self.rate_config,
        )
        for te, slowdown in zip(tasks, slowdowns.tolist()):
            te.update_rate(1.0 / slowdown)

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
        if (self.tracer is not None and self.tracer.wants("daemon")) or obs.enabled():
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
        self.recompute_rates()

    def stop(self) -> None:
        if self._daemon_started:
            if self._ticker is not None:
                if self._ticker_handle is not None:
                    self._ticker.remove(self._ticker_handle)
                    self._ticker_handle = None
            else:
                assert self._daemon is not None
                self._daemon.stop()
            self._daemon_started = False

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<NodeAgent {self.memory.node_id} running={len(self.running)} "
            f"cores={self.cores_used}/{self.cores}>"
        )
