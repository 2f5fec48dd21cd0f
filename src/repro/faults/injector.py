"""The seeded chaos process: fires scheduled faults as simulation events.

:class:`FaultInjector` walks a :class:`~repro.faults.spec.FaultSchedule`
from a one-member :class:`~repro.sim.process.TickGroup` that polls every
:data:`POLL_INTERVAL` simulated seconds, so a fault fires at the first poll
at or after its scheduled time.  It dispatches each fault to the component
that owns its recovery path (scheduler for node crashes, node agent for
tier faults, container runtime for pull failures), and schedules the
matching recovery ``duration`` seconds later.  Every random
choice — victim node, straggler pick, pull-failure draws — comes from
named :class:`~repro.util.rng.RngFactory` streams, so two runs with the
same seed inject the same faults into the same victims in the same order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import obs
from ..containers.runtime import ContainerRuntime
from ..memory.tiers import CXL
from ..metrics.collector import MetricsRegistry
from ..resilience import invariants as inv
from ..runtime.node_agent import NodeAgent
from ..runtime.execution import TaskState
from ..scheduler.slurm import SlurmScheduler
from ..sim.engine import SimulationEngine
from ..sim.process import TickGroup
from ..util.rng import RngFactory
from ..util.validation import require
from .spec import FaultKind, FaultSchedule, FaultSpec

__all__ = ["FaultInjector", "POLL_INTERVAL"]

#: simulated seconds between two polls of the fault schedule
POLL_INTERVAL = 1.0


class FaultInjector:
    """Deterministic fault-firing daemon for one environment."""

    def __init__(
        self,
        engine: SimulationEngine,
        agents: Sequence[NodeAgent],
        scheduler: SlurmScheduler,
        containers: ContainerRuntime,
        metrics: MetricsRegistry,
        schedule: FaultSchedule,
        *,
        seed: int = 0,
    ) -> None:
        require(len(agents) > 0, "injector needs at least one node")
        self.engine = engine
        self.agents = list(agents)
        self.scheduler = scheduler
        self.containers = containers
        self.metrics = metrics
        self.schedule = schedule
        factory = RngFactory(seed)
        self._rng = factory.stream("fault-injector")
        #: dedicated stream for the container runtime's pull-failure draws
        self._pull_rng = factory.stream("fault-injector.pulls")
        self._pending = list(schedule)
        self._cursor = 0
        self._poll = TickGroup(engine, POLL_INTERVAL, "fault-injector")
        self._handle: Optional[int] = None
        #: overlapping IMAGE_PULL_FAILURE windows are refcounted
        self._pull_fault_refs = 0
        self.fired = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._pending and self._handle not in self._poll:
            self._handle = self._poll.add(self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._poll.remove(self._handle)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._pending)

    def _tick(self, now: float) -> None:
        while self._cursor < len(self._pending) and self._pending[self._cursor].time <= now:
            self.fire(self._pending[self._cursor])
            self._cursor += 1
        if self.exhausted:
            self.stop()

    # ------------------------------------------------------------------ #
    # firing
    # ------------------------------------------------------------------ #
    def inject_now(self, fault: FaultSpec) -> None:
        """Fire one fault immediately (test/debug hook)."""
        self.fire(fault)

    def fire(self, fault: FaultSpec) -> None:
        handler = {
            FaultKind.NODE_CRASH: self._fire_node_crash,
            FaultKind.TIER_OFFLINE: self._fire_tier_offline,
            FaultKind.TIER_DEGRADED: self._fire_tier_degraded,
            FaultKind.CXL_LINK_FLAP: self._fire_cxl_flap,
            FaultKind.IMAGE_PULL_FAILURE: self._fire_pull_failure,
            FaultKind.TASK_STRAGGLER: self._fire_straggler,
        }[fault.kind]
        injected = handler(fault)
        if not injected:
            self._trace(fault, event="skipped")
            return
        self.fired += 1
        self.metrics.faults.record_injection(fault.kind.value)
        self._trace(fault, event="injected")
        checker = inv.active()
        if checker.enabled:
            # every injection is a conservation hazard: the fault's whole
            # recovery cascade has run by the time the handler returns
            checker.engine(self.engine)
            checker.scheduler(self.scheduler)
            for agent in self.agents:
                checker.memory(agent.memory)

    def _trace(self, fault: FaultSpec, **extra) -> None:
        if not obs.enabled():
            return
        obs.event(
            self.engine.now,
            "fault",
            fault.kind.value,
            node=fault.node,
            tier=fault.tier.name if fault.tier is not None else None,
            duration=fault.duration,
            severity=fault.severity,
            **extra,
        )
        if extra.get("event") == "injected":
            obs.counter("faults.fired", 1, kind=fault.kind.value)

    def _recover(self, fault: FaultSpec, action, label: str) -> None:
        """Schedule the recovery action and account its MTTR sample."""
        t0 = self.engine.now

        def recovered() -> None:
            action()
            self.metrics.faults.recovery_times.append(self.engine.now - t0)
            self._trace(fault, event="recovered")

        self.engine.schedule(fault.duration, recovered, f"recover.{label}")

    def _pick_node(self, fault: FaultSpec, *, need_running: bool = False) -> Optional[int]:
        if fault.node is not None:
            if 0 <= fault.node < len(self.agents):
                return fault.node
            return None
        candidates = [
            i
            for i, a in enumerate(self.agents)
            if not a.down and (not need_running or a.running)
        ]
        if not candidates:
            return None
        return candidates[int(self._rng.integers(len(candidates)))]

    # ------------------------------------------------------------------ #
    # per-kind handlers (return False to skip an inapplicable fault)
    # ------------------------------------------------------------------ #
    def _fire_node_crash(self, fault: FaultSpec) -> bool:
        node = self._pick_node(fault)
        if node is None or self.agents[node].down:
            return False
        self.scheduler.node_failed(node, f"node crash at t={self.engine.now:g}")
        self._recover(fault, lambda: self.scheduler.node_restored(node), f"node{node}")
        return True

    def _fire_tier_offline(self, fault: FaultSpec) -> bool:
        node = self._pick_node(fault)
        if node is None:
            return False
        agent = self.agents[node]
        tier = fault.tier
        assert tier is not None
        if not agent.memory.tier_online(tier):
            return False
        agent.handle_tier_offline(tier)
        self._recover(
            fault, lambda: agent.handle_tier_online(tier), f"tier.{tier.name}.n{node}"
        )
        return True

    def _fire_tier_degraded(self, fault: FaultSpec) -> bool:
        node = self._pick_node(fault)
        if node is None:
            return False
        agent = self.agents[node]
        tier = fault.tier
        assert tier is not None
        agent.memory.set_tier_degraded(tier, fault.severity)
        agent.recompute_rates()
        agent.trace(
            "fault", agent.memory.node_id,
            event="tier-degraded", tier=tier.name, scale=fault.severity,
        )

        def restore() -> None:
            agent.memory.clear_tier_degradation(tier)
            agent.recompute_rates()

        self._recover(fault, restore, f"degrade.{tier.name}.n{node}")
        return True

    def _fire_cxl_flap(self, fault: FaultSpec) -> bool:
        node = self._pick_node(fault)
        if node is None:
            return False
        agent = self.agents[node]
        if not agent.memory.tier_online(CXL):
            return False
        agent.handle_tier_offline(CXL)
        self.containers.set_node_cxl(node, False)

        def restore() -> None:
            self.containers.set_node_cxl(node, True)
            agent.handle_tier_online(CXL)

        self._recover(fault, restore, f"cxl-flap.n{node}")
        return True

    def _fire_pull_failure(self, fault: FaultSpec) -> bool:
        self._pull_fault_refs += 1
        self.containers.set_pull_failures(fault.severity, self._pull_rng)

        def restore() -> None:
            self._pull_fault_refs -= 1
            if self._pull_fault_refs <= 0:
                self.containers.set_pull_failures(0.0)

        self._recover(fault, restore, "pull-failure")
        return True

    def _fire_straggler(self, fault: FaultSpec) -> bool:
        node = self._pick_node(fault, need_running=True)
        if node is None:
            return False
        agent = self.agents[node]
        running = sorted(
            name
            for name, te in agent.running.items()
            if te.state is TaskState.RUNNING
        )
        if not running:
            return False
        victim = running[int(self._rng.integers(len(running)))]
        te = agent.running[victim]
        te.rate_scale = fault.severity
        agent.on_task_change(te)
        agent.trace("fault", victim, event="straggler", scale=fault.severity)

        def restore() -> None:
            if te.state is TaskState.RUNNING:
                te.rate_scale = 1.0
                agent.on_task_change(te)

        self._recover(fault, restore, f"straggler.{victim}")
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<FaultInjector fired={self.fired}/{len(self._pending)} "
            f"cursor={self._cursor}>"
        )
