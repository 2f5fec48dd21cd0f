"""The paper's four execution environments (§IV-C3), ready to run.

* **IE** — Ideal Environment: enough local DRAM for everything, plain
  Linux memory management.
* **CBE** — Constrained Baseline Environment: limited DRAM, no tiered
  memory, pages swap to disk under pressure.
* **TME** — Tiered Memory Environment: CBE plus PMem/CXL tiers managed by
  a workflow-oblivious TPP-style demand policy with temperature-based
  promotion/demotion.
* **IMME** — Intelligent Memory Management Environment: TME plus the
  paper's Tiered Memory Manager (Algorithms 1/2, intelligent movement,
  proactive swapping, CXL image staging).

An :class:`Environment` bundles the full simulated stack — engine,
cluster memory topology, node agents, container runtime, scheduler,
metrics — so experiments construct one per configuration and call
:meth:`Environment.run_batch`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .. import obs
from ..containers.image import ImageRegistry, default_images
from ..containers.runtime import ContainerRuntime, NetworkFabric
from ..core.flags import MemFlag
from ..core.manager import TieredMemoryManager
from ..core.sharing import SharedMemoryManager
from ..memory.pageset import DEFAULT_CHUNK_SIZE, UNMAPPED
from ..memory.tiers import (
    DRAM,
    NUM_TIERS,
    TierKind,
    TierSpec,
    constrained_tier_specs,
    scaled_tier_capacities,
)
from ..memory.topology import MemoryTopology
from ..obs import insight as _insight
from ..metrics.collector import MetricsRegistry
from ..policies.base import MemoryPolicy
from ..policies.linux import LinuxSwapPolicy
from ..policies.tpp import TieredDemandPolicy
from ..runtime.node_agent import NodeAgent
from ..runtime.rates import RateModelConfig
from ..scheduler.slurm import SlurmScheduler
from ..sim.engine import SimulationEngine
from ..sim.process import TickGroup
from ..util.units import GBps, TiB
from ..util.validation import check_positive, require
from ..workflows.task import TaskSpec

__all__ = ["EnvKind", "EnvironmentConfig", "Environment", "make_environment"]


class EnvKind(enum.Enum):
    IE = "ideal"
    CBE = "constrained-baseline"
    TME = "tiered-memory"
    IMME = "intelligent"


@dataclass
class EnvironmentConfig:
    """Everything needed to stand up one simulated cluster."""

    kind: EnvKind
    n_nodes: int = 1
    cores_per_node: int = 64
    dram_capacity: int = TiB(8)
    pmem_capacity: int = 0
    cxl_capacity: int = 0
    swap_capacity: int = TiB(16)
    chunk_size: int = DEFAULT_CHUNK_SIZE
    daemon_interval: float = 1.0
    network_bandwidth: float = GBps(1.25)
    rate_config: RateModelConfig = field(default_factory=RateModelConfig)
    #: IMME: pre-stage container images in shared CXL before launches
    stage_images: bool = False
    #: TME: force this fraction of each allocation onto CXL (Fig. 6 sweep)
    cxl_fraction: Optional[float] = None
    #: override the policy entirely (Fig. 7 allocation-policy comparison)
    policy_factory: Optional[Callable[[dict[TierKind, TierSpec]], MemoryPolicy]] = None

    def __post_init__(self) -> None:
        check_positive(self.n_nodes, "n_nodes")
        check_positive(self.cores_per_node, "cores_per_node")
        check_positive(self.dram_capacity, "dram_capacity")

    def tier_specs(self) -> dict[TierKind, TierSpec]:
        if self.kind in (EnvKind.IE, EnvKind.CBE):
            return constrained_tier_specs(
                dram_capacity=self.dram_capacity, swap_capacity=self.swap_capacity
            )
        return constrained_tier_specs(
            dram_capacity=self.dram_capacity,
            pmem_capacity=self.pmem_capacity,
            cxl_capacity=self.cxl_capacity,
            swap_capacity=self.swap_capacity,
        )

    def build_policy(self, specs: dict[TierKind, TierSpec]) -> MemoryPolicy:
        if self.policy_factory is not None:
            return self.policy_factory(specs)
        if self.kind in (EnvKind.IE, EnvKind.CBE):
            return LinuxSwapPolicy()
        if self.kind is EnvKind.TME:
            return TieredDemandPolicy(cxl_fraction=self.cxl_fraction)
        return TieredMemoryManager(specs)


class Environment:
    """A fully-wired simulated cluster for one environment configuration."""

    def __init__(self, config: EnvironmentConfig, registry: Optional[ImageRegistry] = None):
        self.config = config
        self.engine = SimulationEngine()
        specs = config.tier_specs()
        self.topology = MemoryTopology(config.n_nodes, specs)
        self.metrics = MetricsRegistry()
        self.shared_memory: Optional[SharedMemoryManager] = None
        if config.kind is EnvKind.IMME:
            self.shared_memory = SharedMemoryManager(self.topology.shared_cxl, config.n_nodes)
        # All node daemons tick at the same interval — coalesce them onto
        # one engine event per cluster-wide tick instead of one per node.
        self.ticker = TickGroup(self.engine, config.daemon_interval, "daemon")
        self.agents = [
            NodeAgent(
                self.engine,
                node,
                config.build_policy(specs),
                self.metrics,
                cores=config.cores_per_node,
                daemon_interval=config.daemon_interval,
                rate_config=config.rate_config,
                chunk_size=config.chunk_size,
                shared_memory=self.shared_memory,
                node_index=i,
                ticker=self.ticker,
            )
            for i, node in enumerate(self.topology.nodes)
        ]
        # Tier time-series sampling rides the shared daemon tick; one
        # enabled() check per cluster tick when the insight plane is off.
        # The stall proxy weights each slow tier's resident bytes by its
        # access-latency excess over DRAM.
        dram_lat = max(specs[DRAM].latency, 1e-12)
        self._stall_weights = np.array(
            [max(0.0, specs[TierKind(t)].latency / dram_lat - 1.0) for t in range(NUM_TIERS)],
            dtype=np.float64,
        )
        # The sampler stays a member even with insight off: an idle node
        # leaves the group, and this member keeps the group's one event
        # and its cadence, so a node that rejoins ticks on the same grid.
        # stop() removes it, so a stopped environment's engine drains.
        self._sampler_handle = self.ticker.add(self._sample_insight)
        self.registry = registry if registry is not None else default_images()
        self.fabric = NetworkFabric(self.engine, config.network_bandwidth)
        self.containers = ContainerRuntime(
            self.engine,
            self.registry,
            self.fabric,
            config.n_nodes,
            shared_memory=self.shared_memory,
            metrics=self.metrics,
        )
        self.scheduler = SlurmScheduler(self.engine, self.agents, self.containers, self.metrics)
        #: active fault injectors (see :meth:`inject_faults`)
        self.injectors: list = []
        self._telemetry_exported = False

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.config.kind.name

    def stage_images_for(self, specs: Iterable[TaskSpec]) -> None:
        """IMME: stage each distinct image once in shared CXL (§III-C5)."""
        require(self.shared_memory is not None, "image staging requires the IMME environment")
        for image in sorted({s.image for s in specs}):
            self.containers.stage_image(image)

    def run_batch(
        self,
        specs: Sequence[TaskSpec],
        *,
        flags: Optional[MemFlag] = None,
        exclusive: bool = False,
        max_time: float = 1e9,
    ) -> MetricsRegistry:
        """Submit every spec now, run to completion, return the metrics.

        ``exclusive`` runs the batch bare-metal style: whole-node
        allocations, no containers, no colocation (§II-B).
        """
        if self.config.stage_images and self.shared_memory is not None and not exclusive:
            self.stage_images_for(specs)
        self.scheduler.submit_batch(specs, flags=flags, exclusive=exclusive)
        self.scheduler.run_to_completion(max_time=max_time)
        return self.metrics

    def inject_faults(self, schedule, *, seed: int = 0):
        """Attach a started :class:`~repro.faults.FaultInjector` for
        ``schedule``; faults fire as the next run advances the clock."""
        from ..faults.injector import FaultInjector

        injector = FaultInjector(
            self.engine,
            self.agents,
            self.scheduler,
            self.containers,
            self.metrics,
            schedule,
            seed=seed,
        )
        injector.start()
        self.injectors.append(injector)
        return injector

    def node_traffic(self) -> dict[str, int]:
        return MetricsRegistry.node_traffic(self.topology.nodes)

    def _sample_insight(self, now: float) -> None:
        """Tier time-series sample on the daemon tick (insight plane).

        Captures, per node: per-tier occupancy and free bytes, the
        temperature-distribution quantiles over all mapped chunks, and
        the latency-weighted slow-tier stall proxy (resident-byte share
        weighted by each tier's access-latency excess over DRAM).
        """
        ins = _insight.active()
        if not ins.enabled:
            return
        for agent in self.agents:
            mem = agent.memory
            occ = np.array(
                [mem.used(TierKind(t)) for t in range(NUM_TIERS)], dtype=np.int64
            )
            free = np.array(
                [mem.free(TierKind(t)) for t in range(NUM_TIERS)], dtype=np.int64
            )
            total = int(occ.sum())
            stall = (
                float((occ * self._stall_weights).sum()) / total if total else 0.0
            )
            temps = [
                ps.temperature[ps.tier != UNMAPPED]
                for ps in mem.pagesets()
            ]
            temps = [t for t in temps if t.size]
            if temps:
                flat = np.concatenate(temps).astype(np.float64, copy=False)
                temp_q = np.quantile(flat, _insight.TEMP_QUANTILES)
            else:
                temp_q = np.zeros(len(_insight.TEMP_QUANTILES), dtype=np.float64)
            ins.sample(now, mem.node_id, occ, free, stall, temp_q)

    def summary(self) -> str:
        """One-paragraph human description of the wired cluster."""
        from ..util.units import bytes_to_human

        node = self.topology.node(0)
        tiers = ", ".join(
            f"{TierKind(t).name} {bytes_to_human(node.capacity(TierKind(t)))}"
            for t in range(4)
            if node.capacity(TierKind(t)) > 0
        )
        policy = self.agents[0].policy.name
        return (
            f"{self.name}: {self.config.n_nodes} node(s) x "
            f"{self.config.cores_per_node} cores, {tiers}; policy={policy}; "
            f"chunk={bytes_to_human(self.config.chunk_size)}; "
            f"image staging={'on' if self.config.stage_images else 'off'}"
        )

    def export_telemetry(self) -> None:
        """Snapshot this run's metrics into the active telemetry context:
        outcome counters, fault stats, node traffic gauges, and per-task
        latency samples (histograms → p50/p95/p99 in the exports).

        Idempotent per environment; a no-op when telemetry is disabled.
        """
        if self._telemetry_exported or not obs.enabled():
            return
        self._telemetry_exported = True
        env = self.name
        m = self.metrics
        obs.counter("env.tasks_completed", len(m.completed()), env=env)
        obs.counter("env.tasks_failed", len(m.failed()), env=env)
        obs.counter("env.oom_kills", m.total_oom_kills(), env=env)
        obs.counter("env.retries", m.total_retries(), env=env)
        majors, minors = m.total_faults()
        obs.counter("env.major_faults", majors, env=env)
        obs.counter("env.minor_faults", minors, env=env)
        f = m.faults
        for kind, count in sorted(f.injected.items()):
            obs.counter("faults.injected", count, env=env, kind=kind)
        if f.tasks_interrupted:
            obs.counter("faults.tasks_interrupted", f.tasks_interrupted, env=env)
        if f.job_requeues:
            obs.counter("faults.job_requeues", f.job_requeues, env=env)
        if f.tier_evacuations:
            obs.counter("faults.tier_evacuations", f.tier_evacuations, env=env)
        for name, value in self.node_traffic().items():
            obs.counter(f"traffic.{name}", value, env=env)
        if m.completed():
            obs.gauge("env.makespan_s", m.makespan(), env=env)
            for metric in MetricsRegistry.LATENCY_METRICS:
                for sample in m.latency_samples(metric):
                    obs.observe(metric, sample)

    def stop(self) -> None:
        self.export_telemetry()
        for agent in self.agents:
            agent.stop()
        for injector in self.injectors:
            injector.stop()
        self.ticker.remove(self._sampler_handle)


def make_environment(
    kind: EnvKind,
    *,
    n_nodes: int = 1,
    dram_capacity: int = 0,
    pmem_capacity: int = 0,
    cxl_capacity: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cores_per_node: int = 64,
    cxl_fraction: Optional[float] = None,
    policy_factory: Optional[Callable[[dict[TierKind, TierSpec]], MemoryPolicy]] = None,
    daemon_interval: float = 1.0,
    rate_config: Optional[RateModelConfig] = None,
) -> Environment:
    """Convenience factory used throughout the experiments: an
    :class:`EnvKind` plus explicit capacities.

    For TME/IMME, PMem/CXL capacities default to the paper's per-node
    ratios (2x DRAM of PMem, effectively-unlimited CXL) when not given
    (:func:`~repro.memory.tiers.scaled_tier_capacities`).
    """
    require(
        isinstance(kind, EnvKind),
        f"kind must be an EnvKind, got {type(kind).__name__} "
        "(a scenario's environment is realize(spec).env)",
    )
    require(dram_capacity > 0, "dram_capacity is required")
    dram_capacity, pmem_capacity, cxl_capacity = scaled_tier_capacities(
        tiered=kind in (EnvKind.TME, EnvKind.IMME),
        chunk_size=chunk_size,
        dram_per_node=dram_capacity,
        pmem_capacity=pmem_capacity,
        cxl_capacity=cxl_capacity,
        floor_chunks=0,  # explicit capacities are taken as given
    )
    config = EnvironmentConfig(
        kind=kind,
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        dram_capacity=dram_capacity,
        pmem_capacity=pmem_capacity,
        cxl_capacity=cxl_capacity,
        chunk_size=chunk_size,
        cxl_fraction=cxl_fraction,
        policy_factory=policy_factory,
        stage_images=(kind is EnvKind.IMME),
        daemon_interval=daemon_interval,
        rate_config=rate_config if rate_config is not None else RateModelConfig(),
    )
    return Environment(config)
