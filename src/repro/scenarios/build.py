"""Realizing scenarios: spec -> workload -> sized environment -> metrics.

This module is the only place a :class:`~repro.scenarios.spec.ScenarioSpec`
turns into live objects.  The pipeline is deterministic end to end:

1. :func:`~repro.scenarios.workloads.build_workload` rebuilds the task
   batch (and arrival times) from ``(spec.workload, spec.seed)``;
2. :func:`environment_config` sizes the tiers against the workload's
   aggregate bytes through the one shared
   :func:`repro.memory.tiers.scaled_tier_capacities`;
3. :func:`realize` wires the cluster (attaching any named fault
   schedule) and :meth:`RealizedScenario.execute` runs it to completion.

:func:`run_scenario` is the generic harness on top — it executes any
scenario and condenses the metrics into a :class:`ScenarioOutcome`, which
is what ``python -m repro scenarios run`` prints and caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..envs.environments import EnvKind, Environment, EnvironmentConfig
from ..faults.spec import FaultKind, FaultSchedule, FaultSpec
from ..memory.tiers import PMEM, scaled_tier_capacities
from ..metrics.collector import MetricsRegistry
from ..service.metrics import ServiceReport
from ..service.run import serve
from ..service.stream import TaskStream
from ..util.validation import require
from ..workflows.task import TaskSpec
from .policies import resolve_policy
from .spec import ScenarioSpec
from .workloads import CLASS_ORDER, build_workload

__all__ = [
    "FAULT_SCHEDULES",
    "RealizedScenario",
    "ScenarioOutcome",
    "default_chaos_schedule",
    "environment_config",
    "environment_for_tasks",
    "realize",
    "run_scenario",
    "run_service",
    "service_sizing_tasks",
    "workload_totals",
]


# --------------------------------------------------------------------------- #
# named fault schedules
# --------------------------------------------------------------------------- #

def default_chaos_schedule(n_nodes: int) -> FaultSchedule:
    """The fixed disturbance scenario ext-resilience replays per env."""
    return FaultSchedule(
        [
            # registry outage while the first pulls are in flight
            FaultSpec(FaultKind.IMAGE_PULL_FAILURE, time=0.0, duration=30.0, severity=0.6),
            # one early task limps at 40% speed for a while
            FaultSpec(FaultKind.TASK_STRAGGLER, time=20.0, duration=40.0, severity=0.4),
            # a PMem DIMM on node 0 drops to half bandwidth
            FaultSpec(
                FaultKind.TIER_DEGRADED, time=35.0, node=0, tier=PMEM,
                duration=30.0, severity=0.5,
            ),
            # the last node dies mid-run and comes back 45 s later
            FaultSpec(FaultKind.NODE_CRASH, time=50.0, node=n_nodes - 1, duration=45.0),
            # node 0 loses its CXL link: pages evacuate, staging degrades
            FaultSpec(FaultKind.CXL_LINK_FLAP, time=140.0, node=0, duration=20.0),
        ]
    )


#: name -> (n_nodes -> FaultSchedule); what ``ScenarioSpec.fault_schedule``
#: resolves against
FAULT_SCHEDULES: Dict[str, Callable[[int], FaultSchedule]] = {
    "default-chaos": default_chaos_schedule,
}


# --------------------------------------------------------------------------- #
# sizing
# --------------------------------------------------------------------------- #

def workload_totals(tasks: Sequence[TaskSpec]) -> Dict[str, int]:
    """Aggregate byte counts per sizing basis."""
    return {
        "max-footprint": sum(t.max_footprint for t in tasks),
        "footprint": sum(t.footprint for t in tasks),
        "wss": sum(t.wss for t in tasks),
    }


def environment_config(
    spec: ScenarioSpec,
    tasks: Sequence[TaskSpec],
    *,
    policy_factory: Optional[Callable] = None,
) -> EnvironmentConfig:
    """Size and describe the cluster ``spec`` asks for, given its workload.

    ``policy_factory`` is an unserializable escape hatch for library users
    experimenting with custom policies; registered scenarios use
    ``spec.policy`` names instead.
    """
    sizing = spec.sizing
    tiered = spec.env in (EnvKind.TME, EnvKind.IMME)
    total = workload_totals(tasks)[sizing.basis]
    dram, pmem, cxl = scaled_tier_capacities(
        tiered=tiered,
        chunk_size=spec.chunk_size,
        total_footprint=total,
        dram_fraction=sizing.dram_fraction,
        dram_per_node=sizing.dram_per_node,
        n_nodes=spec.n_nodes,
        pmem_capacity=sizing.pmem_capacity,
        cxl_capacity=sizing.cxl_capacity,
        floor_chunks=sizing.floor_chunks,
    )
    if policy_factory is None and spec.policy is not None:
        policy_factory = resolve_policy(spec.policy)
    stage = spec.stage_images
    if stage is None:
        stage = spec.env is EnvKind.IMME
    return EnvironmentConfig(
        kind=spec.env,
        n_nodes=spec.n_nodes,
        cores_per_node=spec.cores_per_node,
        dram_capacity=dram,
        pmem_capacity=pmem,
        cxl_capacity=cxl,
        chunk_size=spec.chunk_size,
        daemon_interval=spec.daemon_interval,
        cxl_fraction=spec.cxl_fraction,
        policy_factory=policy_factory,
        stage_images=stage,
    )


def environment_for_tasks(
    spec: ScenarioSpec,
    tasks: Sequence[TaskSpec],
    *,
    policy_factory: Optional[Callable] = None,
) -> Environment:
    """Build (and fault-arm) the environment for an already-built workload."""
    env = Environment(environment_config(spec, tasks, policy_factory=policy_factory))
    if spec.fault_schedule is not None:
        try:
            schedule = FAULT_SCHEDULES[spec.fault_schedule](spec.n_nodes)
        except KeyError:
            raise KeyError(
                f"unknown fault schedule {spec.fault_schedule!r}; "
                f"registered: {sorted(FAULT_SCHEDULES)}"
            ) from None
        env.inject_faults(schedule, seed=spec.fault_seed)
    return env


# --------------------------------------------------------------------------- #
# realization & the generic runner
# --------------------------------------------------------------------------- #

@dataclass
class RealizedScenario:
    """A spec turned live: the wired cluster plus its workload."""

    spec: ScenarioSpec
    env: Environment
    tasks: List[TaskSpec]
    arrivals: Optional[List[float]] = None

    def execute(self) -> MetricsRegistry:
        """Run to completion (closed batch or open arrivals) and stop."""
        if self.arrivals is not None:
            metrics = self.env.run_arrivals(
                self.tasks, self.arrivals, max_time=self.spec.max_time
            )
        else:
            metrics = self.env.run_batch(
                self.tasks, exclusive=self.spec.exclusive, max_time=self.spec.max_time
            )
        self.env.stop()
        return metrics

    def serve(self, *, live: Optional[str] = None) -> ServiceReport:
        """Drive the scenario as an open-loop service and stop.

        The scenario's workload (if any) becomes the *background*: its
        tasks are submitted at their batch/arrival times while the
        service stream arrives on top.  ``live`` names a directory for
        the streaming window metrics (``live.ndjson`` + ``metrics.prom``;
        see :class:`~repro.obs.insight.LiveMetricsWriter`).
        """
        require(
            self.spec.service is not None,
            f"scenario {self.spec.name!r} has no service section",
        )
        report = serve(
            self.env,
            self.spec.service,
            scale=self.spec.workload.scale,
            seed=self.spec.seed,
            scenario=self.spec.name,
            background=self.tasks,
            bg_arrivals=self.arrivals,
            max_time=self.spec.max_time,
            live=live,
        )
        self.env.stop()
        return report


def service_sizing_tasks(spec: ScenarioSpec) -> List[TaskSpec]:
    """Representative resident set for sizing a *service* scenario's tiers.

    An open-loop stream has no fixed task list to size against, so the
    tiers are provisioned for the background workload plus
    ``sizing_copies`` (a service param, default 8) concurrently-resident
    copies of each stream class's base task.  Raising ``sizing_copies``
    provisions for a deeper resident set; lowering it makes the memory
    pressure the experiment's independent variable.
    """
    svc = spec.service
    require(svc is not None, "service_sizing_tasks needs a service scenario")
    copies = int(svc.param("sizing_copies", 8))
    bases = TaskStream(svc.classes, spec.workload.scale, spec.seed).bases()
    return [base for base in bases for _ in range(max(1, copies))]


def realize(
    spec: ScenarioSpec, *, policy_factory: Optional[Callable] = None
) -> RealizedScenario:
    """Build the workload and environment for ``spec`` without running it."""
    with obs.span("scenario.realize", scenario=spec.name, seed=spec.seed):
        tasks, arrivals = build_workload(spec.workload, spec.seed)
        sizing_tasks = list(tasks)
        if spec.service is not None:
            sizing_tasks.extend(service_sizing_tasks(spec))
        env = environment_for_tasks(spec, sizing_tasks, policy_factory=policy_factory)
    return RealizedScenario(spec=spec, env=env, tasks=tasks, arrivals=arrivals)


@dataclass(frozen=True)
class ScenarioOutcome:
    """Condensed, cacheable result of one generic scenario run."""

    scenario: str
    digest: str
    seed: int
    makespan: float
    completed: int
    failed: int
    mean_startup: float
    #: (class name, mean execution time) for classes that completed work
    mean_exec: Tuple[Tuple[str, float], ...] = ()
    notes: Tuple[str, ...] = ()
    #: (metric name, p50, p95, p99) for each latency metric — the tail
    #: view the mean columns hide (defaults keep pre-1.4 cached outcomes
    #: decodable)
    latency_percentiles: Tuple[Tuple[str, float, float, float], ...] = ()

    def row(self) -> List[float]:
        return [self.makespan, float(self.completed), float(self.failed)]

    def percentile(self, metric: str, q: int) -> float:
        """Look up one recorded percentile (q in {50, 95, 99}); NaN when the
        outcome predates percentile recording or nothing completed."""
        for name, p50, p95, p99 in self.latency_percentiles:
            if name == metric:
                return {50: p50, 95: p95, 99: p99}[q]
        return math.nan


def run_service(spec: ScenarioSpec, *, live: Optional[str] = None) -> ServiceReport:
    """Realize and serve one service scenario (the service CLI's work unit).

    Hermetic and picklable, like :func:`run_scenario`: safe as a sweep
    cell in any worker process, and the returned
    :class:`~repro.service.metrics.ServiceReport` rides the result-cache
    codec unchanged.  ``live`` streams window metrics to a directory
    (``scenarios serve --live``).
    """
    require(spec.service is not None, f"scenario {spec.name!r} has no service section")
    return realize(spec).serve(live=live)


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Realize, execute, and summarize one scenario (the CLI's work unit).

    Hermetic and picklable: safe as a sweep cell in any worker process.
    """
    realized = realize(spec)
    metrics = realized.execute()
    per_class = []
    for cls in CLASS_ORDER:
        done = [t.execution_time for t in metrics.completed() if t.wclass == cls.name]
        if done:
            per_class.append((cls.name, float(np.mean(done))))
    completed = len(metrics.completed())
    # a run where no task completes has no makespan, startup or tail:
    # NaN, never a fake 0.0 (and no percentiles, which read as NaN)
    percentiles = tuple(
        (metric, *metrics.percentiles(metric))
        for metric in MetricsRegistry.LATENCY_METRICS
    ) if completed else ()
    return ScenarioOutcome(
        scenario=spec.name,
        digest=spec.digest(),
        seed=spec.seed,
        makespan=metrics.makespan() if completed else math.nan,
        completed=completed,
        failed=len(metrics.failed()),
        mean_startup=metrics.mean_startup_time() if completed else math.nan,
        mean_exec=tuple(per_class),
        latency_percentiles=percentiles,
    )
