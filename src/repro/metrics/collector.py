"""Per-task and per-experiment measurement collection.

The evaluation (§IV-B) studies: total workflow execution time, page-fault
counts, batch makespan, data swapped to disk vs. moved to CXL, and startup
time.  :class:`TaskMetrics` accumulates the per-task views;
:class:`MetricsRegistry` aggregates them and snapshots node-level traffic
counters into an experiment-level record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..memory.system import NodeMemorySystem
from ..memory.tiers import CXL
from ..obs import percentile
from ..util.validation import require

__all__ = ["TaskMetrics", "FaultStats", "MetricsRegistry"]


@dataclass
class TaskMetrics:
    """Lifecycle timestamps and fault counters for one task instance."""

    owner: str
    wclass: str = "GENERIC"
    submitted_at: float = 0.0
    scheduled_at: Optional[float] = None
    container_ready_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    failed: bool = False
    failure_reason: str = ""
    major_faults: int = 0
    minor_faults: int = 0
    #: cgroup OOM-kill count (from :class:`~repro.containers.cgroup.MemoryCgroup`)
    oom_kills: int = 0
    #: scheduler requeues after fault-induced interruptions
    retries: int = 0
    phase_durations: list[float] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def queue_wait(self) -> float:
        require(self.scheduled_at is not None, f"{self.owner}: never scheduled")
        return self.scheduled_at - self.submitted_at

    @property
    def startup_time(self) -> float:
        """Container cold-start: scheduling to runnable (image ready)."""
        require(self.container_ready_at is not None, f"{self.owner}: container never ready")
        require(self.scheduled_at is not None, f"{self.owner}: never scheduled")
        return self.container_ready_at - self.scheduled_at

    @property
    def execution_time(self) -> float:
        """Start-of-execution to completion (the per-workflow Fig. 5 metric)."""
        require(self.finished_at is not None, f"{self.owner}: never finished")
        require(self.started_at is not None, f"{self.owner}: never started")
        return self.finished_at - self.started_at

    @property
    def turnaround(self) -> float:
        """Submission to completion, startup and queueing included."""
        require(self.finished_at is not None, f"{self.owner}: never finished")
        return self.finished_at - self.submitted_at

    @property
    def done(self) -> bool:
        return self.finished_at is not None and not self.failed


@dataclass
class FaultStats:
    """Experiment-level resilience counters (the ``ext_resilience`` series).

    Populated by the fault injector, the scheduler's requeue path, the
    node agents' evacuation path, and the container runtime's pull
    retries.  All counters stay zero when no faults are injected.
    """

    #: injections by fault kind (``FaultKind.value`` → count)
    injected: dict[str, int] = field(default_factory=dict)
    #: running tasks killed by a fault (node crash / stranded evacuation)
    tasks_interrupted: int = 0
    #: jobs put back on the queue after a fault-induced failure
    job_requeues: int = 0
    #: jobs that exhausted ``max_retries`` and were marked failed
    retries_exhausted: int = 0
    #: image pulls retried after a transient pull failure
    pull_retries: int = 0
    #: shared-CXL staging reads degraded to a network pull
    pull_fallbacks: int = 0
    #: tier-offline events that triggered a page evacuation
    tier_evacuations: int = 0
    #: bytes moved off failing tiers onto survivors
    evacuated_bytes: int = 0
    #: per-fault time from injection to recovery completion (feeds MTTR)
    recovery_times: list[float] = field(default_factory=list)

    def record_injection(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def mttr(self) -> float:
        """Mean time to recovery over every recovered fault (0 if none)."""
        if not self.recovery_times:
            return 0.0
        return float(np.mean(self.recovery_times))


class MetricsRegistry:
    """All task metrics of one experiment run, plus node-level roll-ups."""

    def __init__(self) -> None:
        self._tasks: dict[str, TaskMetrics] = {}
        self.faults = FaultStats()

    def task(self, owner: str, wclass: str = "GENERIC") -> TaskMetrics:
        tm = self._tasks.get(owner)
        if tm is None:
            tm = TaskMetrics(owner=owner, wclass=wclass)
            self._tasks[owner] = tm
        return tm

    def get(self, owner: str) -> TaskMetrics:
        require(owner in self._tasks, f"no metrics for task {owner!r}")
        return self._tasks[owner]

    def tasks(self) -> Iterable[TaskMetrics]:
        return self._tasks.values()

    def __len__(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def completed(self) -> list[TaskMetrics]:
        return [t for t in self._tasks.values() if t.done]

    def failed(self) -> list[TaskMetrics]:
        return [t for t in self._tasks.values() if t.failed]

    def makespan(self) -> float:
        """First submission to last completion across the batch."""
        done = self.completed()
        require(len(done) > 0, "no completed tasks")
        start = min(t.submitted_at for t in done)
        end = max(t.finished_at for t in done)  # type: ignore[arg-type]
        return end - start

    def total_oom_kills(self) -> int:
        """Cluster-wide OOM kills, sourced from the cgroup counters."""
        return sum(t.oom_kills for t in self._tasks.values())

    def total_retries(self) -> int:
        return sum(t.retries for t in self._tasks.values())

    def goodput(self) -> float:
        """Completed workflows per simulated hour of makespan.

        The survival-oriented throughput figure for the resilience
        experiments; 0 when nothing completed.
        """
        done = self.completed()
        if not done:
            return 0.0
        span = self.makespan()
        if span <= 0:
            return 0.0
        return len(done) / span * 3600.0

    def mean_execution_time(self, wclass: Optional[str] = None) -> float:
        pool = [
            t.execution_time
            for t in self.completed()
            if wclass is None or t.wclass == wclass
        ]
        require(len(pool) > 0, f"no completed tasks for class {wclass!r}")
        return float(np.mean(pool))

    def total_faults(self, wclass: Optional[str] = None) -> tuple[int, int]:
        majors = sum(
            t.major_faults for t in self._tasks.values() if wclass is None or t.wclass == wclass
        )
        minors = sum(
            t.minor_faults for t in self._tasks.values() if wclass is None or t.wclass == wclass
        )
        return majors, minors

    def mean_startup_time(self) -> float:
        pool = [t.startup_time for t in self.completed()]
        require(len(pool) > 0, "no completed tasks")
        return float(np.mean(pool))

    # ------------------------------------------------------------------ #
    # percentile aggregates
    # ------------------------------------------------------------------ #
    #: the latency metrics summarised by :meth:`percentiles` and
    #: :meth:`to_table` — name → per-task accessor.  ``turnaround``
    #: (submission to finish) is the service layer's headline metric;
    #: batch outcomes report the same tails so the two modes compare.
    LATENCY_METRICS = ("queue_wait", "startup_time", "execution_time", "turnaround")
    #: reported quantiles (tail behaviour, not just means — §IV-B studies
    #: interference, which shows up in the tail first)
    QUANTILES = (50.0, 95.0, 99.0)

    def latency_samples(self, metric: str, wclass: Optional[str] = None) -> list[float]:
        """Per-completed-task samples of one latency metric, optionally
        restricted to a workload class."""
        require(metric in self.LATENCY_METRICS, f"unknown latency metric {metric!r}")
        return [
            float(getattr(t, metric))
            for t in self.completed()
            if wclass is None or t.wclass == wclass
        ]

    def percentiles(
        self, metric: str, wclass: Optional[str] = None
    ) -> tuple[float, float, float]:
        """(p50, p95, p99) of a latency metric; requires completed tasks."""
        pool = self.latency_samples(metric, wclass)
        require(len(pool) > 0, f"no completed tasks for class {wclass!r}")
        p50, p95, p99 = (percentile(pool, q) for q in self.QUANTILES)
        return p50, p95, p99

    def workload_classes(self) -> list[str]:
        """Workload classes with at least one completed task, sorted."""
        return sorted({t.wclass for t in self.completed()})

    def percentile_rows(self) -> list[list[object]]:
        """``[class, metric, p50, p95, p99]`` rows across every class
        (plus an ``ALL`` roll-up when more than one class completed)."""
        classes = self.workload_classes()
        scopes: list[Optional[str]] = list(classes)
        if len(classes) > 1:
            scopes.append(None)
        rows: list[list[object]] = []
        for scope in scopes:
            for metric in self.LATENCY_METRICS:
                p50, p95, p99 = self.percentiles(metric, scope)
                rows.append([scope if scope is not None else "ALL", metric, p50, p95, p99])
        return rows

    def to_table(self, float_fmt: str = "{:.2f}") -> str:
        """Per-class latency percentile table (tail-aware summary)."""
        from .report import format_table

        return format_table(
            ["class", "metric", "p50", "p95", "p99"],
            self.percentile_rows(),
            title="per-class latency percentiles (s)",
            float_fmt=float_fmt,
        )

    def to_rows(self) -> list[dict[str, object]]:
        """Flat per-task export for spreadsheets / dataframes."""
        rows: list[dict[str, object]] = []
        for t in self._tasks.values():
            rows.append(
                {
                    "owner": t.owner,
                    "class": t.wclass,
                    "submitted_at": t.submitted_at,
                    "started_at": t.started_at,
                    "finished_at": t.finished_at,
                    "execution_time": t.execution_time if t.done else None,
                    "turnaround": t.turnaround if t.finished_at is not None else None,
                    "failed": t.failed,
                    "failure_reason": t.failure_reason,
                    "oom_kills": t.oom_kills,
                    "retries": t.retries,
                    "major_faults": t.major_faults,
                    "minor_faults": t.minor_faults,
                    "phases": len(t.phase_durations),
                }
            )
        return rows

    @staticmethod
    def node_traffic(nodes: Iterable[NodeMemorySystem]) -> dict[str, int]:
        """Cluster-wide data-movement roll-up (Fig. 9's swap/CXL series)."""
        out = {
            "swapped_out_bytes": 0,
            "swapped_in_bytes": 0,
            "migrated_to_cxl_bytes": 0,
            "total_migrated_bytes": 0,
            "page_cache_inserts": 0,
            "compactions": 0,
        }
        for node in nodes:
            s = node.stats
            out["swapped_out_bytes"] += s.swapped_out_bytes
            out["swapped_in_bytes"] += s.swapped_in_bytes
            out["migrated_to_cxl_bytes"] += int(s.migrated_bytes[:, int(CXL)].sum())
            out["total_migrated_bytes"] += s.total_migrated_bytes
            out["page_cache_inserts"] += s.page_cache_inserts
            out["compactions"] += s.compactions
        return out
