"""Windowed steady-state metrics: what a service run reports.

The report period divides the run into fixed windows.  Some window
columns must be sampled *live* (queue depth, running cores — the state
no longer exists once the run ends); the rest are computed exactly from
task metrics after the run (utilization as busy core-seconds overlapped
onto each window, completions and turnarounds by ``finished_at``).
Everything lands in plain frozen dataclasses of primitives and tuples so
a :class:`ServiceReport` rides the result-cache codec and compares
``==`` across processes — the bit-identity the determinism tests pin.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..metrics.collector import MetricsRegistry
from ..metrics.report import format_table
from ..obs import percentile
from ..util.validation import require

__all__ = ["ClassLatency", "ServiceReport", "WindowAccumulator", "WindowRecord"]


@dataclass(frozen=True, eq=False)
class WindowRecord:
    """One report-period window of a service run.

    Equality is NaN-aware: an empty window's ``mean_turnaround`` is NaN,
    and a report decoded in another process must still compare ``==`` to
    the original (plain float NaN would break the tuple comparison)."""

    index: int
    start: float
    end: float
    #: stream arrivals offered in the window (admitted + rejected)
    arrivals: int
    admitted: int
    rejected: int
    #: tasks whose completion fell inside the window
    completed: int
    failed: int
    #: scheduler backlog sampled at the window boundary
    queue_depth: int
    #: tasks executing at the window boundary
    running: int
    #: time-averaged busy-core fraction over the window
    utilization: float
    #: mean turnaround of the window's completions (NaN when none)
    mean_turnaround: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowRecord):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a != b and not (a != a and b != b):  # NaN == NaN here
                return False
        return True

    def __hash__(self) -> int:
        return hash((self.index, self.start, self.end, self.arrivals))


@dataclass(frozen=True)
class ClassLatency:
    """Steady-state turnaround distribution for one workload class."""

    wclass: str
    count: int
    mean: float
    p50: float
    p95: float
    p99: float


@dataclass(frozen=True)
class ServiceReport:
    """The condensed, cacheable outcome of one open-loop service run."""

    scenario: str
    seed: int
    #: every window, in order (the last may be partial at the horizon)
    windows: Tuple[WindowRecord, ...]
    #: windows discarded as warm-up
    warmup_windows: int
    #: whether the chosen metric stabilized before the run ended
    converged: bool
    #: totals over the whole run
    offered: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    #: simulated time the service observed (first arrival scheduling to stop)
    duration: float
    #: post-warm-up aggregates
    steady_utilization: float
    steady_queue_depth: float
    steady_throughput: float
    #: per-class turnaround percentiles over post-warm-up completions
    class_latency: Tuple[ClassLatency, ...] = ()
    notes: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    @property
    def admitted_fraction(self) -> float:
        return self.admitted / self.offered if self.offered else 1.0

    @property
    def steady_windows(self) -> Tuple[WindowRecord, ...]:
        return self.windows[self.warmup_windows :]

    def latency(self, wclass: str) -> ClassLatency:
        for cl in self.class_latency:
            if cl.wclass == wclass:
                return cl
        raise KeyError(f"no steady-state completions for class {wclass!r}")

    def to_table(self, float_fmt: str = "{:.2f}") -> str:
        rows = [
            [
                f"w{w.index}{'*' if w.index < self.warmup_windows else ''}",
                w.start, w.end, float(w.arrivals), float(w.admitted),
                float(w.rejected), float(w.completed), float(w.queue_depth),
                w.utilization, w.mean_turnaround,
            ]
            for w in self.windows
        ]
        body = format_table(
            ["window", "start", "end", "offered", "admitted", "rejected",
             "completed", "queue", "util", "turnaround"],
            rows,
            title=(
                f"{self.scenario}: {len(self.windows)} windows "
                f"({self.warmup_windows} warm-up{'' if self.converged else ', NOT converged'})"
            ),
            float_fmt=float_fmt,
        )
        lines = [
            body,
            f"  offered={self.offered} admitted={self.admitted} "
            f"rejected={self.rejected} completed={self.completed} failed={self.failed}",
            f"  steady state: util={self.steady_utilization:.3f} "
            f"queue={self.steady_queue_depth:.1f} "
            f"throughput={self.steady_throughput * 3600.0:.1f}/h",
        ]
        for cl in self.class_latency:
            lines.append(
                f"  {cl.wclass}: n={cl.count} turnaround mean={cl.mean:.2f} "
                f"p50={cl.p50:.2f} p95={cl.p95:.2f} p99={cl.p99:.2f}"
            )
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_table()


# --------------------------------------------------------------------------- #
# live accumulation + post-run assembly
# --------------------------------------------------------------------------- #

@dataclass
class _LiveWindow:
    """Mutable per-window counters the run loop maintains."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    queue_depth: int = 0
    running: int = 0


class WindowAccumulator:
    """Collect live window samples during the run, then assemble the
    exact :class:`ServiceReport` from the task metrics afterwards."""

    def __init__(self, window: float, total_cores: int) -> None:
        require(window > 0, "window must be > 0")
        require(total_cores > 0, "total_cores must be > 0")
        self.window = float(window)
        self.total_cores = int(total_cores)
        self._live: List[_LiveWindow] = [_LiveWindow()]
        #: windows closed so far, and so the index of the current one
        self.closed = 0
        #: task name -> cores (needed for utilization; metrics don't store it)
        self.cores_of: Dict[str, int] = {}

    # ---- live side (called from engine events) ----------------------- #
    @property
    def current(self) -> _LiveWindow:
        return self._live[-1]

    def on_offered(self, admitted: bool) -> None:
        w = self.current
        w.arrivals += 1
        if admitted:
            w.admitted += 1
        else:
            w.rejected += 1

    def on_boundary(self, queue_depth: int, running: int) -> _LiveWindow:
        """Close the current window (sampling its boundary state), open the
        next, and return the closed one."""
        w = self.current
        w.queue_depth = int(queue_depth)
        w.running = int(running)
        self.closed += 1
        self._live.append(_LiveWindow())
        return w

    # ---- assembly ----------------------------------------------------- #
    def _window_bounds(self, start: float, stop: float) -> List[Tuple[float, float]]:
        bounds = []
        n = len(self._live)
        # the trailing live window is partial iff the run stopped mid-window
        for i in range(n):
            ws = start + i * self.window
            we = min(start + (i + 1) * self.window, stop)
            if we <= ws and i > 0:
                break
            bounds.append((ws, max(we, ws)))
        return bounds

    def busy_core_seconds(
        self,
        metrics: MetricsRegistry,
        bounds: Sequence[Tuple[float, float]],
        stop: float,
    ) -> List[float]:
        """Exact busy core-seconds per window from task start/finish
        intervals; tasks still running at ``stop`` count up to ``stop``."""
        busy = [0.0] * len(bounds)
        if not bounds:
            return busy
        first = bounds[0][0]
        for tm in metrics.tasks():
            if tm.started_at is None:
                continue
            t0 = float(tm.started_at)
            t1 = float(tm.finished_at) if tm.finished_at is not None else float(stop)
            if t1 <= first or t1 <= t0:
                continue
            cores = self.cores_of.get(tm.owner, 1)
            lo = max(0, int((t0 - first) // self.window))
            for i in range(lo, len(bounds)):
                ws, we = bounds[i]
                if ws >= t1:
                    break
                overlap = min(we, t1) - max(ws, t0)
                if overlap > 0:
                    busy[i] += overlap * cores
        return busy

    def assemble(
        self,
        *,
        scenario: str,
        seed: int,
        metrics: MetricsRegistry,
        start: float,
        stop: float,
        offered: int,
        admitted: int,
        rejected: int,
        warmup_method: str,
        warmup_metric: str,
        cv_threshold: float,
        cv_span: int,
        submitted: Optional[Set[str]] = None,
        notes: Tuple[str, ...] = (),
    ) -> ServiceReport:
        """Build the final report (windows, warm-up cut, steady tails)."""
        from .warmup import detect_warmup

        bounds = self._window_bounds(start, stop)
        busy = self.busy_core_seconds(metrics, bounds, stop)

        # completions / turnarounds by finishing window
        done_in: List[List[float]] = [[] for _ in bounds]
        failed_in = [0] * len(bounds)
        steady_pool: Dict[str, List[float]] = {}
        tracked = [
            t for t in metrics.tasks()
            if submitted is None or t.owner in submitted
        ]
        for tm in tracked:
            if tm.finished_at is None:
                continue
            idx = min(
                len(bounds) - 1,
                max(0, int((float(tm.finished_at) - start) // self.window)),
            ) if bounds else 0
            if tm.failed:
                failed_in[idx] += 1
            elif bounds:
                done_in[idx].append(float(tm.turnaround))

        windows: List[WindowRecord] = []
        for i, (ws, we) in enumerate(bounds):
            live = self._live[i] if i < len(self._live) else _LiveWindow()
            span = we - ws
            util = busy[i] / (span * self.total_cores) if span > 0 else 0.0
            turnarounds = done_in[i]
            windows.append(
                WindowRecord(
                    index=i,
                    start=ws,
                    end=we,
                    arrivals=live.arrivals,
                    admitted=live.admitted,
                    rejected=live.rejected,
                    completed=len(turnarounds),
                    failed=failed_in[i],
                    queue_depth=live.queue_depth,
                    running=live.running,
                    utilization=min(1.0, util),
                    mean_turnaround=(
                        float(np.mean(turnarounds)) if turnarounds else math.nan
                    ),
                )
            )

        series = {
            "utilization": [w.utilization for w in windows],
            "queue_depth": [float(w.queue_depth) for w in windows],
            "turnaround": [w.mean_turnaround for w in windows],
            "completed": [float(w.completed) for w in windows],
        }[warmup_metric]
        warmup_windows, converged = detect_warmup(
            warmup_method, series, cv_threshold=cv_threshold, cv_span=cv_span
        )

        steady = windows[warmup_windows:]
        steady_start = start + warmup_windows * self.window
        for tm in tracked:
            if tm.done and float(tm.finished_at) >= steady_start:
                steady_pool.setdefault(tm.wclass, []).append(float(tm.turnaround))
        class_latency = []
        for wclass in sorted(steady_pool):
            pool = steady_pool[wclass]
            p50, p95, p99 = (percentile(pool, q) for q in MetricsRegistry.QUANTILES)
            class_latency.append(
                ClassLatency(
                    wclass, len(pool), float(np.mean(pool)), p50, p95, p99,
                )
            )

        steady_span = sum(w.duration for w in steady)
        completed = sum(w.completed for w in windows)
        failed = sum(w.failed for w in windows)
        return ServiceReport(
            scenario=scenario,
            seed=int(seed),
            windows=tuple(windows),
            warmup_windows=warmup_windows,
            converged=converged,
            offered=int(offered),
            admitted=int(admitted),
            rejected=int(rejected),
            completed=completed,
            failed=failed,
            duration=stop - start,
            steady_utilization=(
                float(np.mean([w.utilization for w in steady])) if steady else 0.0
            ),
            steady_queue_depth=(
                float(np.mean([w.queue_depth for w in steady])) if steady else 0.0
            ),
            steady_throughput=(
                sum(w.completed for w in steady) / steady_span if steady_span > 0 else 0.0
            ),
            class_latency=tuple(class_latency),
            notes=notes,
        )
