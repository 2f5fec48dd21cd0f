"""The open-loop service engine: arrivals in, windowed reports out.

:class:`ServiceRun` is to a long-lived cluster what
:meth:`~repro.envs.environments.Environment.run_batch` is to an
experiment: it owns the drive loop.  The moving parts:

* **one pending arrival event** — each firing submits (or sheds) the
  arrival and schedules the next, so a stream of millions of arrivals
  never materializes a job list;
* a one-member :class:`~repro.sim.process.TickGroup` whose event closes
  the current window at each boundary, sampling the live state (queue
  depth, running cores); the run closes a trailing partial window itself;
* the scheduler's attached admission policy
  (:mod:`repro.service.admission`) deciding accept/shed per lazy
  :class:`~repro.service.stream.Arrival`, whose task is built only once
  admitted;
* a custom drain condition: the run is over when the stream is exhausted
  *and* the scheduler is idle (``run_to_completion`` alone would exit in
  any momentary gap between arrivals).

Everything else — window assembly, warm-up truncation, steady-state
tails — happens after the clock stops, in
:class:`~repro.service.metrics.WindowAccumulator`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from .. import obs
from ..envs.environments import Environment
from ..obs import insight as _insight
from ..obs.insight import LiveMetricsWriter, live_window_payload
from ..sim.process import TickGroup
from ..util.errors import SchedulingError
from ..workflows.task import TaskSpec
from .admission import build_admission
from .arrivals import arrival_process
from .metrics import ServiceReport, WindowAccumulator
from .spec import ServiceSpec
from .stream import TaskStream

__all__ = ["ServiceRun", "serve"]


class ServiceRun:
    """Drive one environment as a steady-state service.

    Parameters
    ----------
    env:
        A wired :class:`~repro.envs.environments.Environment`.
    service:
        The :class:`~repro.service.spec.ServiceSpec` describing stream,
        windows, warm-up, and admission.
    scale:
        Memory scale for the stream's task suite (normally the
        scenario workload's ``scale``).
    seed:
        Master seed; the arrival process and task stream derive their
        own named streams from it.
    background:
        Tasks submitted outside the stream (long-running colocated
        jobs), all at the start of the run.
    live:
        Optional :class:`~repro.obs.insight.LiveMetricsWriter` (or a
        directory path): every closed window appends one NDJSON line and
        rewrites a Prometheus-text snapshot, with per-node tier
        occupancy / stall blocks when the insight plane is active —
        what ``scenarios serve --live`` and ``obs tail`` consume.
    """

    def __init__(
        self,
        env: Environment,
        service: ServiceSpec,
        *,
        scale: float,
        seed: int = 0,
        scenario: str = "service",
        background: Sequence[TaskSpec] = (),
        max_time: float = 1e9,
        live: "LiveMetricsWriter | str | None" = None,
    ) -> None:
        self.env = env
        self.engine = env.engine
        self.scheduler = env.scheduler
        self.service = service
        self.seed = int(seed)
        self.scenario = scenario
        self.background = list(background)
        self.max_time = float(max_time)
        self.stream = TaskStream(service.classes, scale, self.seed)
        self._arrivals: Iterator[Tuple[float, Optional[str]]] = arrival_process(
            service, self.seed
        )
        self.accumulator = WindowAccumulator(
            service.window, self.scheduler.total_cores
        )
        self.offered = 0
        self.admitted = 0
        self._generated_all = False
        self._submitted: "set[str]" = set()
        self.report: Optional[ServiceReport] = None
        self.live = LiveMetricsWriter(live) if isinstance(live, str) else live

    # ------------------------------------------------------------------ #
    # arrival handling
    # ------------------------------------------------------------------ #
    def _next_arrival(self) -> None:
        """Schedule the stream's next arrival, or end the stream."""
        svc = self.service
        if svc.max_arrivals and self.offered >= svc.max_arrivals:
            self._generated_all = True
            return
        item = next(self._arrivals, None)
        if item is None:
            self._generated_all = True
            return
        t, override = item
        when = self._origin + float(t)
        if svc.horizon and float(t) > svc.horizon:
            self._generated_all = True
            return
        index = self.offered
        self.engine.schedule_at(
            when, lambda: self._on_arrival(index, override), f"service.arrival.{index}"
        )

    def _on_arrival(self, index: int, override: Optional[str]) -> None:
        self.offered += 1
        job = self.scheduler.try_submit(self.stream.arrival(index, override))
        admitted = job is not None
        if admitted:
            task = job.spec
            self.admitted += 1
            self._submitted.add(task.name)
            self.accumulator.cores_of[task.name] = task.cores
        self.accumulator.on_offered(admitted)
        self._next_arrival()

    def _close_window(self, end: Optional[float] = None) -> None:
        """Close the accumulator's current window at its boundary, or at
        ``end``: the stop time of a run, if it stopped inside the window."""
        acc = self.accumulator
        index = acc.closed
        start = self._origin + index * acc.window
        if end is None:
            end = start + acc.window
        elif end <= start:
            return
        closed = acc.on_boundary(self.scheduler.pending_count, self.scheduler.running_count)
        if not (obs.enabled() or self.live is not None):
            return
        if obs.enabled():
            obs.event(
                end, "service", "window",
                index=index,
                offered=closed.arrivals,
                admitted=closed.admitted,
                rejected=closed.rejected,
                queue=closed.queue_depth,
                running=closed.running,
            )
        if self.live is not None:
            self.live.write_window(
                live_window_payload(
                    index, start, end,
                    offered=closed.arrivals,
                    admitted=closed.admitted,
                    rejected=closed.rejected,
                    queue=closed.queue_depth,
                    running=closed.running,
                    view=_insight.view(),
                )
            )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self) -> ServiceReport:
        """Run the service to its stop condition and assemble the report."""
        svc = self.service
        env = self.env
        with obs.span("service.run", scenario=self.scenario, seed=self.seed):
            self.scheduler.admission = build_admission(svc)
            if env.config.stage_images and env.shared_memory is not None:
                env.stage_images_for(list(self.background) + self.stream.bases())
            self._origin = self.engine.now
            windows = TickGroup(self.engine, svc.window, "service.window")
            handle = windows.add(lambda _now: self._close_window())
            # a zero-delay event per background task, not a direct submit:
            # it keeps the same-instant firing order of everything after it
            for task in self.background:
                self._submitted.add(task.name)
                self.accumulator.cores_of[task.name] = task.cores
                self.engine.schedule(
                    0.0,
                    lambda t=task: self.scheduler.submit(t),
                    f"service.background.{task.name}",
                )
            self._next_arrival()
            try:
                self._drive()
            finally:
                windows.remove(handle)
                self.scheduler.admission = None
            stop = self.engine.now
            self._close_window(stop)
            self.report = self.accumulator.assemble(
                scenario=self.scenario,
                seed=self.seed,
                metrics=env.metrics,
                start=self._origin,
                stop=stop,
                offered=self.offered,
                admitted=self.admitted,
                rejected=self.offered - self.admitted,
                warmup_method=svc.warmup,
                warmup_metric=svc.warmup_metric,
                cv_threshold=svc.cv_threshold,
                cv_span=svc.cv_span,
                submitted=self._submitted,
            )
            if obs.enabled():
                obs.counter("service.offered", self.report.offered)
                obs.counter("service.admitted", self.report.admitted)
                obs.counter("service.rejected", self.report.rejected)
                obs.counter("service.windows", len(self.report.windows))
        return self.report

    def _drive(self) -> None:
        """Advance the engine to the service's stop condition."""
        svc = self.service
        engine = self.engine
        if svc.horizon and not svc.drain:
            # truncated run: everything after the horizon is out of scope
            engine.run(until=self._origin + svc.horizon)
            self._generated_all = True
            return
        while not (self._generated_all and self.scheduler.all_done):
            if not engine.step():
                if self._generated_all:
                    break
                raise SchedulingError(
                    "service deadlock: stream not exhausted but no events pending"
                )
            if engine.now > self.max_time:
                raise SchedulingError(
                    f"service still running at t={engine.now} (max_time={self.max_time})"
                )


def serve(
    env: Environment,
    service: ServiceSpec,
    *,
    scale: float,
    seed: int = 0,
    scenario: str = "service",
    background: Sequence[TaskSpec] = (),
    max_time: float = 1e9,
    live: "LiveMetricsWriter | str | None" = None,
) -> ServiceReport:
    """One-call form: build a :class:`ServiceRun`, execute it, return the
    report (the environment is *not* stopped — callers owning telemetry
    call :meth:`Environment.stop` themselves, as with ``run_batch``)."""
    return ServiceRun(
        env,
        service,
        scale=scale,
        seed=seed,
        scenario=scenario,
        background=background,
        max_time=max_time,
        live=live,
    ).execute()
