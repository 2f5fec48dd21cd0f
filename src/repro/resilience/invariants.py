"""Runtime invariant checker — conservation laws the simulator must hold.

The simulator's correctness rests on a handful of conservation
properties that faults (node crashes, tier evacuations, OOM kills) must
never break:

* **bytes are conserved** — a migration or evacuation moves chunks
  between tiers; it never creates or destroys accounted bytes,
* **no task is lost** — every submitted job is queued, starting,
  running, awaiting a requeue, or terminal; the scheduler's queue holds
  only pending jobs and holds each at most once,
* **the event heap is consistent** — the engine's O(1) live counter
  always matches a recount of the heap,
* **the rate table is the kernel** — after every re-rating, and on every
  daemon tick that skips one, each running task runs at the rate the rate
  kernel derives from scratch, and the node's one completion event sits
  at its earliest pending projected finish,
* **the promote pass sees every candidate** — each (task, tier) pair the
  IMME promote pass reaches gets from its once-per-tick candidate set
  exactly what ``PageSet.hottest_in`` finds from scratch.

Checks are wired through the same null-object dispatch trick as
:mod:`repro.obs`: every call site asks the *active* checker, which is a
shared no-op :data:`NULL_CHECKER` unless a run installs a live one as
the ``checker`` plane of its :func:`repro.obs.session`
(``run_all --check-invariants``, ``scenarios run --check-invariants``,
the ``checked`` test fixture).  Disabled cost is one attribute load plus
one no-op call — measured alongside the telemetry budget in
``benchmarks/bench_resilience.py``.

This module is deliberately import-light (stdlib + the error hierarchy
only) and duck-typed over the objects it inspects, so any layer of the
stack can call it without import cycles.
"""

from __future__ import annotations

from typing import Any, List

from ..util.errors import ReproError

__all__ = [
    "NULL_CHECKER",
    "InvariantChecker",
    "InvariantViolation",
    "NullInvariantChecker",
    "active",
    "enabled",
    "session",
]


class InvariantViolation(ReproError):
    """A conservation property the simulator must hold was broken."""


class NullInvariantChecker:
    """Checker that checks nothing — the default active instance.

    Every method is a no-op; call sites guard heavyweight precomputation
    behind ``checker.enabled`` exactly as emission points do for
    :mod:`repro.obs`.
    """

    enabled = False

    def memory(self, mem: Any) -> None:
        pass

    def conservation(
        self, where: str, before: int, after: int, *, op: str, delta: int = 0
    ) -> None:
        pass

    def engine(self, engine: Any) -> None:
        pass

    def rates(self, where: str, rated: Any) -> None:
        pass

    def completion(self, where: str, event: Any, earliest: Any) -> None:
        pass

    def candidates(self, where: str, have: Any, want: Any) -> None:
        pass

    def scheduler(self, sched: Any) -> None:
        pass

    def metrics(self, metrics: Any) -> None:
        pass


NULL_CHECKER = NullInvariantChecker()


class InvariantChecker(NullInvariantChecker):
    """The live checker: asserts, records, and (by default) raises.

    ``strict=False`` collects violations in :attr:`violations` instead of
    raising, which keeps a run alive while still counting every broken
    invariant.
    """

    enabled = True

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[str] = []
        self.checks = 0

    # ------------------------------------------------------------------ #
    def _fail(self, message: str) -> None:
        self.violations.append(message)
        from .. import obs

        obs.counter("invariants.violations")
        if self.strict:
            raise InvariantViolation(message)

    # ------------------------------------------------------------------ #
    # memory conservation
    # ------------------------------------------------------------------ #
    def memory(self, mem: Any) -> None:
        """Full accounting validation of one :class:`NodeMemorySystem`
        (per-tier used bytes match the pagesets, caches consistent)."""
        self.checks += 1
        try:
            mem.validate()
        except Exception as exc:
            self._fail(f"memory accounting on {mem.node_id}: {exc}")

    def conservation(
        self, where: str, before: int, after: int, *, op: str, delta: int = 0
    ) -> None:
        """Assert an operation changed total accounted bytes by exactly
        ``delta`` (0 for migrations/evacuations, +n for placements)."""
        self.checks += 1
        if after != before + delta:
            self._fail(
                f"bytes not conserved across {op} on {where}: "
                f"{before} -> {after} (expected {before + delta})"
            )

    # ------------------------------------------------------------------ #
    # engine heap consistency
    # ------------------------------------------------------------------ #
    def engine(self, engine: Any) -> None:
        """The O(1) live-event counter must match a recount of the heap."""
        self.checks += 1
        recount = sum(
            1 for ev in engine._heap if not ev.cancelled and not ev.fired
        )
        live = engine.pending()
        if recount != live:
            self._fail(
                f"event-heap drift: live counter says {live}, "
                f"heap recount says {recount}"
            )

    def rates(self, where: str, rated: Any) -> None:
        """Every ``(task, table rate, rate derived from scratch)`` of a
        node must agree exactly."""
        self.checks += 1
        for task, have, want in rated:
            if have != want:
                self._fail(
                    f"stale rate on {where}: {task} runs at {have!r}, "
                    f"the rate kernel gives {want!r}"
                )

    def completion(self, where: str, event: Any, earliest: Any) -> None:
        """A node's one completion event, as ``(time, seq)`` or ``None``,
        must sit at its earliest pending ``(projection, stamp)``."""
        self.checks += 1
        if event != earliest:
            self._fail(
                f"completion event on {where} at {event!r}, "
                f"earliest pending projection {earliest!r}"
            )

    def candidates(self, where: str, have: Any, want: Any) -> None:
        """A promote-pass query's chunks must be the ones, in the order,
        that ``PageSet.hottest_in`` selects from scratch."""
        self.checks += 1
        if have.tolist() != want.tolist():
            self._fail(
                f"promotion candidates of {where}: the pass takes "
                f"{have.tolist()}, hottest_in gives {want.tolist()}"
            )

    # ------------------------------------------------------------------ #
    # task accounting
    # ------------------------------------------------------------------ #
    def scheduler(self, sched: Any) -> None:
        """No task lost between queue / starting / running / terminal."""
        self.checks += 1
        from ..scheduler.job import JobState

        seen: set[int] = set()
        for job in sched.queue:
            if job.job_id in seen:
                self._fail(f"job {job.name} queued twice")
            seen.add(job.job_id)
            if job.state is not JobState.PENDING:
                self._fail(
                    f"queued job {job.name} is {job.state.name}, not PENDING"
                )
        reserved = [0] * len(sched.agents)
        finished = 0
        for job in sched.jobs.values():
            finished += job.finished
            if job._reserved:
                if job.node_index is None:
                    self._fail(f"job {job.name} holds cores on no node")
                else:
                    reserved[job.node_index] += job._reserved
            if job.state is JobState.RUNNING and job.node_index is None:
                self._fail(f"running job {job.name} is placed on no node")
        if finished != sched.finished_jobs:
            self._fail(
                f"finished-job drift ({sched.finished_jobs} counted, {finished} terminal)"
            )
        for i, agent in enumerate(sched.agents):
            if reserved[i] != sched._reserved_cores[i]:
                self._fail(
                    f"node {i}: reserved-core drift "
                    f"({sched._reserved_cores[i]} tracked, {reserved[i]} held)"
                )
            if not 0 <= agent.cores_used <= agent.cores:
                self._fail(
                    f"node {i}: cores_used {agent.cores_used} outside "
                    f"[0, {agent.cores}]"
                )
        self.metrics(sched.metrics)

    def metrics(self, metrics: Any) -> None:
        """Terminal states are exclusive and timestamped consistently."""
        self.checks += 1
        for tm in metrics.tasks():
            if tm.failed and tm.finished_at is None:
                self._fail(f"failed task {tm.owner} has no finish time")
            if tm.failed and not tm.failure_reason:
                self._fail(f"failed task {tm.owner} carries no failure reason")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<InvariantChecker strict={self.strict} checks={self.checks} "
            f"violations={len(self.violations)}>"
        )


# --------------------------------------------------------------------------- #
# module-level dispatch (what the stack's check sites call)
# --------------------------------------------------------------------------- #

#: the installed checker; :func:`repro.obs.session` is its only writer
_active: NullInvariantChecker = NULL_CHECKER


def active() -> NullInvariantChecker:
    """The checker every call site currently dispatches to."""
    return _active


def enabled() -> bool:
    return _active.enabled


def session(checker: NullInvariantChecker) -> Any:
    """Deprecated alias of ``repro.obs.session(checker=checker)``; kept
    only while ``benchmarks/e2e/test_e2e.py`` calls it."""
    from ..obs import session as run_session  # repro.obs imports this module

    return run_session(checker=checker)
