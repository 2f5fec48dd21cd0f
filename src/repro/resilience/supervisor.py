"""Supervised fork-pool execution: heartbeats, deadlines, retries,
quarantine, and graceful drains around an ordered map.

:func:`supervised_map` is the project's one fork pool;
:func:`repro.parallel.map_ordered` is a single-attempt call of it.  The
contract: apply a picklable callable to picklable items and collect
results in input order, with execution supervised instead of
fire-and-forget:

* **one task queue and one result pipe per worker** — the supervisor
  always knows which cell each worker holds, so a dead or hung worker
  implicates exactly one cell, and killing it cannot corrupt a channel
  another worker uses (a shared result queue would hand every worker the
  same write lock, and a worker dying inside it would wedge the rest of
  the pool);
* **heartbeat + deadline** — every supervision tick polls each worker's
  liveness (``Process.is_alive``) and its cell's age; a worker that died
  is reaped and its cell retried, one past its per-cell ``deadline`` is
  killed and its cell retried, and the pool is replenished either way
  instead of deadlocking;
* **retry with deterministic backoff** — failed attempts (raise, crash,
  timeout) are redispatched after :meth:`RetryPolicy.delay`, whose
  jitter is seeded from the cell key, so retry schedules reproduce;
* **poison-cell quarantine** — a cell that exhausts its attempts is
  recorded as a :class:`CellFailure` and the sweep *keeps going*; the
  caller gets every failure at the end instead of losing the run to the
  first bad cell;
* **crash-safe journal** — when a :class:`~repro.resilience.journal.RunJournal`
  is attached, every dispatch/commit/quarantine is fsync'd before the
  run proceeds, which is what makes ``--resume`` safe against SIGKILL;
* **graceful drain** — SIGINT/SIGTERM (first delivery) stops new
  dispatches, lets in-flight cells finish within a grace window, records
  the interruption point in the journal, then re-raises as
  ``KeyboardInterrupt``; a second signal aborts immediately.
* **forwarded records in input order** — a worker runs each cell under
  fresh child telemetry and insight contexts and ships their snapshots
  back with the result; once the pool drains, the committed cells'
  records are merged into the parent's contexts in input order, so a
  ``jobs=N`` run records exactly what ``jobs=1`` does.

Platforms without ``fork`` (and nested calls inside pool workers) fall
back to an in-process loop that keeps the retry/quarantine/journal
semantics but cannot preempt a hung cell — deadlines need workers.
"""

from __future__ import annotations

import contextlib
import heapq
import multiprocessing
import multiprocessing.connection as _mpc
import os
import pickle
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import insight as _insight
from ..parallel.executor import resolve_jobs, supports_fork
from ..util.validation import require
from .journal import RunJournal
from .policy import CellFailure, RetryPolicy

__all__ = ["SupervisedResult", "supervised_map"]

#: supervision loop tick (seconds): result-queue poll timeout and the
#: granularity of liveness/deadline sweeps
_TICK = 0.02

#: exit code a worker uses when even its error report cannot be sent
_EXIT_REPORT_FAILED = 81

#: set in forked workers so nested map_ordered/supervised_map calls stay
#: in-process
_IN_WORKER = False

#: the run-scoped planes whose worker records cross the fork (telemetry,
#: then insight), each a module with ``session``/``active`` dispatch
_PLANES = (obs, _insight)


@dataclass
class SupervisedResult:
    """Outcome of one supervised map.

    ``results`` is in input order with ``None`` holes for quarantined
    cells; ``failures`` has one entry per quarantined cell, in input
    order.  ``ok`` is True when nothing was quarantined.
    """

    results: List[Any]
    failures: List[CellFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


# --------------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------------- #

def _send_safe(result_conn: Any, message: Tuple) -> None:
    try:
        result_conn.send(message)
    except Exception:  # pragma: no cover - pipe torn down under us
        os._exit(_EXIT_REPORT_FAILED)


def _run_forwarded(fn: Callable[[Any], Any], item: Any) -> Tuple[Any, Tuple]:
    """Run one cell in a worker: ``(value, records)``.

    A forked worker inherits the parent's active contexts, but mutating
    them would be invisible across the process boundary — so each live
    plane gets a fresh child context for the cell, and its snapshot
    travels back in ``records`` (``None`` for a disabled plane) for the
    parent to merge.
    """
    contexts = (obs.worker_telemetry(), _insight.worker_insight())
    with contextlib.ExitStack() as stack:
        for plane, ctx in zip(_PLANES, contexts):
            if ctx is not None:
                stack.enter_context(plane.session(ctx))
        value = fn(item)
    return value, tuple(None if ctx is None else ctx.snapshot() for ctx in contexts)


def _merge_forwarded(forwarded: Sequence[Optional[Tuple]]) -> None:
    """Fold workers' records into the parent's active contexts in input
    order (``None`` marks a cell with nothing to merge)."""
    for records in forwarded:
        if records is not None:
            for plane, record in zip(_PLANES, records):
                plane.active().merge(record)


def _portable(exc: BaseException) -> Optional[BaseException]:
    """``exc`` when it survives a pickle round trip (the parent can then
    re-raise it), else ``None``."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return None
    return exc


def _worker_loop(worker_id: int, task_q: Any, result_conn: Any, fn: Callable[[Any], Any]) -> None:
    """One supervised worker: take a cell, run it, report back.

    Reports travel over the worker's private result pipe — a single
    writer per channel, so nothing this worker does (including dying
    mid-send) can block another worker's reports.  A failed cell reports
    ``(message, exception)``: the message feeds the journal and failure
    table, the exception (``None`` when it does not pickle) lets
    :func:`~repro.parallel.map_ordered` re-raise it.
    """
    global _IN_WORKER
    _IN_WORKER = True  # nested map_ordered/supervised_map stay in-process
    while True:
        msg = task_q.get()
        if msg is None:
            break
        idx, attempt, item = msg
        try:
            payload = _run_forwarded(fn, item)
        except BaseException as exc:  # noqa: BLE001 - report, don't die
            _send_safe(
                result_conn,
                ("error", worker_id, idx, attempt,
                 (f"{type(exc).__name__}: {exc}", _portable(exc))),
            )
            continue
        try:
            result_conn.send(("done", worker_id, idx, attempt, payload))
        except ValueError as exc:  # unpicklable result: report as a failure
            _send_safe(
                result_conn,
                ("error", worker_id, idx, attempt, (f"result not picklable: {exc}", None)),
            )
        except Exception as exc:
            _send_safe(
                result_conn,
                ("error", worker_id, idx, attempt, (f"result not sendable: {exc}", None)),
            )


# --------------------------------------------------------------------------- #
# supervisor side
# --------------------------------------------------------------------------- #

class _Worker:
    """Handle for one supervised worker process and its private channels."""

    __slots__ = ("id", "proc", "task_q", "result_r", "assignment", "assigned_at")

    def __init__(self, ctx: Any, worker_id: int, fn: Callable) -> None:
        self.id = worker_id
        self.task_q = ctx.SimpleQueue()
        self.result_r, result_w = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(
            target=_worker_loop,
            args=(worker_id, self.task_q, result_w, fn),
            name=f"repro-supervised-{worker_id}",
            daemon=True,
        )
        self.assignment: Optional[Tuple[int, int]] = None
        self.assigned_at = 0.0
        self.proc.start()
        # drop the parent's copy of the write end: the worker is then the
        # pipe's only writer, so its death reads as a clean EOF here
        result_w.close()

    def assign(self, idx: int, attempt: int, item: Any) -> None:
        self.assignment = (idx, attempt)
        self.assigned_at = time.monotonic()
        self.task_q.put((idx, attempt, item))

    def kill(self) -> None:
        """Forcibly end the worker (hung cell): terminate, escalate, reap."""
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - SIGTERM ignored
            self.proc.kill()
            self.proc.join(timeout=1.0)

    def retire(self) -> None:
        """End an idle worker cooperatively (sentinel, then escalate)."""
        try:
            self.task_q.put(None)
        except Exception:  # pragma: no cover - queue already broken
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()

    def close_conn(self) -> None:
        try:
            self.result_r.close()
        except OSError:  # pragma: no cover - double close is benign
            pass


class _Supervisor:
    """State machine for one supervised map over the miss set."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        keys: Sequence[str],
        *,
        n_workers: int,
        deadline: Optional[float],
        retry: RetryPolicy,
        journal: Optional[RunJournal],
        drain_grace: float,
        on_commit: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        self.fn = fn
        self.items = list(items)
        self.keys = list(keys)
        self.n = len(self.items)
        self.n_workers = n_workers
        self.deadline = deadline
        self.retry = retry
        self.journal = journal
        self.drain_grace = drain_grace
        self.on_commit = on_commit
        self.results: List[Any] = [None] * self.n
        #: per-cell worker records, merged in input order once the pool drains
        self.forwarded: List[Optional[Tuple]] = [None] * self.n
        self.done = [False] * self.n
        self.failures: Dict[int, CellFailure] = {}
        self.first_started: Dict[int, float] = {}
        self.outstanding = self.n
        self.ready: deque[Tuple[int, int]] = deque((i, 1) for i in range(self.n))
        self.retry_heap: List[Tuple[float, int, int]] = []
        self.ctx = multiprocessing.get_context("fork")
        self.workers: Dict[int, _Worker] = {}
        self.idle: deque[int] = deque()
        self._next_worker_id = 0
        self.draining = False
        self.drain_reason = ""
        self.drain_started = 0.0

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #
    def _spawn_worker(self) -> None:
        w = _Worker(self.ctx, self._next_worker_id, self.fn)
        self.workers[w.id] = w
        self.idle.append(w.id)
        self._next_worker_id += 1

    def _replace_worker(self, w: _Worker) -> None:
        """Drop a dead/killed worker and replenish the pool if needed."""
        w.assignment = None
        w.close_conn()
        self.workers.pop(w.id, None)
        if w.id in self.idle:
            self.idle = deque(i for i in self.idle if i != w.id)
        live = self.n_workers - len(self.workers)
        if live > 0 and not self.draining and self._work_remaining():
            self._spawn_worker()

    def _work_remaining(self) -> bool:
        in_flight = sum(1 for w in self.workers.values() if w.assignment is not None)
        return self.outstanding - in_flight > 0

    # ------------------------------------------------------------------ #
    # signals (graceful drain)
    # ------------------------------------------------------------------ #
    def _install_signals(self) -> List[Tuple[int, Any]]:
        if threading.current_thread() is not threading.main_thread():
            return []
        saved = []

        def handler(signum: int, _frame: Any) -> None:
            if self.draining:
                raise KeyboardInterrupt  # second signal: abort now
            self.draining = True
            self.drain_started = time.monotonic()
            self.drain_reason = signal.Signals(signum).name

        for sig in (signal.SIGINT, signal.SIGTERM):
            saved.append((sig, signal.signal(sig, handler)))
        return saved

    # ------------------------------------------------------------------ #
    # outcome handling
    # ------------------------------------------------------------------ #
    def _commit(self, idx: int, payload: Tuple[Any, Tuple]) -> None:
        if self.done[idx] or idx in self.failures:
            return  # stale report for an already-settled cell
        value, self.forwarded[idx] = payload
        self.results[idx] = value
        self.done[idx] = True
        self.outstanding -= 1
        if self.on_commit is not None:
            self.on_commit(idx, value)

    def _attempt_failed(
        self, idx: int, attempt: int, kind: str, error: str,
        exception: Optional[BaseException] = None,
    ) -> None:
        if self.done[idx] or idx in self.failures:
            return
        key = self.keys[idx]
        obs.counter("resilience.attempt_failures", kind=kind)
        if self.journal is not None:
            self.journal.cell_failed(key, kind, attempt, error)
        if kind == "interrupted" or self.retry.exhausted(attempt):
            elapsed = time.monotonic() - self.first_started.get(idx, time.monotonic())
            self.failures[idx] = CellFailure(
                key=key, kind=kind, attempts=attempt, error=error,
                elapsed=elapsed, exception=exception,
            )
            self.outstanding -= 1
            obs.counter("resilience.quarantined")
            if self.journal is not None:
                self.journal.cell_quarantined(key, kind, attempt, error)
        else:
            obs.counter("resilience.retries")
            due = time.monotonic() + self.retry.delay(key, attempt)
            heapq.heappush(self.retry_heap, (due, idx, attempt + 1))

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self) -> SupervisedResult:
        saved_signals = self._install_signals()
        try:
            for _ in range(min(self.n_workers, self.n)):
                self._spawn_worker()
            while self.outstanding > 0:
                self._promote_due_retries()
                self._dispatch()
                self._harvest()
                self._sweep_workers()
                if self.draining:
                    self._drain_step()
            interrupted = self.draining
        finally:
            for sig, old in saved_signals:
                signal.signal(sig, old)
            self._shutdown_pool()
            _merge_forwarded(self.forwarded)
        if interrupted:
            if self.journal is not None:
                pending = [
                    self.keys[i]
                    for i in range(self.n)
                    if not self.done[i] and i not in self.failures
                ] + [f.key for f in self.failures.values() if f.kind == "interrupted"]
                self.journal.run_interrupted(self.drain_reason, pending)
            raise KeyboardInterrupt(f"supervised map drained on {self.drain_reason}")
        return SupervisedResult(
            results=self.results,
            failures=[self.failures[i] for i in sorted(self.failures)],
        )

    def _promote_due_retries(self) -> None:
        now = time.monotonic()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, idx, attempt = heapq.heappop(self.retry_heap)
            self.ready.append((idx, attempt))

    def _dispatch(self) -> None:
        while self.ready and self.idle and not self.draining:
            idx, attempt = self.ready.popleft()
            if self.done[idx] or idx in self.failures:
                continue
            wid = self.idle.popleft()
            w = self.workers.get(wid)
            if w is None or not w.proc.is_alive():
                if w is not None:
                    self._replace_worker(w)
                self.ready.appendleft((idx, attempt))
                continue
            self.first_started.setdefault(idx, time.monotonic())
            if self.journal is not None:
                self.journal.cell_started(self.keys[idx], attempt)
            w.assign(idx, attempt, self.items[idx])

    def _harvest(self) -> None:
        conns = {w.result_r: w for w in self.workers.values()}
        if not conns:
            time.sleep(_TICK)
            return
        try:
            ready = _mpc.wait(list(conns), timeout=_TICK)
        except (OSError, InterruptedError):  # pragma: no cover - fd races
            return
        for conn in ready:
            self._receive(conns[conn])

    def _receive(self, w: _Worker, *, requeue: bool = True) -> bool:
        """Read one report off a worker's pipe; False when none can be.

        EOF (the worker died) and a torn trailing write (it died
        mid-send) both end the channel — the sweep reaps the process and
        retries its cell.  A report that arrives intact but cannot be
        decoded fails the attempt instead of stranding the cell.
        """
        try:
            msg = w.result_r.recv()
        except (EOFError, OSError):
            return False
        except Exception as exc:  # pragma: no cover - undecodable payload
            if w.assignment is not None:
                idx, attempt = w.assignment
                w.kill()
                self._replace_worker(w)
                self._attempt_failed(
                    idx, attempt, "error", f"undecodable worker report: {exc}"
                )
            return False
        kind, _wid, idx, attempt, payload = msg
        if w.assignment == (idx, attempt):
            w.assignment = None
            if requeue:
                self.idle.append(w.id)
        if kind == "done":
            self._commit(idx, payload)
        else:
            self._attempt_failed(idx, attempt, "error", *payload)
        return True

    def _sweep_workers(self) -> None:
        now = time.monotonic()
        for w in list(self.workers.values()):
            if not w.proc.is_alive():
                w.proc.join(timeout=0.1)
                # a report may have raced death onto the pipe: drain it so
                # a cell that actually finished commits instead of retrying
                try:
                    while w.result_r.poll(0):
                        if not self._receive(w, requeue=False):
                            break
                except OSError:  # pragma: no cover - conn closed under us
                    pass
                code = w.proc.exitcode
                pending = w.assignment
                self._replace_worker(w)
                if pending is not None:
                    obs.counter("resilience.worker_crashes")
                    self._attempt_failed(
                        pending[0], pending[1], "crash",
                        f"worker died (exit code {code})",
                    )
            elif (
                w.assignment is not None
                and self.deadline is not None
                and now - w.assigned_at > self.deadline
            ):
                idx, attempt = w.assignment
                w.kill()
                self._replace_worker(w)
                obs.counter("resilience.timeouts")
                self._attempt_failed(
                    idx, attempt, "timeout",
                    f"exceeded per-cell deadline of {self.deadline:g}s",
                )

    def _drain_step(self) -> None:
        """Draining: abandon queued/retrying cells, bound in-flight time."""
        for idx, attempt in list(self.ready):
            self._attempt_failed(idx, attempt, "interrupted", "drained before dispatch")
        self.ready.clear()
        while self.retry_heap:
            _, idx, attempt = heapq.heappop(self.retry_heap)
            self._attempt_failed(idx, attempt, "interrupted", "drained before retry")
        grace_over = time.monotonic() - self.drain_started > self.drain_grace
        for w in list(self.workers.values()):
            if w.assignment is None:
                continue
            if grace_over:
                idx, attempt = w.assignment
                w.kill()
                self._replace_worker(w)
                self._attempt_failed(
                    idx, attempt, "interrupted", "killed by drain grace expiry"
                )

    def _shutdown_pool(self) -> None:
        for w in list(self.workers.values()):
            if w.assignment is None:
                w.retire()
            else:
                w.kill()
        for w in self.workers.values():
            if w.proc.is_alive():  # pragma: no cover - belt and braces
                w.kill()
            w.close_conn()
        self.workers.clear()


# --------------------------------------------------------------------------- #
# in-process fallback (no fork / nested / sequential)
# --------------------------------------------------------------------------- #

def _supervised_loop(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    keys: Sequence[str],
    retry: RetryPolicy,
    journal: Optional[RunJournal],
    on_commit: Optional[Callable[[int, Any], None]] = None,
) -> SupervisedResult:
    results: List[Any] = [None] * len(items)
    failures: List[CellFailure] = []
    for idx, item in enumerate(items):
        attempt = 1
        t0 = time.monotonic()
        while True:
            if journal is not None:
                journal.cell_started(keys[idx], attempt)
            try:
                results[idx] = fn(item)
                if on_commit is not None:
                    on_commit(idx, results[idx])
                break
            except KeyboardInterrupt:
                if journal is not None:
                    journal.run_interrupted("SIGINT", [keys[i] for i in range(idx, len(items))])
                raise
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                error = f"{type(exc).__name__}: {exc}"
                obs.counter("resilience.attempt_failures", kind="error")
                if journal is not None:
                    journal.cell_failed(keys[idx], "error", attempt, error)
                if retry.exhausted(attempt):
                    failures.append(
                        CellFailure(
                            key=keys[idx], kind="error", attempts=attempt,
                            error=error, elapsed=time.monotonic() - t0,
                            exception=exc,
                        )
                    )
                    obs.counter("resilience.quarantined")
                    if journal is not None:
                        journal.cell_quarantined(keys[idx], "error", attempt, error)
                    break
                obs.counter("resilience.retries")
                time.sleep(retry.delay(keys[idx], attempt))
                attempt += 1
    return SupervisedResult(results=results, failures=failures)


# --------------------------------------------------------------------------- #
# public entry point
# --------------------------------------------------------------------------- #

def supervised_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    keys: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    deadline: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    journal: Optional[RunJournal] = None,
    cache: Optional[Any] = None,
    cache_key: Optional[Callable[[Any], Any]] = None,
    drain_grace: float = 10.0,
) -> SupervisedResult:
    """Resilient ordered map — the pool behind
    :func:`repro.parallel.map_ordered`, which calls it with one attempt.

    ``fn``, ``items`` and ``jobs`` are as for ``map_ordered``.
    ``cache`` + ``cache_key`` memoize: each item's key is computed once,
    hits are served without dispatch (journalled as cached commits), and
    each miss is written back from this process as it commits.  The
    supervision knobs:

    ``keys``
        Stable per-item names for journal records, retry seeding, and
        failure reports; defaults to ``cell0..cellN``.
    ``deadline``
        Per-cell wall-clock budget in seconds.  Enforced only when cells
        run in supervised workers (a hung in-process cell cannot be
        preempted); forcing ``deadline`` with ``jobs=None`` still spawns
        a single supervised worker so the timeout bites.
    ``retry`` / ``journal`` / ``drain_grace``
        See the module docstring.

    Returns a :class:`SupervisedResult`; quarantined cells leave ``None``
    holes in ``results`` and one :class:`CellFailure` each in
    ``failures`` (carrying the cell's exception when it raised one that
    pickles).  The function only raises for caller errors and
    ``KeyboardInterrupt`` (after a drain) — cell failures never
    propagate as exceptions.
    """
    items = list(items)
    require(callable(fn), "fn must be callable")
    keys = [str(k) for k in keys] if keys is not None else [f"cell{i}" for i in range(len(items))]
    require(len(keys) == len(items), "keys must match items 1:1")
    require(len(set(keys)) == len(keys), "cell keys must be unique")
    retry = retry if retry is not None else RetryPolicy()

    results: List[Any] = [None] * len(items)
    miss_idx = list(range(len(items)))
    cache_keys: List[Any] = []
    if cache is not None and cache_key is not None:
        cache_keys = [cache_key(item) for item in items]
        miss_idx = []
        for i, ck in enumerate(cache_keys):
            hit, value = cache.get(ck)
            if hit:
                results[i] = value
                if journal is not None:
                    journal.cell_committed(keys[i], cached=True)
            else:
                miss_idx.append(i)
    if not miss_idx:
        return SupervisedResult(results=results, failures=[])

    miss_items = [items[i] for i in miss_idx]
    miss_keys = [keys[i] for i in miss_idx]

    def commit_cb(j: int, value: Any) -> None:
        # cache first, journal second: a crash between the two degrades to
        # a recompute on resume, never to a committed-but-missing result
        if cache_keys:
            cache.put(cache_keys[miss_idx[j]], value)
        if journal is not None:
            journal.cell_committed(miss_keys[j])

    n_workers = min(resolve_jobs(jobs), len(miss_items))
    use_pool = (
        supports_fork()
        and not _IN_WORKER
        and (n_workers > 1 or deadline is not None)
    )
    with obs.span(
        "supervised_map", cells=len(items), misses=len(miss_items), workers=n_workers
    ):
        if use_pool:
            sup = _Supervisor(
                fn, miss_items, miss_keys,
                n_workers=max(1, n_workers), deadline=deadline, retry=retry,
                journal=journal, drain_grace=drain_grace, on_commit=commit_cb,
            )
            sub = sup.run()
        else:
            sub = _supervised_loop(
                fn, miss_items, miss_keys, retry, journal, on_commit=commit_cb
            )

    for i, value in zip(miss_idx, sub.results):
        results[i] = value  # quarantined cells are None holes already
    return SupervisedResult(results=results, failures=sub.failures)
