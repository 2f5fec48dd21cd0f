"""Supervised execution: heartbeats, deadlines, retries, quarantine,
and graceful drains around an ordered map.

:func:`supervised_map` is the project's one cell runner;
:func:`repro.parallel.map_ordered` is a single-attempt call of it.  The
contract: apply a picklable callable to picklable items and collect
results in input order, with execution supervised instead of
fire-and-forget.  One :class:`_Supervisor` does every map's bookkeeping
(commits, failed attempts, retries, quarantine, the journal); only where
a cell runs differs.  *Inline* cells run in this process, one after
another: ``jobs=1``, no ``fork``, or a map nested inside a pool worker.
Otherwise the cells run on a fork pool:

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
* **graceful drain** — SIGINT/SIGTERM (first delivery) stops new
  dispatches, lets in-flight cells finish within :data:`_DRAIN_GRACE`
  seconds, then re-raises as ``KeyboardInterrupt``; a second signal
  aborts immediately;
* **forwarded records in input order** — a worker runs each cell under
  the worker form of the parent's run context (:func:`repro.obs.current`)
  and ships its snapshot back with the result; once the pool drains, the
  committed cells' records are merged into the parent's context in input
  order, so a ``jobs=N`` run records exactly what ``jobs=1`` does.

Both ways share the rest:

* **retry with deterministic backoff** — a failed attempt (raise, crash,
  timeout) is retried after :meth:`RetryPolicy.delay`, whose jitter is
  seeded from the cell key, so retry schedules reproduce; an inline
  cell's retries finish before the next cell starts;
* **poison-cell quarantine** — a cell that exhausts its attempts is
  recorded as a :class:`CellFailure` and the map *keeps going*; the
  caller gets every failure at the end instead of losing the run to the
  first bad cell;
* **crash-safe journal** — when a :class:`~repro.resilience.journal.RunJournal`
  is attached, every dispatch/commit/failure is fsync'd before the run
  proceeds, and an interrupted map records which cells it left pending.

Inline cells cannot be preempted, so a deadline needs workers: passing
``deadline`` runs even one cell on a pool of one.  Inline cells install
no signal handler: Ctrl-C propagates at once.
"""

from __future__ import annotations

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
from ..parallel.executor import resolve_jobs, supports_fork
from ..util.validation import require
from .journal import RunJournal
from .policy import CellFailure, RetryPolicy

__all__ = ["SupervisedResult", "supervised_map"]

#: supervision loop tick (seconds): result-queue poll timeout and the
#: granularity of liveness/deadline sweeps
_TICK = 0.02

#: seconds in-flight pool cells get to finish once a drain starts
_DRAIN_GRACE = 10.0

#: exit code a worker uses when even its error report cannot be sent
_EXIT_REPORT_FAILED = 81

#: set in forked workers so nested map_ordered/supervised_map calls stay
#: in-process
_IN_WORKER = False


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

    A forked worker inherits the parent's run context, but what it
    records there would be invisible across the process boundary — so the
    cell runs under :meth:`~repro.obs.RunContext.worker`, and that
    context's snapshot travels back in ``records`` for the parent to
    merge.
    """
    ctx = obs.current().worker()
    with obs.session(ctx.telemetry, insight=ctx.insight):
        value = fn(item)
    return value, ctx.snapshot()


def _merge_forwarded(forwarded: Sequence[Optional[Tuple]]) -> None:
    """Fold workers' records into the parent's run context in input
    order (``None`` marks a cell with nothing to merge)."""
    ctx = obs.current()
    for records in forwarded:
        if records is not None:
            ctx.merge(records)


def _describe(exc: BaseException) -> str:
    """A failed attempt's message for the journal and failure table."""
    return f"{type(exc).__name__}: {exc}"


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
                ("error", worker_id, idx, attempt, (_describe(exc), _portable(exc))),
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
    """State machine for one supervised map.

    Cache hits are committed on construction; :meth:`run` then executes
    the misses inline or on a fork pool.  Both ways settle every attempt
    through :meth:`_commit` and :meth:`_attempt_failed`.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        keys: List[str],
        *,
        deadline: Optional[float],
        retry: RetryPolicy,
        journal: Optional[RunJournal],
        cache: Optional[Any],
        cache_key: Optional[Callable[[Any], Any]],
    ) -> None:
        self.fn = fn
        self.items = items
        self.keys = keys
        self.n = len(items)
        self.deadline = deadline
        self.retry = retry
        self.journal = journal
        self.cache = cache
        self.results: List[Any] = [None] * self.n
        #: per-cell worker records, merged in input order once the pool drains
        self.forwarded: List[Optional[Tuple]] = [None] * self.n
        self.done = [False] * self.n
        self.failures: Dict[int, CellFailure] = {}
        #: when each cell's first attempt started (0.0: not yet)
        self.first_started = [0.0] * self.n
        self.cache_keys: List[Any] = []
        if cache is not None and cache_key is not None:
            self.cache_keys = [cache_key(item) for item in items]
            for i, ck in enumerate(self.cache_keys):
                hit, value = cache.get(ck)
                if hit:
                    self.results[i] = value
                    self.done[i] = True
                    if journal is not None:
                        journal.cell_committed(keys[i], cached=True)
        self.ready: deque[Tuple[int, int]] = deque(
            (i, 1) for i in range(self.n) if not self.done[i]
        )
        self.outstanding = len(self.ready)
        self.retry_heap: List[Tuple[float, int, int]] = []
        # pool state, set up by _run_pool
        self.n_workers = 0
        self.ctx: Any = None
        self.workers: Dict[int, _Worker] = {}
        self.idle: deque[int] = deque()
        self._next_worker_id = 0
        self.draining = False
        self.drain_reason = "SIGINT"
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
    # outcome handling (inline and pool cells alike)
    # ------------------------------------------------------------------ #
    def _start(self, idx: int, attempt: int) -> None:
        if attempt == 1:
            self.first_started[idx] = time.monotonic()
        if self.journal is not None:
            self.journal.cell_started(self.keys[idx], attempt)

    def _commit(self, idx: int, value: Any, records: Optional[Tuple] = None) -> None:
        if self.done[idx] or idx in self.failures:
            return  # stale report for an already-settled cell
        self.results[idx] = value
        self.forwarded[idx] = records
        self.done[idx] = True
        self.outstanding -= 1
        # cache first, journal second: a crash between the two degrades to
        # a recompute on the next run, never to a committed-but-missing result
        if self.cache_keys:
            self.cache.put(self.cache_keys[idx], value)
        if self.journal is not None:
            self.journal.cell_committed(self.keys[idx])

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
            started = self.first_started[idx]
            self.failures[idx] = CellFailure(
                key=key, kind=kind, attempts=attempt, error=error,
                elapsed=time.monotonic() - started if started else 0.0,
                exception=exception,
            )
            self.outstanding -= 1
            obs.counter("resilience.quarantined")
            if self.journal is not None:
                self.journal.cell_quarantined(key, kind, attempt, error)
        else:
            obs.counter("resilience.retries")
            due = time.monotonic() + self.retry.delay(key, attempt)
            heapq.heappush(self.retry_heap, (due, idx, attempt + 1))

    def _pending(self) -> List[str]:
        """Keys an interruption left without a result."""
        return [
            self.keys[i]
            for i in range(self.n)
            if not self.done[i] and i not in self.failures
        ] + [f.key for f in self.failures.values() if f.kind == "interrupted"]

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self, workers: int) -> SupervisedResult:
        """Run the outstanding cells: inline when ``workers`` is 0, else
        on a fork pool of that many workers.

        An interruption is journaled with the cells it left pending, then
        propagates as ``KeyboardInterrupt``.
        """
        try:
            if workers:
                self._run_pool(workers)
            else:
                self._run_inline()
        except KeyboardInterrupt:
            if self.journal is not None:
                self.journal.run_interrupted(self.drain_reason, self._pending())
            raise
        return self.result()

    def result(self) -> SupervisedResult:
        return SupervisedResult(
            results=self.results,
            failures=[self.failures[i] for i in sorted(self.failures)],
        )

    def _run_inline(self) -> None:
        """Run the cells here, in order; a failing cell's retries finish
        before the next cell starts."""
        while self.ready:
            idx, attempt = self.ready.popleft()
            self._start(idx, attempt)
            try:
                value = self.fn(self.items[idx])
            except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                self._attempt_failed(idx, attempt, "error", _describe(exc), exc)
                if self.retry_heap:
                    due, idx, attempt = heapq.heappop(self.retry_heap)
                    time.sleep(max(0.0, due - time.monotonic()))
                    self.ready.appendleft((idx, attempt))
            else:
                self._commit(idx, value)

    def _run_pool(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self.ctx = multiprocessing.get_context("fork")
        saved_signals = self._install_signals()
        try:
            for _ in range(n_workers):
                self._spawn_worker()
            while self.outstanding > 0:
                self._promote_due_retries()
                self._dispatch()
                self._harvest()
                self._sweep_workers()
                if self.draining:
                    self._drain_step()
        finally:
            for sig, old in saved_signals:
                signal.signal(sig, old)
            self._shutdown_pool()
            _merge_forwarded(self.forwarded)
        if self.draining:
            raise KeyboardInterrupt(f"supervised map drained on {self.drain_reason}")

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
            self._start(idx, attempt)
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
            self._commit(idx, *payload)
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
        grace_over = time.monotonic() - self.drain_started > _DRAIN_GRACE
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
) -> SupervisedResult:
    """Resilient ordered map — the runner behind
    :func:`repro.parallel.map_ordered`, which calls it with one attempt.

    ``fn``, ``items`` and ``jobs`` are as for ``map_ordered``.
    ``cache`` + ``cache_key`` memoize: each item's key is computed once,
    hits are served without running the cell (journalled as cached
    commits), and each miss is written back from this process as it
    commits.  The supervision knobs:

    ``keys``
        Stable per-item names for journal records, retry seeding, and
        failure reports; defaults to ``cell0..cellN``.
    ``deadline``
        Per-cell wall-clock budget in seconds.  Enforced only when cells
        run in supervised workers (a hung inline cell cannot be
        preempted); forcing ``deadline`` with ``jobs=None`` still spawns
        a single supervised worker so the timeout bites.
    ``retry`` / ``journal``
        See the module docstring.

    Returns a :class:`SupervisedResult`; quarantined cells leave ``None``
    holes in ``results`` and one :class:`CellFailure` each in
    ``failures`` (carrying the cell's exception: the object itself for an
    inline cell, for a pool cell the one that crossed the pipe when it
    pickles).  The function only raises for caller errors and
    ``KeyboardInterrupt`` — cell failures never propagate as exceptions.
    """
    items = list(items)
    require(callable(fn), "fn must be callable")
    keys = [str(k) for k in keys] if keys is not None else [f"cell{i}" for i in range(len(items))]
    require(len(keys) == len(items), "keys must match items 1:1")
    require(len(set(keys)) == len(keys), "cell keys must be unique")
    sup = _Supervisor(
        fn, items, keys,
        deadline=deadline,
        retry=retry if retry is not None else RetryPolicy(),
        journal=journal, cache=cache, cache_key=cache_key,
    )
    if not sup.outstanding:
        return sup.result()
    n_workers = min(resolve_jobs(jobs), sup.outstanding)
    use_pool = (
        supports_fork()
        and not _IN_WORKER
        and (n_workers > 1 or deadline is not None)
    )
    with obs.span(
        "supervised_map", cells=len(items), misses=sup.outstanding, workers=n_workers
    ):
        return sup.run(n_workers if use_pool else 0)
