"""Ordered fan-out over the supervised fork pool.

The contract is deliberately narrow: :func:`map_ordered` applies a
picklable callable to a sequence of picklable items and returns the
results *in input order*, so callers (sweep harnesses, ``run_all``) emit
byte-identical tables whether cells ran sequentially or across a pool.

There is one execution path: :func:`map_ordered` is a single-attempt
call of :func:`repro.resilience.supervised_map`.  It forks workers when
``jobs`` resolves above 1 and the platform can fork, and otherwise runs
the cells inline, in this process, under the same supervisor — which is
also what keeps nested sweeps from spawning pools inside pool workers.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Optional, Sequence, TypeVar

__all__ = ["available_parallelism", "map_ordered", "resolve_jobs", "supports_fork"]

_T = TypeVar("_T")


def available_parallelism() -> int:
    """Usable CPU count (>= 1)."""
    return os.cpu_count() or 1


def supports_fork() -> bool:
    """Whether this platform can fork workers (Linux/macOS yes, Windows no)."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None`` → 1 (sequential), ``0`` or
    negative → all available cores, anything else is taken literally."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return available_parallelism()
    return jobs


def map_ordered(
    fn: Callable[[Any], _T],
    items: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    cache: Optional[Any] = None,
    cache_key: Optional[Callable[[Any], Any]] = None,
) -> list[_T]:
    """``[fn(item) for item in items]`` — possibly across a process pool.

    Results always come back in input order.  Runs inline, in this
    process, when the effective job count is 1, the platform cannot fork,
    there are fewer than two cells to run, or we are already inside a
    worker (no nested pools).

    Every cell gets one attempt, and every cell runs even when another
    fails.  On failure the first failing cell (in input order) decides
    what is raised: its own exception — unchanged when the cell ran
    inline, and when it ran in a worker, provided it survives pickling —
    else a :class:`~repro.resilience.SweepFailure`: a worker that died
    under its cell leaves no exception to re-raise.  A dying worker
    therefore fails the map; it never hangs it.

    ``cache`` + ``cache_key`` enable memoization (the sweep-cell result
    cache, :mod:`repro.cache`): ``cache_key(item)`` derives each item's
    key (``None`` → uncacheable, always computed), ``cache.get(key)``
    returns ``(hit, result)``, and ``cache.put(key, result)`` persists.
    Hits skip worker dispatch entirely — only the misses fan out — and
    write-back happens in *this* process as each cell commits, so pool
    workers never touch the store.
    """
    # lazy: repro.resilience imports this module for resolve_jobs
    from ..resilience.policy import RetryPolicy, SweepFailure
    from ..resilience.supervisor import supervised_map

    sup = supervised_map(
        fn, items, jobs=jobs, retry=RetryPolicy(max_attempts=1),
        cache=cache, cache_key=cache_key,
    )
    if sup.failures:
        first = sup.failures[0]
        if first.exception is not None:
            raise first.exception
        raise SweepFailure(sup.failures)
    return sup.results
