"""Parallel sweep executor benchmark.

A four-experiment sweep at ``jobs=1`` and at ``jobs=cpu_count`` must
produce identical figures, and the parallel sweep is gated against the
sequential one timed in the same run (``ratio_gate``).  On a multi-core
runner the parallel run should approach ``min(cpu_count, 4)``x; on a
single core, or where workers cannot fork, it degrades to the in-process
path and only the figures are checked.
"""

from functools import partial

from repro.experiments.runner import run_all
from repro.parallel import available_parallelism, supports_fork

#: four cheap-but-real experiments: enough work to amortise worker forks,
#: small enough that the benchmark stays in CI budget
SWEEP = ["validation", "cold-pages", "fig01", "ext-utilization"]

#: parallel over sequential sweep time: a pool must never be slower than
#: sequential by more than its fork/pickle overhead (a speedup of 0.8)
PARALLEL_SWEEP_BOUND = 1.25


def _sweep(jobs):
    # cache off: this benchmark measures *live* execution
    # (bench_cache.py measures the cache)
    return run_all(SWEEP, verbose=False, jobs=jobs, cache_dir=None)


def _series(results):
    return {name: (r.xlabels, r.series) for name, r in results.items()}


def test_parallel_sweep_matches_and_speeds_up(ratio_gate):
    jobs = available_parallelism()
    # untimed, one of each side: forks, imports and lazy set-up warm up
    assert _series(_sweep(jobs)) == _series(_sweep(1))
    if not supports_fork() or jobs < 2:
        return  # real speedup needs real cores
    ratio = ratio_gate(
        partial(_sweep, jobs), partial(_sweep, 1), PARALLEL_SWEEP_BOUND, rounds=6
    )
    print(f"{len(SWEEP)}-experiment sweep: jobs={jobs} speedup {1 / ratio:.2f}x")
