"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's figures at laptop scale,
prints the same series the figure plots, and asserts the qualitative
shape (who wins, roughly by how much).  Runs are deterministic, so a
single round measures the harness cost without statistical noise.

The simulator-speed legs gate on same-run ratios (``ratio_gate``): each
times its own work against a reference in the same test, so the gate
reads the code's cost in units of the machine it runs on, not the
machine's speed.
"""

import gc
import statistics
import time

import pytest

#: bytes per simulated OS page, for pages/sec reporting
PAGE_SIZE = 4096


#: consecutive blocks a gated leg's rounds are split into
GATE_BLOCKS = 3


@pytest.fixture
def ratio_gate(benchmark):
    """Time ``work`` against ``reference`` in the same run and assert that
    their ratio stays under ``bound``.

    ``work`` runs ``rounds`` timed rounds under pytest-benchmark.  Before
    each, ``reference`` is timed once, right after the previous round,
    and then ``setup`` runs (untimed; its return value, if any, is the
    tuple of ``work``'s arguments), so both are timed with the same clock
    while the machine is in the same state.  The collector is off while
    they are timed, as under ``--benchmark-disable-gc``, so a collection
    of earlier garbage lands in neither.  The rounds are split into
    :data:`GATE_BLOCKS` consecutive blocks; a block's ratio is its median
    work time over its median reference time, and the leg's ratio is the
    lowest block's: a stall of the machine that slows one block cannot
    fail the gate, while a slower code path slows every block.  The ratio
    and its bound are recorded in ``extra_info``; returns the ratio.
    """

    def _gate(work, reference, bound, *, rounds, setup=None):
        assert rounds % GATE_BLOCKS == 0, "rounds must split into whole blocks"
        reference_s = []

        def timed_setup():
            t0 = time.perf_counter()
            reference()
            reference_s.append(time.perf_counter() - t0)
            return (setup() if setup is not None else None) or (), {}

        gc.disable()
        try:
            benchmark.pedantic(work, setup=timed_setup, rounds=rounds)
        finally:
            gc.enable()
        work_s = benchmark.stats.stats.data
        size = rounds // GATE_BLOCKS
        ratio = min(
            statistics.median(work_s[i:i + size]) / statistics.median(reference_s[i:i + size])
            for i in range(0, rounds, size)
        )
        benchmark.extra_info["ratio"] = round(ratio, 4)
        benchmark.extra_info["bound"] = bound
        print(f"\n{ratio:.3f}x the reference (bound {bound})")
        assert ratio < bound, f"{ratio:.3f}x the reference exceeds the bound {bound}"
        return ratio

    return _gate


@pytest.fixture
def record_throughput(benchmark):
    """Attach cells/sec (and pages/sec) to the benchmark's ``extra_info``.

    A *cell* is one page-chunk's worth of simulation state touched per
    operation; dividing by the measured median converts the timing into
    a throughput for the trajectory artifact, for information: the gate
    is the leg's same-run ratio.  The median (not the mean) keeps the
    recorded number stable on noisy shared runners, where scheduler
    steal inflates a benchmark's tail rounds by an order of magnitude.
    """

    def _record(n_cells, chunk_size=None):
        median = benchmark.stats.stats.median
        if median <= 0:  # pragma: no cover - degenerate timer resolution
            return
        benchmark.extra_info["n_cells"] = int(n_cells)
        benchmark.extra_info["cells_per_sec"] = round(n_cells / median)
        if chunk_size:
            pages = n_cells * (chunk_size // PAGE_SIZE)
            benchmark.extra_info["pages_per_sec"] = round(pages / median)

    return _record


@pytest.fixture
def run_once(benchmark):
    """Run a figure harness exactly once under pytest-benchmark and return
    its FigureResult (printed so ``pytest -s`` shows the figure table)."""

    def _run(fn, **kwargs):
        result = benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)
        print()
        print(result.to_table())
        return result

    return _run
