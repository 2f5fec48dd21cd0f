"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's figures at laptop scale,
prints the same series the figure plots, and asserts the qualitative
shape (who wins, roughly by how much).  Runs are deterministic, so a
single round measures the harness cost without statistical noise.

Simulation-core benchmarks carry the ``core`` fixture, which labels each
leg with the core it runs: ``[arena]``, the exact arena core (the only
one).  The label keeps the leg ids (``[arena]``, ``[arena-64]``,
``[arena-200]``, ...) that CI's baseline comparison matches by name.
"""

import pytest

#: bytes per simulated OS page, for pages/sec reporting
PAGE_SIZE = 4096


@pytest.fixture(params=["arena"])
def core(request):
    """The simulation-core label of a benchmark leg (its test-id part)."""
    return request.param


@pytest.fixture
def record_throughput(benchmark):
    """Attach cells/sec (and pages/sec) to the benchmark's ``extra_info``.

    A *cell* is one page-chunk's worth of simulation state touched per
    operation; dividing by the measured median converts the timing into
    the throughput number the CI regression gate and BENCH_simulator.json
    track per leg.  The median (not the mean) keeps the recorded
    number stable on noisy shared runners, where scheduler steal inflates
    a benchmark's tail rounds by an order of magnitude.
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
