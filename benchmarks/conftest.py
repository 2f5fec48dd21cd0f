"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's figures at laptop scale,
prints the same series the figure plots, and asserts the qualitative
shape (who wins, roughly by how much).  Runs are deterministic, so a
single round measures the harness cost without statistical noise.

Simulation-core benchmarks are parametrized over the two core modes
(the ``backend`` fixture).  The ``[arena]`` leg runs the exact core; the
``[arena-fast]`` leg runs the relaxed batched movement kernels —
statistically equivalent work, not byte-identical, so its ratio over
``[arena]`` is the headline batched-daemon speedup rather than a
same-trace comparison.  ``--backend arena|arena-fast`` pins one leg (the
other is skipped).
"""

import pytest

#: bytes per simulated OS page, for pages/sec reporting
PAGE_SIZE = 4096


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default=None,
        choices=("arena", "arena-fast"),
        help="pin the simulation-core mode (default: run every leg)",
    )


@pytest.fixture(params=["arena", "arena-fast"])
def backend(request, monkeypatch):
    """Parametrize a benchmark over the simulation-core modes.

    Sets ``$REPRO_CORE`` so every :class:`NodeMemorySystem` constructed
    inside the benchmark resolves the requested mode, and returns the
    mode name for explicit ``backend=`` plumbing.
    """
    pinned = request.config.getoption("--backend")
    if pinned is not None and request.param != pinned:
        pytest.skip(f"pinned to --backend={pinned}")
    monkeypatch.setenv("REPRO_CORE", request.param)
    return request.param


@pytest.fixture
def record_throughput(benchmark):
    """Attach cells/sec (and pages/sec) to the benchmark's ``extra_info``.

    A *cell* is one page-chunk's worth of simulation state touched per
    operation; dividing by the measured median converts the timing into
    the throughput number the CI regression gate and BENCH_simulator.json
    track across core modes.  The median (not the mean) keeps the recorded
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
