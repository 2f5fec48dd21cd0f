"""Movement-daemon steady-state benchmark: the arena-fast headline.

``bench_policy_micro.test_daemon_pass_cost`` measures the daemon from a
cold start, which mixes migration-heavy early rounds into the number.
This bench isolates the *steady state* — the regime a long cluster run
spends almost all of its wall-clock in — by warming the node until the
movement daemon's per-tick work settles, then timing whole passes
(heatmap advance + IMME tick).

Legs: ``[arena]`` / ``[arena-fast]`` at 64 / 128 / 256 tasks per node
(256 GiB of resident metadata in every case, so the cells/sec numbers
are density comparisons, not size comparisons).  Each leg records
``passes_per_sec`` in ``extra_info``; the CI regression gate tracks both
legs against BENCH_simulator.json.  ``test_daemon_steady_state_speedup``
pins a floor on the ``[arena-fast]/[arena]`` ratio at 128 tasks — a
same-machine ratio against the exact core — so it cannot silently rot
between baseline regenerations.
"""

import time

import pytest

from repro.core.heatmap import PageHeatmap
from repro.util.units import GiB, MiB

from bench_policy_micro import big_node, total_cells

#: passes to run before timing — enough for the initial placement churn
#: (promotions draining swap/PMem, proactive spill) to die down
WARMUP_PASSES = 12

#: (n_tasks, per-task bytes): constant 256 GiB node-resident total
DENSITIES = {64: GiB(4), 128: GiB(2), 256: GiB(1)}


def make_steady_node(backend, n_tasks):
    node, ctx, policy = big_node(
        n_tasks=n_tasks, task_bytes=DENSITIES[n_tasks], backend=backend
    )
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    def daemon_pass():
        heatmap.advance_node(node, 1.0, rates)
        policy.tick(ctx)

    for _ in range(WARMUP_PASSES):
        daemon_pass()
    return node, daemon_pass


@pytest.mark.parametrize("n_tasks", sorted(DENSITIES))
def test_daemon_pass_steady_state(benchmark, backend, record_throughput, n_tasks):
    """One whole steady-state daemon pass per node (advance + tick)."""
    node, daemon_pass = make_steady_node(backend, n_tasks)
    benchmark(daemon_pass)
    node.validate()
    record_throughput(total_cells(node), MiB(4))
    benchmark.extra_info["n_tasks"] = n_tasks
    benchmark.extra_info["passes_per_sec"] = round(
        1.0 / benchmark.stats.stats.median, 2
    )


def test_daemon_steady_state_speedup(backend):
    """The batched kernels must hold >=2x steady state over the exact
    arena core at 128 tasks/node (measured 2.4-2.6x on a 2-vCPU VM; the
    floor leaves headroom for noisy shared runners).  The two nodes'
    passes alternate, so a shift in host speed lands on both sides of
    the ratio.  Only the [arena-fast] leg asserts — the other leg exists
    so a pinned ``--backend`` run never fails collection."""
    if backend != "arena-fast":
        pytest.skip("ratio is defined for the arena-fast leg")

    passes = {b: make_steady_node(b, 128)[1] for b in ("arena", "arena-fast")}
    best = dict.fromkeys(passes, float("inf"))
    for _ in range(8):
        for b, daemon_pass in passes.items():
            t0 = time.perf_counter()
            daemon_pass()
            best[b] = min(best[b], time.perf_counter() - t0)
    ratio = best["arena"] / best["arena-fast"]
    assert ratio >= 2.0, f"arena-fast daemon pass only {ratio:.2f}x arena"
