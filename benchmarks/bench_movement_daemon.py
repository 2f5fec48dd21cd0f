"""Movement-daemon steady-state benchmark.

``bench_policy_micro.test_daemon_pass_cost`` measures the daemon from a
cold start, which mixes migration-heavy early rounds into the number.
This bench isolates the *steady state* — the regime a long cluster run
spends almost all of its wall-clock in — by warming the node until the
movement daemon's per-tick work settles, then timing whole passes
(heatmap advance + IMME tick).

Legs: 64, 128 and 256 tasks per node (256 GiB of resident metadata in
every case, so the cells/sec numbers are density comparisons, not size
comparisons).  Each leg gates on its pass's cost in
``bench_policy_micro.numpy_pass`` units over the same cells (bounds in
``STEADY_PASS_BOUNDS``), asserts that every timed pass ran the fused
heatmap kernel, and records ``passes_per_sec`` in ``extra_info`` for
information.  It asserts nothing about the bytes a pass moves: at these
constant rates the temperatures converge, yet every pass still migrates
(652 MiB), which looks like promote/demote churn that a settled daemon
would be right to stop.
"""

import pytest

from repro.core.heatmap import PageHeatmap
from repro.util.units import GiB, MiB

from bench_policy_micro import big_node, numpy_pass, per_round, total_cells

#: passes to run before timing — enough for the initial placement churn
#: (promotions draining swap/PMem, proactive spill: 2,620 MiB a pass
#: for the first ~28 passes at every density) to die down
WARMUP_PASSES = 32

#: (n_tasks, per-task bytes): constant 256 GiB node-resident total
DENSITIES = {64: GiB(4), 128: GiB(2), 256: GiB(1)}


def make_steady_node(n_tasks):
    node, ctx, policy = big_node(n_tasks=n_tasks, task_bytes=DENSITIES[n_tasks])
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    def daemon_pass():
        heatmap.advance_node(node, 1.0, rates)
        policy.tick(ctx)

    for _ in range(WARMUP_PASSES):
        daemon_pass()
    return node, daemon_pass


#: timed passes per leg, after the warm-up
STEADY_ROUNDS = 120

#: the gates, in ``bench_policy_micro.numpy_pass`` units over the same
#: 64k cells, by tasks per node (the values each leg reads on a 2-vCPU
#: VM are in docs/performance.md)
STEADY_PASS_BOUNDS = {64: 7.0, 128: 10.0, 256: 15.5}


@pytest.mark.parametrize("n_tasks", sorted(DENSITIES))
def test_daemon_pass_steady_state(benchmark, ratio_gate, record_throughput, n_tasks):
    """One whole steady-state daemon pass per node (advance + tick)."""
    node, daemon_pass = make_steady_node(n_tasks)
    mark, kernels = per_round(lambda: node.arena.kernel_invocations)
    ratio_gate(daemon_pass, numpy_pass(node), STEADY_PASS_BOUNDS[n_tasks],
               rounds=STEADY_ROUNDS, setup=mark)
    node.validate()
    assert min(kernels()) >= 1
    record_throughput(total_cells(node), MiB(4))
    benchmark.extra_info["n_tasks"] = n_tasks
    benchmark.extra_info["passes_per_sec"] = round(
        1.0 / benchmark.stats.stats.median, 2
    )
