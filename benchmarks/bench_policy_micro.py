"""Policy micro-benchmarks: the per-tick costs that bound simulator scale.

Large-cluster runs execute one `tick` per node per simulated second and a
rate recomputation per placement change; these measure both at realistic
pageset sizes (a 512 GiB node at 4 MiB chunks ≈ 128k DRAM chunks).

The tick benchmarks are ``[arena]`` legs (see ``conftest.core``); each
records cells/sec in ``extra_info``, which the CI bench gate tracks per
leg against BENCH_simulator.json.
"""

import numpy as np

from repro.core.flags import MemFlag
from repro.core.heatmap import PageHeatmap
from repro.core.manager import TieredMemoryManager
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import default_tier_specs
from repro.policies.base import AllocationRequest, PolicyContext
from repro.policies.linux import LinuxSwapPolicy
from repro.policies.tpp import TieredDemandPolicy
from repro.util.units import GiB, MiB


def big_node(policy_cls=None, n_tasks=8, task_bytes=GiB(32)):
    specs = default_tier_specs(dram_capacity=GiB(128))
    node = NodeMemorySystem(specs, "bench")
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
    rng = np.random.default_rng(1)
    policy = (
        TieredMemoryManager(specs)
        if policy_cls is None
        else policy_cls()
    )
    for i in range(n_tasks):
        ps = PageSet(f"t{i}", task_bytes, MiB(4))
        ps.region[:] = 0
        ps.region_flags[0] = MemFlag.NONE
        node.register(ps)
        policy.place(ctx, ps, AllocationRequest(f"t{i}", 0, task_bytes))
        ps.temperature = rng.random(ps.n_chunks).astype(np.float32)
        ps.access_weight = (rng.random(ps.n_chunks) ** 4).astype(np.float32)
    return node, ctx, policy


def total_cells(node):
    """Page chunks of resident simulation state one tick walks."""
    return sum(ps.n_chunks for ps in node.pagesets())


def test_victim_selection_cost(benchmark):
    """coldest_in/hottest_in top-k on a 128k-chunk pageset (a 512 GiB node
    at 4 MiB chunks) — the inner loop of every eviction decision."""
    rng = np.random.default_rng(0)
    n = 131072
    ps = PageSet("victims", n * MiB(4), MiB(4))
    ps.assign(np.arange(n), 0)
    ps.temperature = rng.random(n).astype(np.float32)
    k = 512

    def select():
        return ps.coldest_in(0, k), ps.hottest_in(0, k)

    cold, hot = benchmark(select)
    assert cold.size == k and hot.size == k


def test_manager_tick_cost(benchmark, core, record_throughput):
    """One IMME daemon tick over 8 x 32 GiB tasks (256 GiB of metadata)."""
    node, ctx, policy = big_node()
    benchmark(lambda: policy.tick(ctx))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_linux_kswapd_tick_cost(benchmark, core, record_throughput):
    node, ctx, policy = big_node(
        policy_cls=lambda: LinuxSwapPolicy(high_watermark=0.5, low_watermark=0.45)
    )
    benchmark(lambda: policy.tick(ctx))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_tpp_tick_cost(benchmark, core, record_throughput):
    node, ctx, policy = big_node(policy_cls=lambda: TieredDemandPolicy())
    benchmark(lambda: policy.tick(ctx))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_heatmap_advance_cost(benchmark, core, record_throughput):
    """The whole-node heatmap pass — fused temperature decay + access gain
    over every resident chunk — at a dense colocation of 128 x 2 GiB
    tasks (256 GiB of metadata, 64k cells).  This is the per-cell hot
    loop of every cluster run: the arena runs it as one fused sweep per
    *node* instead of ~3 numpy dispatches *per task* per tick (the
    retired per-pageset layout's cost, ~5x slower at 64 tasks/node,
    ~10x at 128 and ~17x at 256, measured best-of on an idle machine)."""
    node, ctx, policy = big_node(n_tasks=128, task_bytes=GiB(2))
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    benchmark(lambda: heatmap.advance_node(node, 1.0, rates))
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_daemon_pass_cost(benchmark, core, record_throughput):
    """The full per-node daemon pass — heatmap advance + IMME tick — over
    32 resident tasks (a dense colocation; same 256 GiB of metadata as
    the tick benches).  It mixes migration-heavy early rounds with the
    steady state, which bench_movement_daemon.py isolates.  The exact
    core keeps a per-task movement loop so its decisions stay
    bit-identical to the per-pageset references (see
    docs/performance.md)."""
    node, ctx, policy = big_node(n_tasks=32, task_bytes=GiB(8))
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    def daemon_pass():
        heatmap.advance_node(node, 1.0, rates)
        policy.tick(ctx)

    benchmark(daemon_pass)
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_rate_recompute_cost(benchmark):
    """The node rate kernel (access profiles, contention matrix, slowdowns)
    for 64 colocated tasks — the path ``NodeAgent.recompute_rates`` runs."""
    from repro.runtime.rates import node_slowdowns
    from repro.workflows.patterns import UniformPattern
    from repro.workflows.task import TaskPhase
    from repro.util.units import GBps

    specs = default_tier_specs(dram_capacity=GiB(512))
    node = NodeMemorySystem(specs, "bench")
    rng = np.random.default_rng(0)
    phase = TaskPhase(
        "p", base_time=10.0, compute_frac=0.4, lat_frac=0.4, bw_frac=0.2,
        demand_bandwidth=GBps(5.0), pattern=UniformPattern(),
    )
    pagesets = []
    for i in range(64):
        ps = PageSet(f"t{i}", GiB(8), MiB(4))
        node.register(ps)
        node.place(ps, np.arange(ps.n_chunks), 0)
        ps.access_weight = (rng.random(ps.n_chunks) ** 4).astype(np.float32)
        pagesets.append(ps)
    caps = np.array([specs[t].bandwidth for t in sorted(specs, key=int)])
    phases = [phase] * len(pagesets)

    slowdowns = benchmark(lambda: node_slowdowns(phases, pagesets, specs, caps))
    assert len(slowdowns) == 64


#: the CI gate on :func:`test_rate_table_rerating_cost`: re-rating a
#: 64-task node after one task's pages changed must cost under this share
#: of a from-scratch kernel pass (about 0.1 on a 2-vCPU VM; a node that
#: re-bins every row reads 1.0 or more)
RERATING_SHARE_BOUND = 0.35


def test_rate_table_rerating_cost(benchmark):
    """A ``NodeAgent`` running 64 tasks re-rates after one task's access
    weights are reinstalled: its rate table re-bins that one row, where a
    from-scratch :func:`node_slowdowns` bins all 64.  Both legs run on the
    same node in this test, so the gate is a same-machine ratio."""
    import time

    from repro.metrics.collector import MetricsRegistry
    from repro.runtime.node_agent import NodeAgent
    from repro.runtime.rates import node_slowdowns
    from repro.sim.engine import SimulationEngine
    from repro.util.units import GBps
    from repro.workflows.patterns import UniformPattern
    from repro.workflows.task import TaskPhase, TaskSpec, WorkloadClass

    specs = default_tier_specs(dram_capacity=GiB(512))
    node = NodeMemorySystem(specs, "bench")
    agent = NodeAgent(
        SimulationEngine(), node, LinuxSwapPolicy(scan_noise=0.0), MetricsRegistry(),
        cores=64, chunk_size=MiB(4),
    )
    phase = TaskPhase(
        "p", base_time=1e6, compute_frac=0.4, lat_frac=0.4, bw_frac=0.2,
        demand_bandwidth=GBps(5.0), pattern=UniformPattern(),
    )
    tasks = [
        agent.start_task(TaskSpec(
            name=f"t{i}", wclass=WorkloadClass.GENERIC, footprint=GiB(7),
            wss=GiB(7), phases=(phase,),
        ))
        for i in range(64)
    ]
    assert all(te.current_rate > 0 for te in tasks)
    ps = tasks[0].pageset
    weights = ps.access_weight.copy()
    phases, pagesets = [te.phase for te in tasks], [te.pageset for te in tasks]
    caps = np.array([specs[t].bandwidth for t in sorted(specs, key=int)]) * node.tier_health()

    def rerate():
        node.set_access_weights(ps, weights)
        agent.recompute_rates()

    def from_scratch():
        return node_slowdowns(phases, pagesets, specs, caps)

    def best(fn, n=20):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    benchmark(rerate)
    share = min(best(rerate) / best(from_scratch) for _ in range(5))
    benchmark.extra_info["share_of_from_scratch"] = round(share, 4)
    print(f"\nre-rating after one task's weights changed: {share:.3f}x a from-scratch pass")
    assert share < RERATING_SHARE_BOUND
