"""Policy micro-benchmarks: the per-tick costs that bound simulator scale.

Large-cluster runs execute one `tick` per node per simulated second and a
rate recomputation per placement change; these measure both at realistic
pageset sizes (a 512 GiB node at 4 MiB chunks ≈ 128k DRAM chunks).

The tick, heatmap and daemon-pass legs gate on a same-run ratio
(``conftest.ratio_gate``): each is timed in units of ``numpy_pass`` over
the same node's cells and must stay under its module-level bound.  Every
timed round does real work: each kswapd round reclaims a node above its
watermark, the legs timed from the initial placement migrate, and every
pass runs the fused heatmap kernel.  Each leg also records cells/sec in
``extra_info``, for information.
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


#: cells the reference's selection picks: 1/16 of a 64k-cell node
REFERENCE_TOP_K = 4096


def numpy_pass(node):
    """The unit the node legs are timed in: the primitive operations of a
    daemon pass — the heatmap's decay-and-gain sweep, a top-k selection
    and a scatter to the selected cells — in plain numpy over copies of
    the node's resident cells.  It shares no code with the simulator, so
    a change to the code a leg times moves only that leg's side of the
    ratio.  A sweep alone tracks the legs' cost from run to run less
    well: their selections and scatters slow down more than a streaming
    pass does when the machine is busy."""
    hi = node.arena.hi
    temperature = node.arena.temperature[:hi].copy()
    weight = node.arena.access_weight[:hi].copy()
    tier = node.arena.tier[:hi].copy()
    gain = np.ones(hi, dtype=np.float32)
    scratch = np.empty(hi, dtype=np.float32)
    decay = np.float32(np.exp(-1.0 / 30.0))

    def run():
        np.multiply(temperature, decay, out=temperature)
        np.multiply(weight, gain, out=scratch)
        np.add(temperature, scratch, out=temperature)
        coldest = np.argpartition(temperature, REFERENCE_TOP_K)[:REFERENCE_TOP_K]
        tier[coldest] = tier[coldest]

    return run


def per_round(read):
    """A ``ratio_gate`` setup that reads a counter before each round, and a
    function returning how much each round added to it."""
    marks = []

    def mark():
        marks.append(read())

    def added():
        return np.diff(marks + [read()]).tolist()

    return mark, added


#: timed rounds per leg; each leg's state sequence is deterministic, so
#: every run times the same work
TICK_ROUNDS = 300
KSWAPD_ROUNDS = 21
HEATMAP_ROUNDS = 3000

#: the gates, in ``numpy_pass`` units over the same 64k cells (the values
#: each leg reads on a 2-vCPU VM are in docs/performance.md)
IMME_TICK_BOUND = 2.7
KSWAPD_TICK_BOUND = 90.0
TPP_TICK_BOUND = 0.9
HEATMAP_ADVANCE_BOUND = 0.7
DAEMON_PASS_BOUND = 5.0


def test_manager_tick_cost(benchmark, ratio_gate, record_throughput):
    """One IMME daemon tick over 8 x 32 GiB tasks (256 GiB of metadata),
    from the initial placement on, which the ticks migrate towards
    temperature order."""
    node, ctx, policy = big_node()
    ratio_gate(lambda: policy.tick(ctx), numpy_pass(node), IMME_TICK_BOUND,
               rounds=TICK_ROUNDS)
    node.validate()
    assert node.stats.total_migrated_bytes > 0
    record_throughput(total_cells(node), MiB(4))


def test_linux_kswapd_tick_cost(benchmark, ratio_gate, record_throughput):
    """One kswapd reclaim pass: DRAM is full, above the 0.5 high
    watermark, and the tick swaps the coldest chunks out down to the 0.45
    low one.  A reclaimed node sits under the watermark, so each round
    gets a freshly placed node (untimed) and every timed round reclaims."""

    def kswapd():
        return LinuxSwapPolicy(high_watermark=0.5, low_watermark=0.45)

    reclaimed = []  # (a round's node, the bytes it had swapped out before)

    def under_pressure():
        node, ctx, policy = big_node(policy_cls=kswapd)
        reclaimed.append((node, node.stats.swapped_out_bytes))
        return ctx, policy

    reference = numpy_pass(big_node(policy_cls=kswapd)[0])
    ratio_gate(lambda ctx, policy: policy.tick(ctx), reference, KSWAPD_TICK_BOUND,
               rounds=KSWAPD_ROUNDS, setup=under_pressure)
    assert len(reclaimed) == KSWAPD_ROUNDS
    for node, before in reclaimed:
        node.validate()
        assert node.stats.swapped_out_bytes > before
    record_throughput(total_cells(node), MiB(4))


def test_tpp_tick_cost(benchmark, ratio_gate, record_throughput):
    """One TPP tick at steady state (after the first, bulk-migrating one).
    Its rounds migrate 260 MiB each at temperatures that never change,
    which looks like promote/demote churn, so the leg asserts nothing
    about the bytes a round moves: a tick that settles would be right to
    move none."""
    node, ctx, policy = big_node(policy_cls=lambda: TieredDemandPolicy())
    policy.tick(ctx)
    ratio_gate(lambda: policy.tick(ctx), numpy_pass(node), TPP_TICK_BOUND,
               rounds=TICK_ROUNDS)
    node.validate()
    record_throughput(total_cells(node), MiB(4))


def test_heatmap_advance_cost(benchmark, ratio_gate, record_throughput):
    """The whole-node heatmap pass — fused temperature decay + access gain
    over every resident chunk — at a dense colocation of 128 x 2 GiB
    tasks (256 GiB of metadata, 64k cells).  This is the per-cell hot
    loop of every cluster run: the arena runs it as one fused sweep per
    *node* instead of ~3 numpy dispatches *per task* per tick (the
    retired per-pageset layout's cost, ~5x slower at 64 tasks/node,
    ~10x at 128 and ~17x at 256, measured best-of on an idle machine).
    Every round runs the fused kernel; the reference, ``numpy_pass``,
    holds the same sweep in plain numpy."""
    node, ctx, policy = big_node(n_tasks=128, task_bytes=GiB(2))
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    ratio_gate(lambda: heatmap.advance_node(node, 1.0, rates), numpy_pass(node),
               HEATMAP_ADVANCE_BOUND, rounds=HEATMAP_ROUNDS)
    node.validate()
    assert node.arena.kernel_invocations == HEATMAP_ROUNDS
    record_throughput(total_cells(node), MiB(4))


def test_daemon_pass_cost(benchmark, ratio_gate, record_throughput):
    """The full per-node daemon pass — heatmap advance + IMME tick — over
    32 resident tasks (a dense colocation; same 256 GiB of metadata as
    the tick benches), from the initial placement on.  It mixes
    migration-heavy early rounds with the steady state, which
    bench_movement_daemon.py isolates; every pass runs the fused heatmap
    kernel.  The exact core keeps a per-task movement loop so its
    decisions stay bit-identical to the per-pageset references (see
    docs/performance.md)."""
    node, ctx, policy = big_node(n_tasks=32, task_bytes=GiB(8))
    heatmap = PageHeatmap()
    rates = {ps.owner: 1.0 for ps in node.pagesets()}

    def daemon_pass():
        heatmap.advance_node(node, 1.0, rates)
        policy.tick(ctx)

    mark, kernels = per_round(lambda: node.arena.kernel_invocations)
    ratio_gate(daemon_pass, numpy_pass(node), DAEMON_PASS_BOUND,
               rounds=TICK_ROUNDS, setup=mark)
    node.validate()
    assert node.stats.total_migrated_bytes > 0
    assert min(kernels()) >= 1
    record_throughput(total_cells(node), MiB(4))


def test_rate_recompute_cost(benchmark):
    """The from-scratch node rate kernel (access profiles, row pass, node
    pass) for 64 colocated tasks — the reference every re-rating of
    ``NodeAgent.recompute_rates`` is checked against."""
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
#: of a from-scratch kernel pass (0.12-0.24 on a 2-vCPU VM; a node that
#: re-derives every row reads 0.8 or more)
RERATING_SHARE_BOUND = 0.35
#: timed re-ratings, each after one from-scratch pass
RERATING_ROUNDS = 150


def test_rate_table_rerating_cost(benchmark, ratio_gate):
    """A ``NodeAgent`` running 64 tasks re-rates after one task's access
    weights are reinstalled: its rate table re-derives that one row, where a
    from-scratch :func:`node_slowdowns` derives all 64.  Both legs run on the
    same node in this test, so the gate is a same-machine ratio."""
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

    ratio_gate(rerate, from_scratch, RERATING_SHARE_BOUND, rounds=RERATING_ROUNDS)
