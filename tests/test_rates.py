"""Progress-rate model tests: latency/bandwidth/fault blending."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import BACKEND_ARENA
from repro.memory.contention import allocate_bandwidth
from repro.memory.pageset import UNMAPPED, PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, NUM_TIERS, PMEM, SWAP, TierKind
from repro.metrics.collector import MetricsRegistry
from repro.policies.linux import LinuxSwapPolicy
from repro.runtime.execution import TaskExecution, TaskState
from repro.runtime.node_agent import NodeAgent
from repro.runtime.rates import (
    RateModelConfig,
    node_slowdowns,
    phase_slowdown,
    tier_access_profile,
    tier_demand,
)
from repro.sim.engine import SimulationEngine
from repro.util.units import GBps, KiB, MiB
from repro.workflows.patterns import UniformPattern
from repro.workflows.task import TaskPhase

from conftest import CHUNK, simple_task, small_specs
from test_arena import frozen_exact_core

SPECS = small_specs()


def ps_with_weights(tiers, weights):
    ps = PageSet("t", len(tiers) * CHUNK, CHUNK)
    for i, t in enumerate(tiers):
        ps.tier[i] = int(t)
    ps.access_weight[: len(weights)] = np.asarray(weights, dtype=np.float32)
    return ps


def phase(compute=0.4, lat=0.4, bw=0.2, demand=GBps(1.0)):
    return TaskPhase(
        name="p",
        base_time=10.0,
        compute_frac=compute,
        lat_frac=lat,
        bw_frac=bw,
        demand_bandwidth=demand,
        pattern=UniformPattern(),
    )


class TestTierAccessProfile:
    def test_normalised_over_mapped(self):
        ps = ps_with_weights([DRAM, CXL], [0.3, 0.1])
        w, shadow = tier_access_profile(ps)
        assert w[int(DRAM)] == pytest.approx(0.75)
        assert w[int(CXL)] == pytest.approx(0.25)
        assert shadow == 0.0

    def test_shadowed_weight_separated(self):
        ps = ps_with_weights([DRAM, SWAP], [0.5, 0.5])
        ps.in_page_cache[1] = True
        w, shadow = tier_access_profile(ps)
        assert shadow == pytest.approx(0.5)
        assert w[int(SWAP)] == 0.0

    def test_idle_pageset(self):
        ps = ps_with_weights([DRAM], [0.0])
        w, shadow = tier_access_profile(ps)
        assert w.sum() == 0 and shadow == 0


class TestTierDemand:
    def test_demand_follows_weights(self):
        ps = ps_with_weights([DRAM, CXL], [0.75, 0.25])
        d = tier_demand(ps, GBps(4.0))
        assert d[int(DRAM)] == pytest.approx(GBps(3.0))
        assert d[int(CXL)] == pytest.approx(GBps(1.0))

    def test_shadowed_demand_charged_to_dram(self):
        ps = ps_with_weights([SWAP], [1.0])
        ps.in_page_cache[0] = True
        d = tier_demand(ps, GBps(2.0))
        assert d[int(DRAM)] == pytest.approx(GBps(2.0))
        assert d[int(SWAP)] == 0.0


class TestPhaseSlowdown:
    def test_all_dram_no_contention_is_unity(self):
        ps = ps_with_weights([DRAM], [1.0])
        s = phase_slowdown(phase(), ps, SPECS, achieved_bandwidth=GBps(1.0))
        assert s == pytest.approx(1.0)

    def test_cxl_latency_penalty(self):
        dram = ps_with_weights([DRAM], [1.0])
        cxl = ps_with_weights([CXL], [1.0])
        p = phase(compute=0.3, lat=0.7, bw=0.0, demand=0)
        s_dram = phase_slowdown(p, dram, SPECS, GBps(1))
        s_cxl = phase_slowdown(p, cxl, SPECS, GBps(1))
        assert s_cxl > s_dram
        # 140ns vs 80ns with lat_frac .7: 0.3 + 0.7*1.75
        assert s_cxl == pytest.approx(0.3 + 0.7 * 1.75, rel=1e-3)

    def test_swap_residency_dominates(self):
        swap = ps_with_weights([SWAP], [1.0])
        s = phase_slowdown(phase(), swap, SPECS, GBps(1))
        assert s > 50  # amortised major-fault latency is catastrophic

    def test_shadowed_swap_is_cheap(self):
        swap = ps_with_weights([SWAP], [1.0])
        swap.in_page_cache[0] = True
        s = phase_slowdown(phase(), swap, SPECS, GBps(1))
        assert s < 3

    def test_bandwidth_starvation(self):
        ps = ps_with_weights([DRAM], [1.0])
        p = phase(compute=0.3, lat=0.0, bw=0.7, demand=GBps(10.0))
        s_full = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(10.0))
        s_half = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(5.0))
        assert s_full == pytest.approx(1.0)
        assert s_half == pytest.approx(0.3 + 0.7 * 2.0)

    def test_surplus_bandwidth_never_speeds_up(self):
        ps = ps_with_weights([DRAM], [1.0])
        p = phase(compute=0.3, lat=0.0, bw=0.7, demand=GBps(1.0))
        s = phase_slowdown(p, ps, SPECS, achieved_bandwidth=GBps(100.0))
        assert s == pytest.approx(1.0)

    def test_migration_penalty_added_and_capped(self):
        ps = ps_with_weights([DRAM], [1.0])
        cfg = RateModelConfig(migration_overhead_cap=0.08)
        s0 = phase_slowdown(phase(), ps, SPECS, GBps(1), config=cfg)
        s1 = phase_slowdown(phase(), ps, SPECS, GBps(1), migration_penalty=0.05, config=cfg)
        s2 = phase_slowdown(phase(), ps, SPECS, GBps(1), migration_penalty=5.0, config=cfg)
        assert s1 == pytest.approx(s0 + 0.05)
        assert s2 == pytest.approx(s0 + 0.08)

    def test_idle_weights_treated_as_dram(self):
        ps = ps_with_weights([DRAM], [0.0])
        s = phase_slowdown(phase(demand=0), ps, SPECS, 0.0)
        assert s == pytest.approx(1.0)

    def test_slowdown_clamped(self):
        swap = ps_with_weights([SWAP], [1.0])
        cfg = RateModelConfig(max_slowdown=10.0)
        p = phase(compute=0.0, lat=1.0, bw=0.0, demand=0)
        assert phase_slowdown(p, swap, SPECS, GBps(1), config=cfg) == 10.0


# --------------------------------------------------------------------------- #
# the node kernel against the closed form, and across storage layouts
# --------------------------------------------------------------------------- #


def closed_form_slowdowns(phases, pagesets, specs, capacities, penalty, cfg):
    """docs/rate-model.md evaluated task by task, chunk by chunk."""
    profiles = []
    for ps in pagesets:
        w = np.zeros(NUM_TIERS + 1)  # last slot: page-cache shadows
        for tier, shadowed, weight in zip(ps.tier, ps.in_page_cache, ps.access_weight):
            if tier != UNMAPPED:
                w[NUM_TIERS if shadowed else int(tier)] += float(weight)
        profiles.append(w / w.sum() if w.sum() > 0 else w)
    demands = np.array(
        [
            [p.demand_bandwidth * (w[t] + (w[NUM_TIERS] if t == int(DRAM) else 0.0))
             for t in range(NUM_TIERS)]
            for p, w in zip(phases, profiles)
        ]
    )
    achieved = allocate_bandwidth(capacities, demands)
    out = []
    for p, w, a in zip(phases, profiles, achieved.sum(axis=1)):
        lat = w[NUM_TIERS] * cfg.shadow_access_latency + w[int(SWAP)] * cfg.swap_access_latency
        for t in (DRAM, PMEM, CXL):
            factor = 1.0
            if cfg.loaded_latency and capacities[int(t)] > 0:
                rho = min(achieved[:, int(t)].sum() / capacities[int(t)], 1.0)
                factor = 1.0 + (cfg.loaded_latency_max_factor - 1.0) * rho**2
            lat += w[int(t)] * specs[t].latency * factor
        lat_mult = lat / specs[DRAM].latency if w.sum() > 0 else 1.0
        bw_mult = 1.0
        if p.demand_bandwidth > 0 and p.bw_frac > 0:
            bw_mult = max(1.0, p.demand_bandwidth / max(a, 1e-9))
        s = (p.compute_frac + p.lat_frac * lat_mult + p.bw_frac * bw_mult
             + min(cfg.migration_overhead_cap, max(0.0, penalty)))
        out.append(min(max(s, p.compute_frac), cfg.max_slowdown))
    return out


chunk_st = st.tuples(
    st.sampled_from([UNMAPPED, int(DRAM), int(PMEM), int(CXL), int(SWAP)]),
    st.booleans(),
    st.sampled_from([0.0, 0.0, 1e-3, 0.25, 1.0]) | st.floats(0.0, 1.0, width=32),
)
task_st = st.tuples(
    st.lists(chunk_st, min_size=1, max_size=24),
    st.booleans(),  # idle: every access weight zero
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, GBps(1), GBps(40), GBps(400)]),
)


class TestNodeKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        tasks=st.lists(task_st, min_size=1, max_size=64),
        offline=st.sampled_from([None, DRAM, PMEM, CXL, SWAP]),
        penalty=st.sampled_from([0.0, 0.03, 5.0]),
        loaded=st.booleans(),
        max_slowdown=st.sampled_from([1e5, 20.0]),
    )
    def test_matches_closed_form(self, tasks, offline, penalty, loaded, max_slowdown):
        phases, pagesets = [], []
        for i, (chunks, idle, x, y, demand) in enumerate(tasks):
            ps = PageSet(f"t{i}", len(chunks) * CHUNK, CHUNK)
            ps.tier[:] = [c[0] for c in chunks]
            ps.in_page_cache[:] = [c[1] for c in chunks]
            ps.access_weight[:] = 0.0 if idle else [c[2] for c in chunks]
            lat, bw = x * (1 - y), y * (1 - x)
            phases.append(TaskPhase(
                name="p", base_time=1.0, compute_frac=1.0 - lat - bw, lat_frac=lat,
                bw_frac=bw, demand_bandwidth=demand, pattern=UniformPattern(),
            ))
            pagesets.append(ps)
        caps = np.array([SPECS[TierKind(t)].bandwidth for t in range(NUM_TIERS)])
        if offline is not None:
            caps[int(offline)] = 0.0
        cfg = RateModelConfig(
            loaded_latency=loaded, loaded_latency_max_factor=3.0, max_slowdown=max_slowdown
        )
        got = node_slowdowns(
            phases, pagesets, SPECS, caps, migration_penalty=penalty, config=cfg
        )
        want = closed_form_slowdowns(phases, pagesets, SPECS, caps, penalty, cfg)
        assert got.tolist() == pytest.approx(want, rel=1e-12)

    def test_one_row_wrappers_are_the_kernel(self):
        ps = ps_with_weights([DRAM, CXL, SWAP, SWAP], [0.4, 0.3, 0.2, 0.1])
        ps.in_page_cache[3] = True
        p = phase()
        caps = np.full(NUM_TIERS, GBps(0.5))
        (kernel,) = node_slowdowns([p], [ps], SPECS, caps)
        bw = allocate_bandwidth(caps, tier_demand(ps, p.demand_bandwidth)[None, :]).sum()
        assert phase_slowdown(p, ps, SPECS, bw) == kernel


def layout_rates(backend):
    """Rates on a node whose arena has a freed hole (a finished task) and
    a registered pageset of a task that never started."""
    engine, metrics = SimulationEngine(), MetricsRegistry()
    node = NodeMemorySystem(small_specs(dram=MiB(2), cxl=MiB(64)), "n0", backend=backend)
    agent = NodeAgent(
        engine, node, LinuxSwapPolicy(scan_noise=0.0), metrics, cores=8, chunk_size=CHUNK
    )
    short = agent.start_task(
        simple_task("short", footprint=MiB(1), base_time=0.5, lat_frac=0.0, bw_frac=0.0)
    )
    tasks = [
        agent.start_task(simple_task(
            f"t{i}", footprint=MiB(1 + i), base_time=50.0, lat_frac=0.5, bw_frac=0.3,
            demand_bandwidth=GBps(60),
        ))
        for i in range(3)
    ]
    engine.run(until=3.0)
    assert short.state is TaskState.DONE
    pending = TaskExecution(simple_task("pending", footprint=MiB(1)), agent, metrics.task("p"))
    node.register(pending.pageset)
    assert pending.state is TaskState.PENDING
    agent.recompute_rates()
    return [te.current_rate for te in tasks]


def test_object_and_arena_rates_bit_identical():
    """The rates the object layout and the arena both produced, frozen
    before the object layout was retired."""
    rates = layout_rates(BACKEND_ARENA)
    assert all(r > 0 for r in rates)
    assert rates == frozen_exact_core()["layout_rates"]
