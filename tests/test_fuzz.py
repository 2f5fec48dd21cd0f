"""Property-based fuzzing of the core stack.

These push randomised inputs through the manager, the movement daemon,
and full environment runs, asserting the invariants that must survive
*any* input: complete placement, non-negative accounting, and clean
teardown.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.core.flags import MemFlag
from repro.core.manager import TieredMemoryManager
from repro.core.movement import MovementConfig
from repro.envs.environments import EnvKind, make_environment
from repro.memory.pageset import UNMAPPED, PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import DRAM, SWAP
from repro.policies.base import AllocationRequest, PolicyContext, stripe_assignment
from repro.resilience import InvariantChecker
from repro.util.units import KiB, MiB

from conftest import make_pageset, simple_task, small_specs

CHUNK = KiB(64)

FLAG_POOL = [
    MemFlag.NONE,
    MemFlag.LAT,
    MemFlag.BW,
    MemFlag.CAP,
    MemFlag.SHL,
    MemFlag.LAT | MemFlag.CAP,
    MemFlag.BW | MemFlag.CAP,
    MemFlag.LAT | MemFlag.SHL,
    MemFlag.LAT | MemFlag.BW | MemFlag.CAP,
]


class TestStripeAssignmentProperties:
    @given(st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=6))
    def test_counts_exact(self, counts):
        out = stripe_assignment(counts)
        assert out.size == sum(counts)
        got = np.bincount(out, minlength=len(counts)) if out.size else np.zeros(len(counts))
        for k, c in enumerate(counts):
            if c > 0:
                assert got[k] == c

    @given(st.integers(min_value=2, max_value=32))
    def test_even_groups_alternate(self, n):
        out = stripe_assignment([n, n])
        # true interleaving: no run longer than 2 for equal groups
        runs = np.diff(np.flatnonzero(np.diff(out) != 0))
        if runs.size:
            assert runs.max() <= 2


class TestManagerPlacementFuzz:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),      # chunks per request
                st.sampled_from(range(len(FLAG_POOL))),      # flags
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_every_request_fully_mapped(self, requests):
        """Whatever the flag/size mix, every chunk ends up mapped to a real
        tier and the node accounting stays consistent."""
        specs = small_specs(dram=MiB(1), pmem=MiB(2), cxl=MiB(64))
        node = NodeMemorySystem(specs, "fuzz")
        ctx = PolicyContext(memory=node, rng=np.random.default_rng(1))
        mgr = TieredMemoryManager(specs)
        for i, (n_chunks, flag_idx) in enumerate(requests):
            owner = f"task{i}"
            flags = FLAG_POOL[flag_idx]
            ps = PageSet(owner, n_chunks * CHUNK, CHUNK)
            ps.region[:] = 0
            ps.region_flags[0] = flags
            node.register(ps)
            mgr.place(ctx, ps, AllocationRequest(owner, 0, n_chunks * CHUNK, flags))
            assert not (ps.tier == UNMAPPED).any()
            node.validate()


class TestMovementTickFuzz:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=8),
    )
    def test_random_heat_and_ticks_keep_invariants(self, seed, n_ticks):
        specs = small_specs(dram=MiB(2), pmem=MiB(2), cxl=MiB(64))
        node = NodeMemorySystem(specs, "fuzz")
        rng = np.random.default_rng(seed)
        ctx = PolicyContext(memory=node, rng=rng)
        mgr = TieredMemoryManager(
            specs, movement_config=MovementConfig(proactive_threshold=0.5,
                                                  proactive_target=0.3)
        )
        for i, flags in enumerate([MemFlag.LAT, MemFlag.CAP, MemFlag.BW]):
            ps = PageSet(f"t{i}", MiB(1), CHUNK)
            ps.region[:] = 0
            ps.region_flags[0] = flags
            node.register(ps)
            mgr.place(ctx, ps, AllocationRequest(f"t{i}", 0, MiB(1), flags))
        for _ in range(n_ticks):
            for ps in node.pagesets():
                ps.temperature = rng.random(ps.n_chunks).astype(np.float32)
                # pinned chunks must never move; remember where they are
            pinned_before = {
                ps.owner: (np.flatnonzero(ps.pinned), ps.tier[ps.pinned].copy())
                for ps in node.pagesets()
            }
            mgr.tick(ctx)
            node.validate()
            for ps in node.pagesets():
                idx, tiers = pinned_before[ps.owner]
                assert (ps.tier[idx] == tiers).all(), "pinned chunk moved"


class TestEndToEndFuzz:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=6),
        st.sampled_from([EnvKind.CBE, EnvKind.TME, EnvKind.IMME]),
    )
    def test_random_batches_always_terminate_cleanly(self, seed, n_tasks, kind):
        rng = np.random.default_rng(seed)
        specs = []
        for i in range(n_tasks):
            specs.append(
                simple_task(
                    f"t{i}",
                    footprint=int(rng.integers(1, 30)) * CHUNK,
                    base_time=float(rng.uniform(0.5, 4.0)),
                    lat_frac=float(rng.uniform(0, 0.6)),
                    bw_frac=float(rng.uniform(0, 0.3)),
                    n_phases=int(rng.integers(1, 3)),
                    cores=int(rng.integers(1, 4)),
                )
            )
        total = sum(s.max_footprint for s in specs)
        env = make_environment(
            kind,
            dram_capacity=max(total // 3, 8 * CHUNK),
            chunk_size=CHUNK,
        )
        with obs.session(checker=InvariantChecker()):
            metrics = env.run_batch(specs, max_time=1e6)
        assert len(metrics.completed()) + len(metrics.failed()) == n_tasks
        for node in env.topology.nodes:
            node.validate()
            assert node.rss(DRAM) == 0
            assert node.rss(SWAP) == 0
        env.stop()
