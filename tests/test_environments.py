"""Environment-factory and end-to-end environment behaviour tests."""

import pytest

from repro.core.manager import TieredMemoryManager
from repro.envs.environments import EnvKind, Environment, EnvironmentConfig, make_environment
from repro.memory.tiers import CXL, DRAM, PMEM
from repro.policies.linux import LinuxSwapPolicy
from repro.policies.tpp import TieredDemandPolicy
from repro.util.units import KiB, MiB

from conftest import simple_task

CHUNK = KiB(64)


def env_of(kind, dram=MiB(16), **kw):
    return make_environment(kind, dram_capacity=dram, chunk_size=CHUNK, **kw)


class TestConstruction:
    def test_ie_and_cbe_have_no_tiers(self):
        for kind in (EnvKind.IE, EnvKind.CBE):
            env = env_of(kind)
            node = env.topology.node(0)
            assert node.capacity(PMEM) == 0
            assert node.capacity(CXL) == 0
            assert isinstance(env.agents[0].policy, LinuxSwapPolicy)

    def test_tme_policy_and_tiers(self):
        env = env_of(EnvKind.TME)
        node = env.topology.node(0)
        assert node.capacity(CXL) > 0
        assert isinstance(env.agents[0].policy, TieredDemandPolicy)

    def test_imme_gets_manager_and_shared_memory(self):
        env = env_of(EnvKind.IMME)
        assert isinstance(env.agents[0].policy, TieredMemoryManager)
        assert env.shared_memory is not None
        assert env.config.stage_images

    def test_policy_factory_override(self):
        env = env_of(EnvKind.TME, policy_factory=lambda s: LinuxSwapPolicy())
        assert isinstance(env.agents[0].policy, LinuxSwapPolicy)

    def test_policies_are_per_node(self):
        env = env_of(EnvKind.IMME, n_nodes=2)
        assert env.agents[0].policy is not env.agents[1].policy

    def test_cxl_fraction_passes_through(self):
        env = env_of(EnvKind.TME, cxl_fraction=0.3)
        assert env.agents[0].policy.cxl_fraction == 0.3

    def test_name(self):
        assert env_of(EnvKind.IMME).name == "IMME"


class TestRunBatch:
    def test_batch_completes_and_reports(self):
        env = env_of(EnvKind.IMME, dram=MiB(32))
        specs = [simple_task(f"t{i}", footprint=MiB(1), base_time=1.0) for i in range(4)]
        metrics = env.run_batch(specs)
        assert len(metrics.completed()) == 4
        assert metrics.makespan() > 0
        env.stop()

    def test_stopped_environment_drains(self):
        env = env_of(EnvKind.CBE, dram=MiB(32))
        env.run_batch([simple_task("t0", footprint=MiB(1), base_time=1.0)])
        env.stop()
        assert env.engine.pending() == 0
        end = env.engine.now
        env.engine.run(max_events=1000)
        assert env.engine.now == end

    def test_imme_stages_images_before_launch(self):
        env = env_of(EnvKind.IMME, dram=MiB(32))
        specs = [simple_task(f"t{i}", footprint=MiB(1), base_time=1.0) for i in range(3)]
        env.run_batch(specs)
        assert env.containers.cxl_reads >= 1
        assert env.containers.network_pulls == 0

    def test_non_imme_pulls_over_network(self):
        env = env_of(EnvKind.CBE, dram=MiB(32))
        specs = [simple_task("t0", footprint=MiB(1), base_time=1.0)]
        env.run_batch(specs)
        assert env.containers.network_pulls == 1

    def test_node_traffic_rollup(self):
        env = env_of(EnvKind.CBE, dram=MiB(2))
        specs = [simple_task("t0", footprint=MiB(4), base_time=1.0)]
        env.run_batch(specs)
        traffic = env.node_traffic()
        assert traffic["swapped_out_bytes"] > 0


class TestMakeEnvironmentDefaults:
    def test_tme_defaults_pmem_and_cxl(self):
        env = env_of(EnvKind.TME, dram=MiB(8))
        node = env.topology.node(0)
        assert node.capacity(PMEM) == MiB(16)
        assert node.capacity(CXL) == MiB(512)

    def test_explicit_capacities_respected(self):
        env = make_environment(
            EnvKind.TME,
            dram_capacity=MiB(8),
            pmem_capacity=MiB(4),
            cxl_capacity=MiB(64),
            chunk_size=CHUNK,
        )
        node = env.topology.node(0)
        assert node.capacity(PMEM) == MiB(4)
        assert node.capacity(CXL) == MiB(64)

    def test_config_validation(self):
        with pytest.raises(Exception):
            EnvironmentConfig(kind=EnvKind.IE, n_nodes=0, dram_capacity=MiB(1))

    def test_only_an_env_kind_is_accepted(self):
        from repro.scenarios.registry import scenario
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="realize"):
            make_environment(scenario("fig05/IMME"), dram_capacity=MiB(8))
