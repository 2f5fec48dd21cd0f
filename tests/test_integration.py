"""Cross-module integration tests: the qualitative orderings the paper's
evaluation rests on, at miniature scale."""

import pytest

from repro.core.flags import MemFlag
from repro.envs.environments import EnvKind, make_environment
from repro.resilience import InvariantChecker, invariants
from repro.util.units import GBps, KiB, MiB
from repro.workflows.patterns import HotColdPattern
from repro.workflows.task import TaskPhase, TaskSpec, WorkloadClass

CHUNK = KiB(64)


def lat_task(name, footprint=MiB(4)):
    return TaskSpec(
        name=name,
        wclass=WorkloadClass.DM,
        footprint=footprint,
        wss=footprint,
        phases=(
            TaskPhase(
                "etl", base_time=5.0, compute_frac=0.3, lat_frac=0.65, bw_frac=0.05,
                demand_bandwidth=GBps(1.0),
                pattern=HotColdPattern(hot_fraction=0.4, hot_share=0.85),
            ),
        ),
        flags=MemFlag.LAT | MemFlag.SHL,
        cores=1,
    )


def cap_task(name, footprint=MiB(16)):
    return TaskSpec(
        name=name,
        wclass=WorkloadClass.SC,
        footprint=footprint,
        wss=footprint // 2,
        phases=(
            TaskPhase(
                "sweep", base_time=8.0, compute_frac=0.6, lat_frac=0.3, bw_frac=0.1,
                demand_bandwidth=GBps(2.0),
                pattern=HotColdPattern(hot_fraction=0.2, hot_share=0.8),
            ),
        ),
        flags=MemFlag.CAP,
        cores=1,
    )


def run_env(kind, specs, dram, **kw):
    env = make_environment(kind, dram_capacity=dram, chunk_size=CHUNK, **kw)
    metrics = env.run_batch(specs, max_time=1e6)
    env.stop()
    return metrics


def mixed_batch():
    return [lat_task("dm-0"), lat_task("dm-1"), cap_task("sc-0"), cap_task("sc-1")]


class TestEnvironmentOrdering:
    def test_cbe_much_slower_than_ie(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        ie = run_env(EnvKind.IE, specs, dram=2 * total)
        cbe = run_env(EnvKind.CBE, specs, dram=total // 4)
        assert cbe.makespan() > 1.5 * ie.makespan()

    def test_tiered_memory_recovers_most_of_the_loss(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        cbe = run_env(EnvKind.CBE, specs, dram=total // 4)
        tme = run_env(EnvKind.TME, specs, dram=total // 4)
        assert tme.makespan() < cbe.makespan()

    def test_imme_at_least_matches_tme(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        tme = run_env(EnvKind.TME, specs, dram=total // 4)
        imme = run_env(EnvKind.IMME, specs, dram=total // 4)
        assert imme.makespan() <= tme.makespan() * 1.10

    def test_imme_protects_latency_sensitive_tasks(self):
        """The core claim: DM-class execution time under IMME stays near
        ideal even when DRAM is scarce."""
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        ie = run_env(EnvKind.IE, specs, dram=2 * total)
        imme = run_env(EnvKind.IMME, specs, dram=total // 4)
        ideal_dm = ie.mean_execution_time("DM")
        imme_dm = imme.mean_execution_time("DM")
        assert imme_dm <= ideal_dm * 1.30


class TestFaultConversion:
    def test_imme_replaces_majors_with_minors(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        cbe = run_env(EnvKind.CBE, specs, dram=total // 4)
        imme = run_env(EnvKind.IMME, specs, dram=total // 4)
        cbe_major, _ = cbe.total_faults()
        imme_major, imme_minor = imme.total_faults()
        assert imme_major < cbe_major
        assert imme_minor >= 0

    def test_imme_avoids_disk_swap(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        env = make_environment(EnvKind.IMME, dram_capacity=total // 4, chunk_size=CHUNK)
        env.run_batch(specs, max_time=1e6)
        traffic = env.node_traffic()
        assert traffic["swapped_out_bytes"] == 0
        assert traffic["migrated_to_cxl_bytes"] >= 0
        env.stop()


class TestInvariantsUnderLoad:
    @pytest.mark.parametrize("kind", [EnvKind.CBE, EnvKind.TME, EnvKind.IMME])
    def test_accounting_survives_a_full_run(self, kind):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        env = make_environment(kind, dram_capacity=total // 4, chunk_size=CHUNK)
        with invariants.session(InvariantChecker()):
            metrics = env.run_batch(specs, max_time=1e6)
        env.topology.validate()
        assert len(metrics.completed()) == len(specs)
        # all memory returned
        for node in env.topology.nodes:
            for tier in (0, 1, 2, 3):
                assert node._used[tier] == 0  # noqa: SLF001 - invariant check
        env.stop()

    def test_deterministic_repeat(self):
        specs = mixed_batch()
        total = sum(s.footprint for s in specs)
        m1 = run_env(EnvKind.IMME, specs, dram=total // 4)
        m2 = run_env(EnvKind.IMME, mixed_batch(), dram=total // 4)
        assert m1.makespan() == pytest.approx(m2.makespan(), rel=1e-9)
