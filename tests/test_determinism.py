"""Determinism matrix: identical seeds produce bit-identical results
across every environment kind and every experiment harness surface."""

import pytest

from repro.envs.environments import EnvKind, make_environment
from repro.experiments import run_fig01
from repro.resilience import InvariantChecker, invariants
from repro.util.units import KiB, MiB
from repro.workflows.patterns import DriftingHotSpotPattern
from repro.workflows.task import WorkloadClass

from conftest import simple_task

CHUNK = KiB(128)
TINY = 1.0 / 512.0
MIX = {WorkloadClass.DM: 2, WorkloadClass.SC: 1}


def run_env(kind, seed=0):
    from repro.experiments.common import colocated_mix

    specs = colocated_mix(MIX, scale=TINY, seed=seed)
    total = sum(s.max_footprint for s in specs)
    env = make_environment(kind, dram_capacity=total // 3, chunk_size=CHUNK)
    metrics = env.run_batch(specs, max_time=1e7)
    fingerprint = tuple(
        (t.owner, t.started_at, t.finished_at, t.major_faults, t.minor_faults)
        for t in sorted(metrics.tasks(), key=lambda t: t.owner)
    )
    env.stop()
    return fingerprint


class TestEnvironmentDeterminism:
    @pytest.mark.parametrize("kind", list(EnvKind), ids=lambda k: k.name)
    def test_same_seed_bit_identical(self, kind):
        assert run_env(kind, seed=3) == run_env(kind, seed=3)

    def test_different_seed_differs(self):
        # jitter + submission order + policy noise all derive from the seed
        assert run_env(EnvKind.CBE, seed=1) != run_env(EnvKind.CBE, seed=2)


class TestHarnessDeterminism:
    def test_figure_harness_reproduces(self):
        a = run_fig01(scale=TINY, instances_per_class=1, chunk_size=CHUNK)
        b = run_fig01(scale=TINY, instances_per_class=1, chunk_size=CHUNK)
        assert a.series == b.series

    def test_resilience_fault_schedule_reproduces(self):
        # the chaos run draws victims, stragglers, and pull failures from
        # named RngFactory streams: same seed -> identical metrics
        from repro.experiments import run_resilience

        a = run_resilience(scale=TINY, instances=2, chunk_size=CHUNK)
        b = run_resilience(scale=TINY, instances=2, chunk_size=CHUNK)
        assert a.series == b.series

    def test_random_fault_schedule_reproduces(self):
        from repro.faults import FaultKind, FaultSchedule

        rates = {FaultKind.NODE_CRASH: 0.01, FaultKind.TASK_STRAGGLER: 0.05}
        a = FaultSchedule.random(horizon=500.0, n_nodes=4, seed=11, rates=rates)
        b = FaultSchedule.random(horizon=500.0, n_nodes=4, seed=11, rates=rates)
        assert [(f.kind, f.time, f.node) for f in a] == [
            (f.kind, f.time, f.node) for f in b
        ]
        c = FaultSchedule.random(horizon=500.0, n_nodes=4, seed=12, rates=rates)
        assert [(f.kind, f.time) for f in a] != [(f.kind, f.time) for f in c]


class TestDriftingPattern:
    def test_distribution(self):
        p = DriftingHotSpotPattern(width_frac=0.1, drift_per_phase=0.25)
        w = p.weights(100, 0)
        assert w.sum() == pytest.approx(1.0)
        assert (w >= 0).all()

    def test_hot_spot_moves(self):
        import numpy as np

        p = DriftingHotSpotPattern(width_frac=0.05, drift_per_phase=0.25)
        c0 = int(np.argmax(p.weights(100, 0)))
        c1 = int(np.argmax(p.weights(100, 1)))
        assert abs(c1 - c0) == pytest.approx(25, abs=2)

    def test_wraps_around(self):
        import numpy as np

        p = DriftingHotSpotPattern(width_frac=0.05, drift_per_phase=0.25)
        c4 = int(np.argmax(p.weights(100, 4)))  # full cycle
        c0 = int(np.argmax(p.weights(100, 0)))
        assert c4 == c0

    def test_concentration_scales_with_width(self):
        narrow = DriftingHotSpotPattern(width_frac=0.02).weights(200, 0)
        wide = DriftingHotSpotPattern(width_frac=0.30).weights(200, 0)
        assert narrow.max() > wide.max()

    def test_end_to_end_with_movement(self, engine, metrics):
        """A drifting hot spot over a tiered node: the manager keeps
        chasing it; the run must stay consistent and finish."""
        from dataclasses import replace

        from repro.core.manager import TieredMemoryManager
        from repro.memory.system import NodeMemorySystem
        from repro.runtime.node_agent import NodeAgent
        from conftest import small_specs

        spec = simple_task("drift", footprint=MiB(2), base_time=3.0, n_phases=4)
        spec = replace(
            spec,
            phases=tuple(
                replace(p, pattern=DriftingHotSpotPattern(0.1, 0.3))
                for p in spec.phases
            ),
        )
        specs = small_specs(dram=MiB(1))
        node = NodeMemorySystem(specs, "n")
        agent = NodeAgent(
            engine, node, TieredMemoryManager(specs), metrics,
            cores=4, chunk_size=KiB(64),
        )
        agent.start_task(spec)
        with invariants.session(InvariantChecker()):
            engine.run(until=500.0)
        assert metrics.get("drift").done
