"""Analysis-subpackage tests: replication stats."""

import numpy as np
import pytest

from repro.analysis.stats import ReplicationResult, relative_improvement, replicate
from repro.envs.environments import EnvKind
from repro.util.units import KiB

CHUNK = KiB(64)


class TestReplicationResult:
    def test_mean_std_cv(self):
        r = ReplicationResult("x", (10.0, 12.0, 11.0, 9.0))
        assert r.mean == pytest.approx(10.5)
        assert r.std == pytest.approx(np.std([10, 12, 11, 9], ddof=1))
        assert r.cv == pytest.approx(r.std / r.mean)

    def test_single_value_degenerate(self):
        r = ReplicationResult("x", (5.0,))
        assert r.std == 0.0
        assert r.cv == 0.0
        assert r.ci95() == (5.0, 5.0)

    def test_ci_contains_mean(self):
        r = ReplicationResult("x", tuple(np.linspace(9, 11, 10)))
        lo, hi = r.ci95()
        assert lo < r.mean < hi
        assert hi - lo < 2.0  # tight for low-variance data

    def test_replicate_calls_each_seed(self):
        seen = []

        def fn(seed):
            seen.append(seed)
            return float(seed)

        r = replicate(fn, seeds=(1, 2, 3), label="m")
        assert seen == [1, 2, 3]
        assert r.values == (1.0, 2.0, 3.0)

    def test_relative_improvement(self):
        base = ReplicationResult("b", (10.0, 10.0))
        fast = ReplicationResult("f", (5.0, 5.0))
        assert relative_improvement(base, fast) == pytest.approx(0.5)

    def test_needs_a_seed(self):
        with pytest.raises(Exception):
            replicate(lambda s: 1.0, seeds=())


class TestPaperVarianceClaim:
    def test_cv_under_five_percent_across_seeds(self):
        """§IV-B: <5% variance between executions of the same experiment."""
        from repro.experiments.common import build_env, colocated_mix, run_and_collect
        from repro.workflows import WorkloadClass

        def measure(seed: int) -> float:
            specs = colocated_mix(
                {WorkloadClass.DM: 2, WorkloadClass.SC: 1}, scale=1 / 512, seed=seed
            )
            env = build_env(EnvKind.IMME, specs, dram_fraction=0.3, chunk_size=CHUNK)
            return run_and_collect(env, specs).makespan()

        r = replicate(measure, seeds=(0, 1, 2, 3), label="imme-makespan")
        assert r.cv < 0.05
