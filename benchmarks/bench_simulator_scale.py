"""Simulator-scalability benchmarks.

How far the substrate itself scales: raw engine throughput, and a
paper-scale run — the full Fig. 10 2000-instance class mix on an 8-node
IMME cluster — in one wall-clock measurement.
"""

import pytest

from repro.envs.environments import EnvKind
from repro.experiments.common import build_env, run_and_collect
from repro.sim.engine import SimulationEngine
from repro.util.rng import RngFactory
from repro.workflows.ensembles import paper_batch


def bare_events(n):
    """A chain of ``n`` schedule+fire cycles on an empty engine; the run
    returns the number fired."""

    def run():
        engine = SimulationEngine()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < n:
                engine.schedule(1.0, tick)

        engine.schedule(1.0, tick)
        engine.run()
        return count

    return run


def test_engine_event_throughput(benchmark):
    """Raw DES throughput: schedule+fire cycles per second."""
    assert benchmark(bare_events(20_000)) == 20_000


@pytest.mark.parametrize("instances", [200])
def test_paper_scale_mix(benchmark, instances):
    """A Fig-10-class run: ``instances`` tasks in the paper's mix on 8
    IMME nodes.  The assertion is completeness; the benchmark value is
    the simulator's wall-clock cost at scale."""

    specs = paper_batch(instances, scale=1 / 64, rng_factory=RngFactory(0))

    def run():
        env = build_env(EnvKind.IMME, specs, dram_fraction=0.30, n_nodes=8)
        metrics = run_and_collect(env, specs)
        return metrics

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(metrics.completed()) == len(specs)
    print(
        f"\n{instances} instances on 8 nodes: simulated "
        f"makespan {metrics.makespan():.0f}s"
    )
