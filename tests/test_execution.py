"""Task-execution and node-agent integration tests on a single node."""

import numpy as np
import pytest

from repro.core.flags import MemFlag
from repro.core.manager import TieredMemoryManager
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import DRAM, SWAP
from repro.policies.linux import LinuxSwapPolicy
from repro.runtime.execution import TaskState
from repro.runtime.node_agent import NodeAgent
from repro.util.units import GBps, MiB
from repro.workflows.patterns import HotColdPattern
from repro.workflows.task import DynamicRequest, TaskPhase, TaskSpec, WorkloadClass

from conftest import CHUNK, simple_task, small_specs

#: every agent here runs under the strict invariant checker, which
#: validates its node's memory on each daemon tick
pytestmark = pytest.mark.usefixtures("checked")


def make_agent(engine, metrics, policy=None, **spec_kw):
    specs = small_specs(**spec_kw)
    node = NodeMemorySystem(specs, "n0")
    policy = policy if policy is not None else LinuxSwapPolicy(scan_noise=0.0)
    return NodeAgent(engine, node, policy, metrics, cores=8, chunk_size=CHUNK)


class TestLifecycle:
    def test_task_runs_to_completion_at_ideal_speed(self, engine, metrics):
        agent = make_agent(engine, metrics)
        spec = simple_task("t", footprint=MiB(1), base_time=10.0)
        te = agent.start_task(spec)
        engine.run(until=100.0)
        assert te.state is TaskState.DONE
        tm = metrics.get("t")
        # all-DRAM fit: finishes in ~base_time
        assert tm.finished_at == pytest.approx(10.0, rel=0.05)

    def test_memory_released_after_completion(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(2)))
        engine.run(until=100.0)
        assert agent.memory.used(DRAM) == 0
        assert agent.memory.get_pageset("t") is None

    def test_cores_accounting(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", cores=3))
        assert agent.cores_free == 5
        engine.run(until=100.0)
        assert agent.cores_free == 8

    def test_duplicate_name_rejected(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t"))
        with pytest.raises(Exception):
            agent.start_task(simple_task("t"))

    def test_no_cores_rejected(self, engine, metrics):
        agent = make_agent(engine, metrics)
        with pytest.raises(Exception):
            agent.start_task(simple_task("t", cores=99))

    def test_on_finish_callback(self, engine, metrics):
        agent = make_agent(engine, metrics)
        done = []
        agent.start_task(simple_task("t"), on_finish=lambda te: done.append(te.spec.name))
        engine.run(until=100.0)
        assert done == ["t"]

    def test_multi_phase_durations_recorded(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", n_phases=3, base_time=5.0))
        engine.run(until=100.0)
        tm = metrics.get("t")
        assert len(tm.phase_durations) == 3
        assert sum(tm.phase_durations) == pytest.approx(15.0, rel=0.05)


class TestContention:
    def test_colocated_bandwidth_contention_slows_tasks(self, engine, metrics):
        agent = make_agent(engine, metrics)
        # two tasks each demanding more than half the DRAM bandwidth
        for i in range(2):
            agent.start_task(
                simple_task(
                    f"t{i}",
                    footprint=MiB(1),
                    base_time=10.0,
                    lat_frac=0.0,
                    bw_frac=0.8,
                    demand_bandwidth=GBps(80.0),
                )
            )
        engine.run(until=200.0)
        for i in range(2):
            tm = metrics.get(f"t{i}")
            assert tm.execution_time > 11.0  # visibly slower than ideal

    def test_solo_task_not_slowed(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(
            simple_task(
                "solo", base_time=10.0, lat_frac=0.0, bw_frac=0.8,
                demand_bandwidth=GBps(80.0),
            )
        )
        engine.run(until=100.0)
        assert metrics.get("solo").execution_time == pytest.approx(10.0, rel=0.05)

    def test_rates_recover_when_rival_finishes(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(
            simple_task("short", base_time=5.0, bw_frac=0.8, lat_frac=0.0,
                        demand_bandwidth=GBps(80)))
        agent.start_task(
            simple_task("long", base_time=20.0, bw_frac=0.8, lat_frac=0.0,
                        demand_bandwidth=GBps(80)))
        engine.run(until=200.0)
        short = metrics.get("short").execution_time
        long_ = metrics.get("long").execution_time
        # the long task was contended only while the short one ran
        assert long_ < short / 5.0 * 20.0


class TestMemoryPressure:
    def test_oversubscribed_dram_swaps_and_slows(self, engine, metrics):
        agent = make_agent(engine, metrics, dram=MiB(2))
        spec = simple_task("big", footprint=MiB(4), base_time=10.0, lat_frac=0.6, bw_frac=0.1)
        agent.start_task(spec)
        engine.run(until=5000.0)
        tm = metrics.get("big")
        assert tm.execution_time > 12.0  # swap-resident pages hurt
        assert agent.memory.stats.swapped_out_bytes > 0

    def test_fault_in_records_major_faults(self, engine, metrics):
        agent = make_agent(engine, metrics, dram=MiB(2))
        agent.start_task(simple_task("a", footprint=MiB(2), n_phases=2, base_time=3.0))
        agent.start_task(simple_task("b", footprint=MiB(2), n_phases=2, base_time=3.0))
        engine.run(until=5000.0)
        majors = sum(metrics.get(n).major_faults for n in ("a", "b"))
        assert majors > 0

    def test_failure_when_even_swap_exhausted(self, engine, metrics):
        agent = make_agent(engine, metrics, dram=MiB(1), swap=MiB(1), pmem=0, cxl=0)
        te = agent.start_task(simple_task("huge", footprint=MiB(8)))
        engine.run(until=10.0)
        assert te.state is TaskState.FAILED
        tm = metrics.get("huge")
        assert tm.failed
        assert agent.memory.get_pageset("huge") is None
        assert agent.cores_free == 8


class TestDynamicAllocation:
    def test_phase_allocate_expands_footprint(self, engine, metrics):
        agent = make_agent(engine, metrics)
        phases = (
            TaskPhase("p0", base_time=2.0, compute_frac=0.5, lat_frac=0.3, bw_frac=0.2,
                      pattern=HotColdPattern()),
            TaskPhase("p1", base_time=2.0, compute_frac=0.5, lat_frac=0.3, bw_frac=0.2,
                      pattern=HotColdPattern(), allocate=DynamicRequest(MiB(1), MemFlag.CAP)),
        )
        spec = TaskSpec("dyn", WorkloadClass.GENERIC, MiB(1), MiB(1), phases)
        te = agent.start_task(spec)
        engine.run(until=3.0)
        assert te.pageset.mapped_bytes == MiB(2)
        engine.run(until=100.0)
        assert te.state is TaskState.DONE


class TestManagerIntegration:
    def test_imme_agent_runs_flagged_task(self, engine, metrics):
        specs = small_specs()
        node = NodeMemorySystem(specs, "n0")
        agent = NodeAgent(
            engine, node, TieredMemoryManager(specs), metrics,
            cores=8, chunk_size=CHUNK,
        )
        te = agent.start_task(
            simple_task("lat-task", footprint=MiB(1), flags=MemFlag.LAT | MemFlag.SHL)
        )
        engine.run(until=100.0)
        assert te.state is TaskState.DONE
        # predictor learned the execution for future runs
        assert agent.policy.predictor.store.get("lat-task") is not None
