"""Fault-injection subsystem: specs, schedules, evacuation, requeue,
pull retries, and the injector's end-to-end recovery guarantees."""

import numpy as np
import pytest

from repro.containers.image import ContainerImage, ImageRegistry
from repro.containers.runtime import ContainerRuntime, NetworkFabric
from repro.core.manager import TieredMemoryManager
from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultSpec
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.metrics.collector import MetricsRegistry
from repro.runtime.node_agent import NodeAgent
from repro.scheduler.job import JobState
from repro.scheduler.slurm import SlurmScheduler
from repro.sim.trace import Tracer
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB

from conftest import CHUNK, make_pageset, simple_task, small_specs

#: every fault test runs under the strict invariant checker, which also
#: validates each agent's node memory on every daemon tick
pytestmark = pytest.mark.usefixtures("checked")


def make_registry(image_size):
    reg = ImageRegistry()
    reg.add(ContainerImage("img.sif", image_size))
    return reg


# --------------------------------------------------------------------------- #
# spec / schedule
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_tiered_kinds_require_tier(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.TIER_OFFLINE, time=1.0)

    def test_swap_cannot_fail(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.TIER_OFFLINE, time=1.0, tier=SWAP)

    def test_severity_is_a_fraction(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(FaultKind.TASK_STRAGGLER, time=0.0, severity=1.5)

    def test_schedule_sorts_by_time(self):
        sched = FaultSchedule(
            [
                FaultSpec(FaultKind.NODE_CRASH, time=9.0, node=0),
                FaultSpec(FaultKind.NODE_CRASH, time=1.0, node=1),
            ]
        )
        assert [f.time for f in sched] == [1.0, 9.0]
        sched.add(FaultSpec(FaultKind.NODE_CRASH, time=4.0, node=2))
        assert [f.time for f in sched] == [1.0, 4.0, 9.0]
        assert sched.kinds() == {"node-crash": 3}


# --------------------------------------------------------------------------- #
# tier offline / degradation (memory system)
# --------------------------------------------------------------------------- #
class TestTierOffline:
    def test_evacuates_to_survivors(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), PMEM)
        evacuated, stranded = node.offline_tier(PMEM)
        assert evacuated == MiB(1)
        assert stranded == {}
        assert node.rss(PMEM) == 0
        assert not node.tier_online(PMEM)
        assert node.capacity(PMEM) == 0
        node.validate()

    def test_offline_tier_refuses_placement(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.offline_tier(PMEM)
        from repro.util.errors import AllocationError

        with pytest.raises(AllocationError, match="offline"):
            node.place(ps, np.arange(ps.n_chunks), PMEM)

    def test_strands_when_nothing_fits(self):
        # survivors too small: DRAM 128K, CXL 128K, swap 128K for a 1 MiB set
        specs = small_specs(dram=KiB(128), pmem=MiB(2), cxl=KiB(128), swap=KiB(128))
        node = NodeMemorySystem(specs, "strand")
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), PMEM)
        evacuated, stranded = node.offline_tier(PMEM)
        assert "a" in stranded
        assert evacuated == KiB(128) * 3  # every survivor filled first
        node.validate()

    def test_idempotent_and_reversible(self, node):
        assert node.offline_tier(CXL) == (0, {})
        assert node.offline_tier(CXL) == (0, {})  # second call is a no-op
        node.online_tier(CXL)
        assert node.tier_online(CXL)
        assert node.capacity(CXL) > 0

    def test_dram_offline_drops_page_cache(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), PMEM)
        node.add_page_cache_shadow(ps, np.arange(4))
        assert node.page_cache_used > 0
        node.offline_tier(DRAM)
        assert node.page_cache_used == 0
        node.validate()

    def test_degradation_scales_health(self, node):
        assert node.tier_health().tolist() == [1.0, 1.0, 1.0, 1.0]
        node.set_tier_degraded(CXL, 0.25)
        assert node.tier_health()[int(CXL)] == 0.25
        node.offline_tier(PMEM)
        assert node.tier_health()[int(PMEM)] == 0.0
        node.clear_tier_degradation(CXL)
        node.online_tier(PMEM)
        assert node.tier_health().tolist() == [1.0, 1.0, 1.0, 1.0]


# --------------------------------------------------------------------------- #
# node agent crash / restore
# --------------------------------------------------------------------------- #
def make_agent(engine, metrics, *, cores=4, specs=None, policy=None):
    specs = specs if specs is not None else small_specs()
    node = NodeMemorySystem(specs, "n0")
    return NodeAgent(
        engine,
        node,
        policy if policy is not None else TieredMemoryManager(specs),
        metrics,
        cores=cores,
        chunk_size=CHUNK,
    )


def oom_prone_task(name="t0"):
    """A CBE-style victim: dynamic growth under a tight memory cap."""
    from dataclasses import replace

    from repro.core.flags import MemFlag
    from repro.workflows.task import DynamicRequest

    spec = simple_task(name, footprint=MiB(1), n_phases=2)
    phases = list(spec.phases)
    phases[1] = replace(
        phases[1], allocate=DynamicRequest(MiB(1) // 2, MemFlag.CAP)
    )
    return replace(
        spec,
        phases=tuple(phases),
        image="img.sif",
        memory_limit=int(MiB(1) * 1.1),
    )


class TestNodeCrash:
    def test_crash_kills_running_tasks(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t0", footprint=MiB(1)))
        engine.run(until=1.0)
        assert agent.crash() == 1
        assert agent.down
        assert not agent.running
        assert agent.cores_used == 0
        assert metrics.get("t0").failed
        assert metrics.faults.tasks_interrupted == 1
        assert not agent.can_host(simple_task("t1"))

    def test_crash_releases_memory(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t0", footprint=MiB(1)))
        engine.run(until=1.0)
        agent.crash()
        assert sum(agent.memory.rss(t) for t in (DRAM, PMEM, CXL, SWAP)) == 0
        agent.memory.validate()

    def test_crash_is_idempotent_and_restorable(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.crash()
        assert agent.crash() == 0
        agent.restore()
        assert not agent.down
        agent.start_task(simple_task("t1", footprint=MiB(1)))
        engine.run(until=60.0)
        assert metrics.get("t1").done

    def test_interrupted_flag_distinguishes_fault_from_oom(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t0", footprint=MiB(1)))
        engine.run(until=1.0)
        assert te.interrupt("chaos") is True
        assert te.interrupted
        assert te.interrupt("chaos") is False  # already dead

    def test_tier_offline_handler_recomputes_and_traces(self, engine, metrics):
        tracer = Tracer(["fault"])
        agent = make_agent(engine, metrics)
        agent.tracer = tracer
        agent.start_task(simple_task("t0", footprint=MiB(1)))
        engine.run(until=1.0)
        agent.handle_tier_offline(PMEM)
        events = tracer.events("fault")
        assert any(e.data.get("event") == "tier-offline" for e in events)
        agent.handle_tier_online(PMEM)
        assert agent.memory.tier_online(PMEM)


# --------------------------------------------------------------------------- #
# scheduler requeue / drain
# --------------------------------------------------------------------------- #
def make_cluster(engine, metrics, *, n_nodes=2, cores=4, max_retries=2,
                 retry_backoff=1.0, image_size=KiB(64), policy_factory=None):
    registry = make_registry(image_size)
    fabric = NetworkFabric(engine)
    containers = ContainerRuntime(
        engine, registry, fabric, n_nodes, metrics=metrics,
        pull_retry_backoff=0.5,
    )
    specs = small_specs()
    if policy_factory is None:
        policy_factory = TieredMemoryManager
    agents = [
        NodeAgent(
            engine,
            NodeMemorySystem(specs, f"n{i}"),
            policy_factory(specs),
            metrics,
            cores=cores,
            chunk_size=CHUNK,
            node_index=i,
        )
        for i in range(n_nodes)
    ]
    scheduler = SlurmScheduler(
        engine, agents, containers, metrics,
        max_retries=max_retries, retry_backoff=retry_backoff,
    )
    return scheduler, agents, containers


def task_with_image(name, **kw):
    from dataclasses import replace

    return replace(simple_task(name, footprint=MiB(1), **kw), image="img.sif")


class TestSchedulerRequeue:
    def test_node_failure_requeues_to_survivor(self, engine, metrics):
        scheduler, agents, _ = make_cluster(engine, metrics)
        job = scheduler.submit(task_with_image("t0"))
        engine.run(until=2.0)
        assert job.state is JobState.RUNNING
        crashed = job.node_index
        scheduler.node_failed(crashed)
        assert job.retries == 1
        assert scheduler.requeues == 1
        assert metrics.faults.job_requeues == 1
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.DONE
        assert job.node_index != crashed  # the dead node stayed drained
        assert metrics.get("t0").done
        assert metrics.get("t0").retries == 1

    def test_retries_exhausted_fails_job(self, engine, metrics):
        scheduler, agents, _ = make_cluster(
            engine, metrics, max_retries=1, retry_backoff=0.5
        )
        job = scheduler.submit(task_with_image("t0"))

        def crash_current_node() -> None:
            if job.state is JobState.RUNNING:
                i = job.node_index
                scheduler.node_failed(i)
                scheduler.node_restored(i)

        # kill the job's node every 2 s until its retry budget is gone
        for t in (2.0, 6.0, 10.0):
            engine.schedule(t, crash_current_node, "chaos")
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.FAILED
        assert job.retries == 1
        assert metrics.faults.retries_exhausted == 1
        tm = metrics.get("t0")
        assert tm.failed and "retries exhausted" in tm.failure_reason

    def test_oom_kill_is_not_requeued(self, engine, metrics):
        from repro.policies.linux import LinuxSwapPolicy

        # CBE-style cluster: the dynamic CAP request lands in charged
        # local memory and trips the cgroup — terminal, never requeued
        scheduler, _, _ = make_cluster(
            engine, metrics, policy_factory=lambda specs: LinuxSwapPolicy()
        )
        job = scheduler.submit(oom_prone_task("t0"))
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.FAILED
        assert job.retries == 0
        assert scheduler.requeues == 0
        assert metrics.get("t0").oom_kills == 1

    def test_drain_undrain(self, engine, metrics):
        scheduler, agents, _ = make_cluster(engine, metrics, n_nodes=2)
        scheduler.drain(0)
        scheduler.drain(1)
        job = scheduler.submit(task_with_image("t0"))
        engine.run(until=5.0)
        assert job.state is JobState.PENDING  # nowhere to go
        scheduler.undrain(0)
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.DONE
        assert job.node_index == 0

    def test_starting_job_requeued_on_node_crash(self, engine, metrics):
        # crash while the image pull is still in flight: the stale
        # container-ready callback must not double-start the job
        scheduler, agents, _ = make_cluster(engine, metrics, image_size=MiB(64))
        job = scheduler.submit(task_with_image("t0"))
        assert job.state is JobState.STARTING
        scheduler.node_failed(job.node_index)
        assert job.retries == 1
        scheduler.run_to_completion(max_time=1e6)
        assert job.state is JobState.DONE


# --------------------------------------------------------------------------- #
# container pull retries / CXL fallback
# --------------------------------------------------------------------------- #
class _FailFirstN:
    """Deterministic rng stub: first ``n`` draws fail, then all succeed."""

    def __init__(self, n):
        self.n = n

    def random(self):
        self.n -= 1
        return 0.0 if self.n >= 0 else 1.0


class TestPullRetries:
    def test_transient_failure_retries_then_succeeds(self, engine, metrics):
        scheduler, _, containers = make_cluster(engine, metrics)
        containers.set_pull_failures(0.99, _FailFirstN(2))
        job = scheduler.submit(task_with_image("t0"))
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.DONE
        assert containers.pull_retries == 2
        assert metrics.faults.pull_retries == 2
        assert containers.failed_pulls == 0

    def test_exhausted_pulls_requeue_job(self, engine, metrics):
        scheduler, _, containers = make_cluster(
            engine, metrics, max_retries=0
        )
        containers.set_pull_failures(0.99, _FailFirstN(1000))
        job = scheduler.submit(task_with_image("t0"))
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.FAILED
        assert containers.failed_pulls >= 1
        assert metrics.faults.retries_exhausted == 1

    def test_cxl_link_down_falls_back_to_network(self, engine, metrics):
        from repro.core.sharing import SharedMemoryManager
        from repro.memory.topology import SharedCXLPool

        registry = make_registry(KiB(64))
        fabric = NetworkFabric(engine)
        shm = SharedMemoryManager(SharedCXLPool(MiB(64)), 1)
        containers = ContainerRuntime(
            engine, registry, fabric, 1, shared_memory=shm, metrics=metrics
        )
        containers.stage_image("img.sif")
        done = []
        containers.set_node_cxl(0, False)
        containers.prepare(0, "img.sif", lambda: done.append(1))
        engine.run(until=1e4)
        assert done == [1]
        assert containers.cxl_reads == 0
        assert containers.network_pulls == 1
        assert containers.pull_fallbacks == 1
        assert metrics.faults.pull_fallbacks == 1
        # link back up: next node-cache-miss prepare reads from CXL
        containers.set_node_cxl(0, True)


# --------------------------------------------------------------------------- #
# injector end-to-end
# --------------------------------------------------------------------------- #
class TestInjector:
    def test_straggler_slows_then_recovers(self, engine, metrics):
        scheduler, agents, containers = make_cluster(engine, metrics, n_nodes=1)
        job = scheduler.submit(task_with_image("t0", base_time=100.0))
        engine.run(until=2.0)
        schedule = FaultSchedule(
            [FaultSpec(FaultKind.TASK_STRAGGLER, time=2.0, node=0,
                       duration=10.0, severity=0.5)]
        )
        injector = FaultInjector(
            engine, agents, scheduler, containers, metrics, schedule
        )
        injector.start()
        engine.run(until=4.0)
        te = agents[0].running["t0"]
        assert te.rate_scale == 0.5
        assert metrics.faults.injected.get("task-straggler") == 1
        engine.run(until=20.0)
        assert te.rate_scale == 1.0  # recovered
        assert len(metrics.faults.recovery_times) == 1
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.DONE

    def test_node_crash_fault_recovers_cluster(self, engine, metrics):
        scheduler, agents, containers = make_cluster(engine, metrics, n_nodes=1)
        job = scheduler.submit(task_with_image("t0", base_time=30.0))
        schedule = FaultSchedule(
            [FaultSpec(FaultKind.NODE_CRASH, time=3.0, node=0, duration=5.0)]
        )
        tracer = Tracer(["fault"])
        injector = FaultInjector(
            engine, agents, scheduler, containers, metrics, schedule,
            tracer=tracer,
        )
        injector.start()
        scheduler.run_to_completion(max_time=1e5)
        assert job.state is JobState.DONE
        assert job.retries == 1
        assert metrics.faults.injected == {"node-crash": 1}
        assert metrics.faults.mttr == pytest.approx(5.0)
        subjects = {e.data.get("event") for e in tracer.events("fault")}
        assert {"injected", "recovered"} <= subjects

    def test_inapplicable_fault_is_skipped(self, engine, metrics):
        scheduler, agents, containers = make_cluster(engine, metrics, n_nodes=1)
        agents[0].memory.offline_tier(CXL)
        schedule = FaultSchedule(
            [FaultSpec(FaultKind.CXL_LINK_FLAP, time=0.0, node=0)]
        )
        injector = FaultInjector(
            engine, agents, scheduler, containers, metrics, schedule
        )
        injector.inject_now(schedule[0])
        assert injector.fired == 0
        assert metrics.faults.total_injected == 0

    def test_oom_kill_emits_trace_event(self, engine, metrics):
        from repro.policies.linux import LinuxSwapPolicy

        tracer = Tracer(["oom"])
        agent = make_agent(engine, metrics, policy=LinuxSwapPolicy())
        agent.tracer = tracer
        agent.start_task(oom_prone_task("t0"))
        engine.run(until=1e4)
        events = tracer.events("oom")
        assert len(events) == 1
        assert events[0].data["event"] == "oom-kill"
        assert metrics.get("t0").oom_kills == 1
        assert metrics.get("t0").failed
