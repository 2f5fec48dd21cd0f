"""SLURM-like scheduler tests: queueing, placement, backfill, lifecycle."""

import pytest

from repro.containers.image import ContainerImage, ImageRegistry
from repro.containers.runtime import ContainerRuntime, NetworkFabric
from repro.memory.system import NodeMemorySystem
from repro.policies.linux import LinuxSwapPolicy
from repro.resilience import InvariantViolation
from repro.runtime.node_agent import NodeAgent
from repro.scheduler.job import JobState
from repro.scheduler.slurm import SlurmScheduler
from repro.util.units import GBps, MiB

from conftest import CHUNK, simple_task, small_specs


def make_sched(engine, metrics, n_nodes=2, cores=4):
    agents = [
        NodeAgent(
            engine,
            NodeMemorySystem(small_specs(dram=MiB(64), cxl=MiB(256)), f"n{i}"),
            LinuxSwapPolicy(scan_noise=0.0),
            metrics,
            cores=cores,
            chunk_size=CHUNK,
        )
        for i in range(n_nodes)
    ]
    reg = ImageRegistry()
    reg.add(ContainerImage("default.sif", MiB(100)))
    fabric = NetworkFabric(engine, GBps(1.0))
    containers = ContainerRuntime(engine, reg, fabric, n_nodes, instantiation_time=0.1)
    return SlurmScheduler(engine, agents, containers, metrics), agents


class TestSubmission:
    def test_job_runs_and_completes(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        job = sched.submit(simple_task("t", footprint=MiB(1), base_time=2.0))
        sched.run_to_completion()
        assert job.state is JobState.DONE
        tm = metrics.get("t")
        assert tm.done
        assert tm.queue_wait == 0.0
        assert tm.startup_time > 0  # image pull + instantiation

    def test_batch_all_complete(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        jobs = sched.submit_batch(
            [simple_task(f"t{i}", footprint=MiB(1), base_time=1.0) for i in range(6)]
        )
        sched.run_to_completion()
        assert all(j.state is JobState.DONE for j in jobs)
        assert len(metrics.completed()) == 6

    def test_on_done_callback(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        done = []
        sched.submit(simple_task("t", base_time=1.0), on_done=lambda j: done.append(j.name))
        sched.run_to_completion()
        assert done == ["t"]


class TestPlacement:
    def test_least_loaded_spreads_jobs(self, engine, metrics):
        sched, agents = make_sched(engine, metrics, n_nodes=2, cores=4)
        jobs = sched.submit_batch(
            [simple_task(f"t{i}", cores=2, base_time=1.0) for i in range(4)]
        )
        sched.run_to_completion()
        nodes_used = {j.node_index for j in jobs}
        assert nodes_used == {0, 1}

    def test_queueing_when_cores_exhausted(self, engine, metrics):
        sched, _ = make_sched(engine, metrics, n_nodes=1, cores=2)
        jobs = sched.submit_batch(
            [simple_task(f"t{i}", cores=2, base_time=2.0) for i in range(3)]
        )
        # only one can hold the node at a time; the rest wait
        assert sched.pending_count == 2
        sched.run_to_completion()
        waits = [metrics.get(f"t{i}").queue_wait for i in range(3)]
        assert max(waits) > 0

    def test_backfill_lets_small_jobs_jump(self, engine, metrics):
        sched, _ = make_sched(engine, metrics, n_nodes=1, cores=4)
        sched.submit(simple_task("big0", cores=4, base_time=2.0))
        sched.submit(simple_task("big1", cores=4, base_time=2.0))  # must wait
        small = sched.submit(simple_task("small", cores=1, base_time=1.0))
        # small cannot start either (cores full), but when big0 ends the
        # pump considers the whole queue
        sched.run_to_completion()
        assert small.state is JobState.DONE

    def test_oversized_job_never_fits(self, engine, metrics):
        sched, _ = make_sched(engine, metrics, n_nodes=1, cores=2)
        sched.submit(simple_task("huge", cores=16))
        with pytest.raises(Exception, match="deadlock"):
            sched.run_to_completion()


class TestFailureHandling:
    def test_failed_task_marks_job_failed(self, engine, metrics):
        sched, agents = make_sched(engine, metrics, n_nodes=1)
        # shrink the node's memory so the job cannot be backed at all
        small_node = NodeMemorySystem(
            small_specs(dram=CHUNK, pmem=0, cxl=0, swap=CHUNK), "tiny"
        )
        agents[0].memory = small_node
        agents[0].context.memory = small_node
        job = sched.submit(simple_task("doomed", footprint=MiB(8)))
        sched.run_to_completion()
        assert job.state is JobState.FAILED
        assert metrics.get("doomed").failed

    def test_all_done_reads_the_finished_count(self, engine, metrics, checked):
        sched, _ = make_sched(engine, metrics)
        for i in range(3):
            sched.submit(simple_task(f"t{i}", base_time=1.0 + i))
        sched.run_to_completion()  # the checker recounts at every job's end
        assert sched.finished_jobs == 3 and sched.all_done
        sched.finished_jobs -= 1
        assert not sched.all_done
        with pytest.raises(InvariantViolation, match="finished-job drift"):
            checked.scheduler(sched)

    def test_all_done_property(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        assert sched.all_done  # vacuously
        sched.submit(simple_task("t", base_time=1.0))
        assert not sched.all_done
        sched.run_to_completion()
        assert sched.all_done
