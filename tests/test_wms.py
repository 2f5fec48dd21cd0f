"""WMS tests: DAG-ordered submission, failure propagation."""

import pytest

from repro.envs.environments import EnvKind, make_environment
from repro.scheduler.job import JobState
from repro.util.errors import WorkflowError
from repro.util.units import MiB
from repro.wms.planner import WorkflowExecution, WorkflowManager
from repro.workflows.dag import Workflow, chain_workflow, diamond_workflow

from conftest import CHUNK, simple_task
from test_scheduler import make_sched


class TestWorkflowExecution:
    def test_chain_runs_in_order(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        wf = chain_workflow("c", [simple_task(f"s{i}", base_time=1.0) for i in range(3)])
        ex = WorkflowExecution(wf, sched)
        ex.start()
        sched.run_to_completion()
        assert ex.complete and ex.succeeded
        starts = [metrics.get(f"s{i}").started_at for i in range(3)]
        assert starts == sorted(starts)
        ends = [metrics.get(f"s{i}").finished_at for i in range(3)]
        assert starts[1] >= ends[0] and starts[2] >= ends[1]

    def test_diamond_parallel_branches_overlap(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        wf = diamond_workflow(
            "d",
            simple_task("pre", base_time=1.0),
            [simple_task("b1", base_time=4.0), simple_task("b2", base_time=4.0)],
            simple_task("post", base_time=1.0),
        )
        WorkflowManager(sched).submit(wf)
        sched.run_to_completion()
        b1, b2 = metrics.get("b1"), metrics.get("b2")
        # branches ran concurrently (overlap in time)
        assert b1.started_at < b2.finished_at and b2.started_at < b1.finished_at
        assert metrics.get("post").started_at >= max(b1.finished_at, b2.finished_at)

    def test_double_start_rejected(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        wf = chain_workflow("c", [simple_task("a", base_time=1.0)])
        ex = WorkflowExecution(wf, sched)
        ex.start()
        with pytest.raises(WorkflowError):
            ex.start()

    def test_on_complete_callback(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        wf = chain_workflow("c", [simple_task("a", base_time=1.0)])
        completed = []
        ex = WorkflowExecution(wf, sched, on_complete=lambda e: completed.append(e))
        ex.start()
        sched.run_to_completion()
        assert completed == [ex]

    def test_job_of(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        wf = chain_workflow("c", [simple_task("a", base_time=1.0), simple_task("b", base_time=1.0)])
        ex = WorkflowExecution(wf, sched)
        ex.start()
        assert ex.job_of("a").name == "a"
        with pytest.raises(WorkflowError):
            ex.job_of("b")  # not yet submitted (depends on a)


class TestFailurePropagation:
    def test_failed_dependency_blocks_descendants(self, engine, metrics):
        sched, agents = make_sched(engine, metrics, n_nodes=1)
        from repro.memory.system import NodeMemorySystem
        from conftest import small_specs, CHUNK

        tiny = NodeMemorySystem(small_specs(dram=CHUNK, pmem=0, cxl=0, swap=CHUNK), "tiny")
        agents[0].memory = tiny
        agents[0].context.memory = tiny
        wf = Workflow("f")
        wf.add_task(simple_task("doomed", footprint=MiB(8)))
        wf.add_task(simple_task("child", footprint=MiB(8)), after=["doomed"])
        ex = WorkflowExecution(wf, sched)
        ex.start()
        sched.run_to_completion()
        assert ex.complete
        assert not ex.succeeded
        assert ex.job_of("doomed").state is JobState.FAILED
        with pytest.raises(WorkflowError):
            ex.job_of("child")  # never submitted


class TestWorkflowManager:
    def test_multiple_workflows_complete(self, engine, metrics):
        sched, _ = make_sched(engine, metrics)
        mgr = WorkflowManager(sched)
        for k in range(3):
            mgr.submit(
                chain_workflow(f"w{k}", [simple_task(f"w{k}t{i}", base_time=1.0) for i in range(2)])
            )
        mgr.run_to_completion()
        assert mgr.all_complete
        assert len(metrics.completed()) == 6

    def test_drained_engine_before_completion_is_a_deadlock(self, engine, metrics):
        sched, _ = make_sched(engine, metrics, cores=4)
        mgr = WorkflowManager(sched)
        mgr.submit(chain_workflow("w", [simple_task("huge", cores=16), simple_task("next")]))
        with pytest.raises(WorkflowError, match="deadlock"):
            mgr.run_to_completion()

    def test_lazily_submitted_task_no_node_can_hold_ends_the_run(self):
        # the live environment's daemon and sampler ticks never let the
        # engine drain, so the run must stop on the scheduler's record
        # when the first task finishes and submits the second
        env = make_environment(EnvKind.CBE, dram_capacity=MiB(32), chunk_size=CHUNK)
        mgr = WorkflowManager(env.scheduler)
        mgr.submit(chain_workflow("w", [
            simple_task("first", base_time=1.0), simple_task("huge", cores=100_000),
        ]))
        with pytest.raises(
            WorkflowError, match=r"deadlock: job 'huge' needs 100000 cores, the largest node has"
        ):
            mgr.run_to_completion(max_time=500)
        assert env.engine.now == env.metrics.get("first").finished_at
