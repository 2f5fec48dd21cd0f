"""Workflow-DAG tests: construction, cycles, traversal, critical path."""

import os
import subprocess
import sys

import pytest

from repro.util.errors import WorkflowError
from repro.workflows.dag import (
    Workflow,
    chain_workflow,
    diamond_workflow,
    fan_out_workflow,
)

from conftest import simple_task


class TestConstruction:
    def test_add_tasks_with_dependencies(self):
        wf = Workflow("w")
        wf.add_task(simple_task("a"))
        wf.add_task(simple_task("b"), after=["a"])
        assert wf.dependencies("b") == ("a",)
        assert wf.dependents("a") == ("b",)
        assert len(wf) == 2

    def test_duplicate_task_rejected(self):
        wf = Workflow("w")
        wf.add_task(simple_task("a"))
        with pytest.raises(WorkflowError, match="duplicate"):
            wf.add_task(simple_task("a"))

    def test_unknown_dependency_rejected(self):
        wf = Workflow("w")
        with pytest.raises(WorkflowError):
            wf.add_task(simple_task("b"), after=["ghost"])

    def test_rejected_add_task_leaves_workflow_unchanged(self):
        wf = Workflow("w")
        wf.add_task(simple_task("a"))
        with pytest.raises(WorkflowError, match="ghost"):
            wf.add_task(simple_task("b"), after=["a", "ghost"])
        assert "b" not in wf
        assert len(wf) == 1
        assert wf.dependents("a") == ()
        assert wf.edges() == []
        wf.add_task(simple_task("b"), after=["a"])  # a retry is not a duplicate
        assert wf.dependents("a") == ("b",)

    def test_cycle_via_add_dependency_rejected(self):
        wf = Workflow("w")
        wf.add_task(simple_task("a"))
        wf.add_task(simple_task("b"), after=["a"])
        with pytest.raises(WorkflowError, match="cycle"):
            wf.add_dependency("b", "a")
        # graph unchanged after the failed edge
        assert wf.dependencies("a") == ()

    def test_contains_and_spec(self):
        wf = Workflow("w")
        spec = simple_task("a")
        wf.add_task(spec)
        assert "a" in wf
        assert wf.spec("a") is spec
        with pytest.raises(WorkflowError):
            wf.spec("nope")

    def test_empty_workflow_invalid(self):
        with pytest.raises(WorkflowError):
            Workflow("w").validate()


class TestTraversal:
    def build_diamond(self):
        return diamond_workflow(
            "d",
            simple_task("pre"),
            [simple_task("b1"), simple_task("b2")],
            simple_task("post"),
        )

    def test_roots(self):
        wf = self.build_diamond()
        assert wf.roots() == ("pre",)

    def test_topological_order_respects_edges(self):
        wf = self.build_diamond()
        order = wf.topological_order()
        assert order.index("pre") < order.index("b1")
        assert order.index("b2") < order.index("post")

    def test_stages(self):
        wf = self.build_diamond()
        assert wf.stages() == [["pre"], ["b1", "b2"], ["post"]]

    def test_critical_path(self):
        wf = self.build_diamond()  # all tasks 10s
        assert wf.critical_path_time() == pytest.approx(30.0)

    def test_total_footprint(self):
        wf = chain_workflow("c", [simple_task("a"), simple_task("b")])
        assert wf.total_footprint == sum(s.footprint for s in wf.tasks())


class TestShapeHelpers:
    def test_chain(self):
        wf = chain_workflow("c", [simple_task(f"t{i}") for i in range(4)])
        assert wf.stages() == [["t0"], ["t1"], ["t2"], ["t3"]]

    def test_fan_out(self):
        wf = fan_out_workflow(
            "f", simple_task("src"), [simple_task(f"m{i}") for i in range(3)]
        )
        assert wf.roots() == ("src",)
        assert set(wf.dependents("src")) == {"m0", "m1", "m2"}

    def test_chain_critical_path_is_sum(self):
        specs = [simple_task(f"t{i}", base_time=5.0) for i in range(3)]
        wf = chain_workflow("c", specs)
        assert wf.critical_path_time() == pytest.approx(15.0)


_WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any import of networkx now fails

from repro.envs.environments import EnvKind, make_environment
from repro.util.units import GiB
from repro.wms.planner import WorkflowManager
from repro.workflows import (
    data_mining_task, diamond_workflow, workflow_from_dict, workflow_to_dict,
)

wf = diamond_workflow(
    "d",
    data_mining_task("pre", scale=0.01),
    [data_mining_task(f"b{i}", scale=0.01) for i in range(2)],
    data_mining_task("post", scale=0.01),
)
back = workflow_from_dict(workflow_to_dict(wf))
env = make_environment(EnvKind.IMME, dram_capacity=GiB(1))
manager = WorkflowManager(env.scheduler)
execution = manager.submit(back)
manager.run_to_completion()
env.stop()
print(back.stages(), execution.succeeded)
"""


def test_builds_round_trips_and_plans_without_networkx():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[['pre'], ['b0', 'b1'], ['post']] True"
