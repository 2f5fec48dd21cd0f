"""``Workflow`` against networkx, the library it was first built on.

Each test makes the same calls on a :class:`Workflow` and on a
``networkx.DiGraph``-backed reference, then pins every traversal, the
serialized form and the accept/reject decision of every
``add_dependency`` to the reference.  Skipped where networkx is not
installed (the ``test`` extra installs it).
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import WorkflowError
from repro.workflows import dag
from repro.workflows.dag import Workflow, chain_workflow, diamond_workflow, fan_out_workflow
from repro.workflows.serialization import workflow_to_dict

from conftest import simple_task

nx = pytest.importorskip("networkx")


class NxWorkflow:
    """A workflow kept in a ``networkx.DiGraph``: the same calls, networkx's
    own traversals."""

    def __init__(self, name):
        self.name = name
        self.graph = nx.DiGraph()

    def add_task(self, spec, after=()):
        self.graph.add_node(spec.name, spec=spec)
        for dep in after:
            self.graph.add_edge(dep, spec.name)
        return spec.name

    def add_dependency(self, producer, consumer):
        self.graph.add_edge(producer, consumer)
        if not nx.is_directed_acyclic_graph(self.graph):
            self.graph.remove_edge(producer, consumer)
            raise WorkflowError(f"{producer!r}->{consumer!r} would create a cycle")

    def validate(self):
        pass

    def spec(self, task_id):
        return self.graph.nodes[task_id]["spec"]

    def tasks(self):
        return (self.spec(t) for t in self.graph.nodes)

    def dependencies(self, task_id):
        return tuple(self.graph.predecessors(task_id))

    def dependents(self, task_id):
        return tuple(self.graph.successors(task_id))

    def edges(self):
        return list(self.graph.edges())

    def roots(self):
        return tuple(t for t in self.graph.nodes if self.graph.in_degree(t) == 0)

    def topological_order(self):
        return list(nx.topological_sort(self.graph))

    def stages(self):
        return [sorted(gen) for gen in nx.topological_generations(self.graph)]


def assert_same(wf, ref):
    assert [s.name for s in wf.tasks()] == [s.name for s in ref.tasks()]
    assert wf.topological_order() == ref.topological_order()
    assert wf.stages() == ref.stages()
    assert wf.roots() == ref.roots()
    assert wf.edges() == ref.edges()
    for spec in ref.tasks():
        assert wf.dependencies(spec.name) == ref.dependencies(spec.name)
        assert wf.dependents(spec.name) == ref.dependents(spec.name)
    assert workflow_to_dict(wf) == workflow_to_dict(ref)


@st.composite
def build_calls(draw):
    """Tasks under shuffled names, each after a random list (repeats
    allowed) of earlier tasks, interleaved with ``add_dependency`` calls
    between any two tasks so far: forward edges, repeated edges, edges
    that would close a cycle, and self-loops."""
    n = draw(st.integers(1, 12))
    names = draw(st.permutations([f"t{i}" for i in range(n)]))
    calls = []
    for i, name in enumerate(names):
        after = draw(st.lists(st.sampled_from(names[:i]), max_size=4)) if i else []
        calls.append(("task", name, after))
        for _ in range(draw(st.integers(0, 3))):
            ends = st.sampled_from(names[: i + 1])
            calls.append(("edge", draw(ends), draw(ends)))
    return calls


def replay(calls, wf, specs):
    """Make ``calls`` on ``wf``; returns whether each edge was accepted."""
    accepted = []
    for kind, a, b in calls:
        if kind == "task":
            wf.add_task(specs[a], after=b)
            continue
        try:
            wf.add_dependency(a, b)
        except WorkflowError:
            accepted.append(False)
        else:
            accepted.append(True)
    return accepted


@settings(max_examples=150, deadline=None)
@given(build_calls())
def test_random_dags_match_networkx(calls):
    specs = {name: simple_task(name) for kind, name, _ in calls if kind == "task"}
    wf, ref = Workflow("w"), NxWorkflow("w")
    assert replay(calls, wf, specs) == replay(calls, ref, specs)
    assert_same(wf, ref)


def _both(helper, *args):
    """``helper`` run as is, and run on the networkx reference."""
    with mock.patch.object(dag, "Workflow", NxWorkflow):
        ref = helper(*args)
    return helper(*args), ref


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 8))
def test_chain_matches_networkx(n):
    specs = [simple_task(f"s{i}") for i in range(n)]
    assert_same(*_both(chain_workflow, "c", specs))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 8))
def test_fan_out_matches_networkx(n):
    members = [simple_task(f"m{i}") for i in range(n)]
    assert_same(*_both(fan_out_workflow, "f", simple_task("src"), members))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 8))
def test_diamond_matches_networkx(n):
    branches = [simple_task(f"b{i}") for i in range(n)]
    assert_same(
        *_both(diamond_workflow, "d", simple_task("pre"), branches, simple_task("post"))
    )
