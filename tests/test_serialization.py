"""Workload JSON round-trip tests."""

import json

import numpy as np
import pytest

from repro.workflows.dag import diamond_workflow
from repro.workflows.library import (
    checkpointing_task,
    paper_workload_suite,
    scientific_task,
    with_shared_input,
)
from repro.workflows.patterns import (
    HotColdPattern,
    StreamingPattern,
    UniformPattern,
    ZipfPattern,
)
from repro.workflows.serialization import (
    dump_specs,
    dump_workflow,
    load_specs,
    load_workflow,
    pattern_from_dict,
    pattern_to_dict,
    spec_from_dict,
    spec_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from repro.util.units import MiB

from conftest import simple_task


class TestPatternRoundTrip:
    @pytest.mark.parametrize(
        "pattern",
        [
            HotColdPattern(0.2, 0.85),
            ZipfPattern(1.1),
            StreamingPattern(0.3),
            UniformPattern(),
            ZipfPattern(0.9).permuted(seed=7),
        ],
        ids=lambda p: type(p).__name__,
    )
    def test_roundtrip_preserves_weights(self, pattern):
        back = pattern_from_dict(pattern_to_dict(pattern))
        assert np.allclose(back.weights(64, 2), pattern.weights(64, 2))

    def test_unknown_type_rejected(self):
        with pytest.raises(Exception, match="unknown pattern"):
            pattern_from_dict({"type": "fractal"})


class TestSpecRoundTrip:
    def test_simple_spec(self):
        spec = simple_task("t", footprint=MiB(2))
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    @pytest.mark.parametrize("builder_key", ["DL", "DM", "DC", "SC"])
    def test_paper_workloads_roundtrip(self, builder_key):
        from repro.workflows.task import WorkloadClass

        suite = paper_workload_suite(0.01)
        spec = suite[WorkloadClass[builder_key]]
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    def test_dynamic_request_roundtrip(self):
        spec = scientific_task(scale=0.01, request_extra=True)
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    def test_checkpoint_release_regions_roundtrip(self):
        spec = checkpointing_task(scale=0.01, checkpoints=2)
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    def test_shared_inputs_and_limit_roundtrip(self):
        from dataclasses import replace

        spec = with_shared_input(simple_task("t", footprint=MiB(2)), "data", MiB(8))
        spec = replace(spec, memory_limit=MiB(4))
        back = spec_from_dict(spec_to_dict(spec))
        assert back == spec

    def test_dump_load_specs_json(self):
        specs = list(paper_workload_suite(0.01).values())
        text = dump_specs(specs)
        json.loads(text)  # valid JSON
        assert load_specs(text) == specs


class TestWorkflowRoundTrip:
    def test_diamond(self):
        wf = diamond_workflow(
            "d",
            simple_task("pre"),
            [simple_task("b1"), simple_task("b2")],
            simple_task("post"),
        )
        back = load_workflow(dump_workflow(wf))
        assert back.name == wf.name
        assert set(back.edges()) == set(wf.edges())
        assert back.spec("b1") == wf.spec("b1")
        assert back.stages() == wf.stages()

    def test_workflow_dict_edges_sorted(self):
        wf = diamond_workflow(
            "d", simple_task("pre"), [simple_task("b1")], simple_task("post")
        )
        data = workflow_to_dict(wf)
        assert data["edges"] == sorted(data["edges"])
        workflow_from_dict(data).validate()
