"""Workflow substrate: access patterns, task specs, DAGs, ensembles, and
the paper's four evaluation workloads."""

from .dag import Workflow, chain_workflow, diamond_workflow, fan_out_workflow
from .ensembles import make_ensemble, paper_batch, scaled_mix
from .library import (
    PAPER_MIX_FIG10,
    checkpointing_task,
    data_compression_task,
    data_mining_task,
    deep_learning_task,
    paper_workload_suite,
    scientific_task,
    with_shared_input,
)
from .profiles import describe, expected_touched_bytes
from .serialization import (
    dump_specs,
    dump_workflow,
    load_specs,
    load_workflow,
    spec_from_dict,
    spec_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from .patterns import (
    AccessPattern,
    DriftingHotSpotPattern,
    HotColdPattern,
    StreamingPattern,
    UniformPattern,
    ZipfPattern,
    hot_cold_weights,
    streaming_weights,
    zipf_weights,
)
from .task import DynamicRequest, SharedInput, TaskPhase, TaskSpec, WorkloadClass

__all__ = [
    "Workflow",
    "chain_workflow",
    "diamond_workflow",
    "fan_out_workflow",
    "make_ensemble",
    "paper_batch",
    "scaled_mix",
    "PAPER_MIX_FIG10",
    "data_compression_task",
    "data_mining_task",
    "deep_learning_task",
    "paper_workload_suite",
    "scientific_task",
    "AccessPattern",
    "DriftingHotSpotPattern",
    "HotColdPattern",
    "StreamingPattern",
    "UniformPattern",
    "ZipfPattern",
    "hot_cold_weights",
    "streaming_weights",
    "zipf_weights",
    "DynamicRequest",
    "SharedInput",
    "checkpointing_task",
    "with_shared_input",
    "TaskPhase",
    "TaskSpec",
    "WorkloadClass",
    "dump_specs",
    "dump_workflow",
    "load_specs",
    "load_workflow",
    "spec_from_dict",
    "spec_to_dict",
    "workflow_from_dict",
    "workflow_to_dict",
    "describe",
    "expected_touched_bytes",
]
