"""JSON (de)serialization of workloads and workflows.

Lets users define task specs and DAGs in version-controlled JSON instead
of Python — the usual interchange a workflow team wants — with exact
round-tripping of patterns, phases, flags, dynamic requests, shared
inputs, and memory limits.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from ..core.flags import parse_flags
from ..util.errors import WorkflowError
from .dag import Workflow
from .patterns import (
    AccessPattern,
    DriftingHotSpotPattern,
    HotColdPattern,
    PermutedPattern,
    StreamingPattern,
    UniformPattern,
    ZipfPattern,
)
from .task import DynamicRequest, SharedInput, TaskPhase, TaskSpec, WorkloadClass

__all__ = [
    "pattern_to_dict",
    "pattern_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "workflow_to_dict",
    "workflow_from_dict",
    "dump_workflow",
    "load_workflow",
    "dump_specs",
    "load_specs",
]

_PATTERN_TYPES: dict[str, type] = {
    "hot-cold": HotColdPattern,
    "zipf": ZipfPattern,
    "streaming": StreamingPattern,
    "uniform": UniformPattern,
    "drifting-hotspot": DriftingHotSpotPattern,
}


def pattern_to_dict(pattern: AccessPattern) -> dict[str, Any]:
    if isinstance(pattern, PermutedPattern):
        return {
            "type": "permuted",
            "seed": pattern.seed,
            "inner": pattern_to_dict(pattern.inner),
        }
    for name, cls in _PATTERN_TYPES.items():
        if type(pattern) is cls:
            return {"type": name, **asdict(pattern)}
    raise WorkflowError(f"cannot serialize pattern type {type(pattern).__name__}")


def pattern_from_dict(data: dict[str, Any]) -> AccessPattern:
    data = dict(data)
    kind = data.pop("type", None)
    if kind == "permuted":
        return PermutedPattern(pattern_from_dict(data["inner"]), seed=data["seed"])
    cls = _PATTERN_TYPES.get(kind)
    if cls is None:
        raise WorkflowError(f"unknown pattern type {kind!r}")
    return cls(**data)


def _phase_to_dict(phase: TaskPhase) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": phase.name,
        "base_time": phase.base_time,
        "compute_frac": phase.compute_frac,
        "lat_frac": phase.lat_frac,
        "bw_frac": phase.bw_frac,
        "demand_bandwidth": phase.demand_bandwidth,
        "pattern": pattern_to_dict(phase.pattern),
        "touched_fraction": phase.touched_fraction,
    }
    if phase.allocate is not None:
        out["allocate"] = {
            "nbytes": phase.allocate.nbytes,
            "flags": phase.allocate.flags.label,
        }
    if phase.release_region is not None:
        out["release_region"] = phase.release_region
    return out


def _phase_from_dict(data: dict[str, Any]) -> TaskPhase:
    data = dict(data)
    data["pattern"] = pattern_from_dict(data["pattern"])
    alloc = data.pop("allocate", None)
    if alloc is not None:
        data["allocate"] = DynamicRequest(alloc["nbytes"], parse_flags(alloc["flags"]))
    return TaskPhase(**data)


def spec_to_dict(spec: TaskSpec) -> dict[str, Any]:
    out: dict[str, Any] = {
        "name": spec.name,
        "wclass": spec.wclass.name,
        "footprint": spec.footprint,
        "wss": spec.wss,
        "phases": [_phase_to_dict(p) for p in spec.phases],
        "flags": spec.flags.label,
        "image": spec.image,
        "cores": spec.cores,
        "dynamic_headroom": spec.dynamic_headroom,
    }
    if spec.shared_inputs:
        out["shared_inputs"] = [
            {"name": s.name, "nbytes": s.nbytes} for s in spec.shared_inputs
        ]
    if spec.memory_limit is not None:
        out["memory_limit"] = spec.memory_limit
    return out


def spec_from_dict(data: dict[str, Any]) -> TaskSpec:
    data = dict(data)
    data["wclass"] = WorkloadClass[data["wclass"]]
    data["phases"] = tuple(_phase_from_dict(p) for p in data["phases"])
    data["flags"] = parse_flags(data.get("flags", "NONE"))
    data["shared_inputs"] = tuple(
        SharedInput(s["name"], s["nbytes"]) for s in data.pop("shared_inputs", [])
    )
    return TaskSpec(**data)


def workflow_to_dict(wf: Workflow) -> dict[str, Any]:
    return {
        "name": wf.name,
        "tasks": [spec_to_dict(wf.spec(tid)) for tid in wf.topological_order()],
        "edges": sorted(wf.edges()),
    }


def workflow_from_dict(data: dict[str, Any]) -> Workflow:
    wf = Workflow(data["name"])
    for spec_data in data["tasks"]:
        wf.add_task(spec_from_dict(spec_data))
    for producer, consumer in data.get("edges", []):
        wf.add_dependency(producer, consumer)
    wf.validate()
    return wf


# --------------------------------------------------------------------------- #
# string / file front-ends
# --------------------------------------------------------------------------- #

def dump_workflow(wf: Workflow, indent: int = 2) -> str:
    return json.dumps(workflow_to_dict(wf), indent=indent)


def load_workflow(text: str) -> Workflow:
    return workflow_from_dict(json.loads(text))


def dump_specs(specs: "list[TaskSpec]", indent: int = 2) -> str:
    return json.dumps([spec_to_dict(s) for s in specs], indent=indent)


def load_specs(text: str) -> "list[TaskSpec]":
    return [spec_from_dict(d) for d in json.loads(text)]
