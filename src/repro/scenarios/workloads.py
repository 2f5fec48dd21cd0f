"""Named workload builders — the serializable face of task construction.

A :class:`~repro.scenarios.spec.WorkloadSpec` names one of the builders
registered here; the builder turns the spec's plain-data fields into the
actual :class:`~repro.workflows.task.TaskSpec` batch.  Builders are
deterministic functions of ``(spec, seed)`` so scenario cells stay
hermetic: any process that holds the spec reconstructs the byte-identical
workload.  Open-loop arrivals are not a workload: a scenario's
:class:`~repro.service.spec.ServiceSpec` describes them, and
:mod:`repro.service` generates them lazily.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from ..core.flags import MemFlag
from ..util.rng import RngFactory
from ..util.units import GBps, GiB
from ..util.validation import require
from ..workflows.ensembles import make_ensemble, paper_batch
from ..workflows.library import (
    data_compression_task,
    data_mining_task,
    deep_learning_task,
    paper_workload_suite,
    scientific_task,
    with_shared_input,
)
from ..workflows.patterns import HotColdPattern, UniformPattern
from ..workflows.task import TaskPhase, TaskSpec, WorkloadClass
from .spec import WorkloadSpec

__all__ = [
    "CLASS_ORDER",
    "VALIDATION_MIXES",
    "WORKLOAD_SOURCES",
    "build_workload",
    "colocated_mix_tasks",
    "predictor_probe_task",
    "validation_probe_task",
    "workload_sources",
]

CLASS_ORDER = (WorkloadClass.DL, WorkloadClass.DM, WorkloadClass.DC, WorkloadClass.SC)

_Builder = Callable[[WorkloadSpec, int], List[TaskSpec]]


def _class_counts(w: WorkloadSpec, default: int = 0) -> dict:
    counts = w.mix()
    return counts if counts else {cls: default for cls in CLASS_ORDER}


def colocated_mix_tasks(
    instances_per_class,
    *,
    scale: float,
    seed: int = 0,
    classes=CLASS_ORDER,
) -> List[TaskSpec]:
    """N jittered instances of each studied workflow, submission-shuffled
    deterministically so no class systematically allocates first."""
    suite = paper_workload_suite(scale)
    factory = RngFactory(seed)
    specs: List[TaskSpec] = []
    for cls in classes:
        n = instances_per_class if isinstance(instances_per_class, int) else (
            instances_per_class.get(cls, 0)
        )
        if n > 0:
            specs.extend(make_ensemble(suite[cls], n, rng_factory=factory))
    order = factory.stream("submission-order").permutation(len(specs))
    return [specs[i] for i in order]


def _colocated_mix(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    counts = _class_counts(w, default=2)
    return colocated_mix_tasks(counts, scale=w.scale, seed=seed)


def _paper_batch(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    require(w.total_instances > 0, "paper-batch needs total_instances > 0")
    mix = w.mix() or None
    return paper_batch(
        w.total_instances, scale=w.scale, mix=mix, rng_factory=RngFactory(seed)
    )


def _class_ensemble(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    """``instances`` jittered members of one class; ``request_extra``
    builds the mid-run-expansion SC variant and ``limit_margin`` caps each
    member's ``memory_limit`` at ``footprint x (1 + margin)`` (ext-failures)."""
    require(bool(w.wclass), "class-ensemble needs wclass")
    require(w.instances > 0, "class-ensemble needs instances > 0")
    cls = WorkloadClass[w.wclass]
    if cls is WorkloadClass.SC and w.param("request_extra", False):
        base = scientific_task(scale=w.scale, request_extra=True)
    else:
        base = paper_workload_suite(w.scale)[cls]
    members = make_ensemble(base, w.instances, rng_factory=RngFactory(seed))
    margin = w.param("limit_margin")
    if margin is not None:
        members = [
            replace(m, memory_limit=int(m.footprint * (1.0 + float(margin))))
            for m in members
        ]
    return members


def _library_task(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    """A single un-jittered instance of one studied workflow."""
    require(bool(w.wclass), "library-task needs wclass")
    cls = WorkloadClass[w.wclass]
    return [paper_workload_suite(w.scale)[cls]]


def _shared_input(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    """DM instances all reading one staged dataset (§III-C5 strategy 1)."""
    require(w.instances > 0, "shared-input needs instances > 0")
    input_bytes = int(w.param("input_bytes", 0)) or max(1, int(GiB(16) * w.scale))
    base = data_mining_task(scale=w.scale)
    members = [
        with_shared_input(m, str(w.param("dataset", "census-dataset")), input_bytes)
        for m in make_ensemble(base, w.instances, rng_factory=RngFactory(seed))
    ]
    return members


def _decomposition(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    """Two big multi-phase jobs plus a DM stream (ext-decomposition);
    the big jobs come first so harnesses can split them back out."""
    dm_instances = int(w.param("dm_instances", 6))
    big_jobs = [
        deep_learning_task("big-dl", scale=w.scale, epochs=int(w.param("epochs", 3))),
        data_compression_task("big-dc", scale=w.scale),
    ]
    dm_stream = make_ensemble(
        data_mining_task(scale=w.scale), dm_instances, rng_factory=RngFactory(seed)
    )
    return big_jobs + dm_stream


def _service_background(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    """Colocated jobs a service stream arrives on top of.

    ``instances_per_class`` names the long-lived background mix (all
    submitted at t=0); an empty mix means a pure open-loop run where the
    stream is the only load.  Only meaningful inside a service scenario —
    executed as a batch it is just a colocated mix (or a no-op).
    """
    counts = w.mix()
    if not counts:
        return []
    return colocated_mix_tasks(counts, scale=w.scale, seed=seed)


#: validation matrix sensitivity mixes: label -> (compute, lat, bw, demand B/s)
VALIDATION_MIXES: Dict[str, Tuple[float, float, float, float]] = {
    "compute": (1.0, 0.0, 0.0, 0.0),
    "latency": (0.3, 0.7, 0.0, 0.0),
    "bandwidth": (0.3, 0.0, 0.7, GBps(60.0)),
    "blend": (0.4, 0.4, 0.2, GBps(10.0)),
}


def validation_probe_task(name: str, mix: str, *, footprint: int) -> TaskSpec:
    """A single-phase task with a known closed-form slowdown (validation)."""
    compute, lat, bw, demand = VALIDATION_MIXES[mix]
    return TaskSpec(
        name=name,
        wclass=WorkloadClass.GENERIC,
        footprint=footprint,
        wss=footprint,
        phases=(
            TaskPhase(
                name="steady",
                base_time=20.0,
                compute_frac=compute,
                lat_frac=lat,
                bw_frac=bw,
                demand_bandwidth=demand,
                pattern=UniformPattern(),
            ),
        ),
        flags=MemFlag.NONE,
        cores=1,
    )


def _validation_probe(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    from ..util.units import MiB

    mix = str(w.param("mix", "compute"))
    require(mix in VALIDATION_MIXES, f"unknown validation mix {mix!r}")
    name = str(w.param("name", f"v-{mix}"))
    return [validation_probe_task(name, mix, footprint=MiB(4))]


def predictor_probe_task(name: str, scale: float) -> TaskSpec:
    """A DM-style task with a large, well-defined hot set and NO flags."""
    footprint = max(1, int(GiB(8) * scale))
    return TaskSpec(
        name=name,
        wclass=WorkloadClass.GENERIC,  # no class default flags either
        footprint=footprint,
        wss=int(footprint * 0.75),
        phases=(
            TaskPhase(
                name="lookup",
                base_time=12.0,
                compute_frac=0.30,
                lat_frac=0.65,
                bw_frac=0.05,
                demand_bandwidth=GBps(2.0),
                pattern=HotColdPattern(hot_fraction=0.40, hot_share=0.90),
            ),
        ),
        flags=MemFlag.NONE,
        cores=2,
    )


def _predictor_probes(w: WorkloadSpec, seed: int) -> List[TaskSpec]:
    runs = int(w.param("runs", 4))
    require(runs > 0, "predictor-probes needs runs > 0")
    return [predictor_probe_task(f"probe-{i}", w.scale) for i in range(runs)]


WORKLOAD_SOURCES: Dict[str, _Builder] = {
    "colocated-mix": _colocated_mix,
    "paper-batch": _paper_batch,
    "class-ensemble": _class_ensemble,
    "library-task": _library_task,
    "shared-input": _shared_input,
    "decomposition": _decomposition,
    "service-background": _service_background,
    "validation-probe": _validation_probe,
    "predictor-probes": _predictor_probes,
}


def workload_sources() -> list[str]:
    return sorted(WORKLOAD_SOURCES)


def build_workload(w: WorkloadSpec, seed: int) -> Tuple[List[TaskSpec], None]:
    """Deterministically realize ``w`` into ``(tasks, None)``.

    The second slot once held per-task arrival times; it stays ``None``
    for callers that unpack a pair (the e2e benchmark harness).
    """
    try:
        builder = WORKLOAD_SOURCES[w.source]
    except KeyError:
        raise KeyError(
            f"unknown workload source {w.source!r}; "
            f"registered sources: {workload_sources()}"
        ) from None
    return builder(w, seed), None
