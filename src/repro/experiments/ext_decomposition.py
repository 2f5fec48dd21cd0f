"""Extension experiment — workflow deconstruction vs monolithic execution.

§I: deconstructed workflows "enable node-level colocation ... and address
stranded memory problems".  Two big multi-phase jobs (DL training, DC
compression) run alongside a stream of latency-sensitive DM work on one
memory-tight node (the registered ``ext-decomposition`` scenario) — once
as monoliths holding their full footprint for their whole lifetime, once
deconstructed into per-phase sub-tasks that only hold what they touch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..scenarios.build import realize
from ..scenarios.paper import ext_decomposition_family
from ..scenarios.spec import ScenarioSpec
from ..util.errors import SchedulingError
from ..wms.decompose import decompose_task
from ..wms.planner import WorkflowManager
from ..workflows.dag import chain_workflow
from .common import CHUNK, SCALE, FigureResult, SweepSpec, family_provenance, sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.store import ResultCache

__all__ = ["run_decomposition"]

_LABELS = (("monolithic", False), ("deconstructed", True))


def _decomposition_cell(scenario: ScenarioSpec, decomposed: bool) -> list[float]:
    """[makespan, mean DM exec, peak big-job MiB] for one execution mode."""
    # the decomposition source puts the two big jobs first in the batch
    realized = realize(scenario)
    env = realized.env
    big_jobs, dm_stream = realized.tasks[:2], realized.tasks[2:]
    mgr = WorkflowManager(env.scheduler)
    peak_big = 0
    if decomposed:
        for spec in big_jobs:
            mgr.submit(decompose_task(spec))
    else:
        for spec in big_jobs:
            mgr.submit(chain_workflow(f"{spec.name}.chain", [spec]))
    for spec in dm_stream:
        env.scheduler.submit(spec)

    def done() -> bool:  # samples between events; nothing is resident before the first
        nonlocal peak_big
        big_resident = sum(
            ps.mapped_bytes
            for node in env.topology.nodes
            for ps in node.pagesets()
            if ps.owner.startswith("big-")
        )
        peak_big = max(peak_big, big_resident)
        return mgr.all_complete and env.scheduler.all_done

    if not env.engine.run(stop=done):
        raise SchedulingError("deadlock: jobs unfinished with no events pending")
    metrics = env.metrics
    dm_times = [t.execution_time for t in metrics.completed() if t.wclass == "DM"]
    out = [metrics.makespan(), float(np.mean(dm_times)), peak_big / (1 << 20)]
    env.stop()
    return out


def run_decomposition(
    *,
    scale: float = SCALE,
    dm_instances: int = 6,
    dram_fraction: float = 0.35,
    chunk_size: int = CHUNK,
    seed: int = 0,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
) -> FigureResult:
    family = ext_decomposition_family(
        scale=scale,
        dm_instances=dm_instances,
        dram_fraction=dram_fraction,
        chunk_size=chunk_size,
        seed=seed,
    )
    result = FigureResult(
        figure="ext-decomposition",
        description=(
            "Workflow deconstruction: big multi-phase jobs + DM stream on a "
            "memory-tight node"
        ),
        xlabels=["makespan (s)", "mean DM exec (s)", "peak big-job bytes (MiB)"],
        provenance=family_provenance(family, seed),
    )
    spec = SweepSpec("ext-decomposition", base_seed=seed)
    for label, decomposed in _LABELS:
        spec.add_scenario(
            _decomposition_cell, family.scenarios[0], key=label, decomposed=decomposed
        )
    for key, series in sweep(spec, jobs=jobs, cache=cache).items():
        result.add_series(key, series)
    saved = result.value("monolithic", "peak big-job bytes (MiB)") - result.value(
        "deconstructed", "peak big-job bytes (MiB)"
    )
    result.notes.append(
        f"deconstruction un-strands ~{saved:.0f} MiB of peak residency for colocation"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run_decomposition().to_table())
