"""Extension experiment — shared read-only inputs on CXL (§III-C5 strat. 1).

An ensemble of data-mining instances all read the same input dataset
(e.g. the census data of the paper's DM workload).  Under IMME the dataset
is staged once in cluster-shared CXL and referenced by every instance;
every other environment gives each instance a private copy, multiplying
the memory footprint and the pressure-induced slowdown.

This isolates the shared-memory strategy the Fig. 10/11 results bundle
into their startup/exec improvements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..envs.environments import EnvKind
from ..scenarios.build import realize
from ..scenarios.paper import ext_shared_inputs_family
from ..scenarios.spec import ScenarioSpec
from ..util.errors import SchedulingError
from ..util.units import GiB
from .common import CHUNK, SCALE, FigureResult, SweepSpec, family_provenance, sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.store import ResultCache

__all__ = ["run_shared_inputs"]


def _shared_inputs_cell(scenario: ScenarioSpec) -> list[float]:
    """[mean DM exec, peak resident MiB, staged copies] for one environment.

    Samples cluster residency in the engine's stop check, i.e. between
    every two events, which :meth:`Environment.run_batch` cannot do.
    """
    realized = realize(scenario)
    env, members = realized.env, realized.tasks
    env.scheduler.submit_batch(members)
    peak_resident = 0

    def done() -> bool:
        nonlocal peak_resident
        resident = sum(
            node.rss(t) for node in env.topology.nodes for t in (0, 1, 2)
        )
        peak_resident = max(peak_resident, resident)
        return env.scheduler.all_done

    if not env.engine.run(stop=done):
        raise SchedulingError("deadlock: jobs unfinished with no events pending")
    metrics = env.metrics
    copies = (
        1.0
        if env.shared_memory is not None and env.shared_memory.stage_count >= 1
        else float(len(members))
    )
    env.stop()
    return [
        metrics.mean_execution_time("DM"),
        peak_resident / (1 << 20),
        copies,
    ]


def run_shared_inputs(
    *,
    scale: float = SCALE,
    instances: int = 8,
    input_bytes: int | None = None,
    chunk_size: int = CHUNK,
    seed: int = 0,
    jobs: int = 1,
    cache: "ResultCache | None" = None,
) -> FigureResult:
    family = ext_shared_inputs_family(
        scale=scale,
        instances=instances,
        input_bytes=input_bytes,
        chunk_size=chunk_size,
        seed=seed,
    )
    shown_bytes = input_bytes if input_bytes is not None else max(1, int(GiB(16) * scale))
    result = FigureResult(
        figure="ext-shared-inputs",
        description=(
            f"Shared-input extension: {instances} DM instances reading one "
            f"{shown_bytes >> 20} MiB dataset"
        ),
        xlabels=["exec time (s)", "resident bytes (MiB)", "staged copies"],
        provenance=family_provenance(family, seed),
    )
    spec = SweepSpec("ext-shared-inputs", base_seed=seed)
    for scenario in family:
        spec.add_scenario(_shared_inputs_cell, scenario)
    for key, series in sweep(spec, jobs=jobs, cache=cache).items():
        result.add_series(key, series)
    saved = result.value(EnvKind.TME.name, "resident bytes (MiB)") - result.value(
        EnvKind.IMME.name, "resident bytes (MiB)"
    )
    result.notes.append(
        f"IMME stages the dataset once, saving ~{saved:.0f} MiB of per-node "
        "residency and the associated pressure"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run_shared_inputs().to_table())
