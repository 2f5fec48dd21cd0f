"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment follows the same recipe: build a workload (instances of
the four studied workflows), size the environments relative to the
workload's aggregate footprint (the ratios are what the policies react
to, so laptop-scale runs preserve the paper's shape), run each
environment, and extract per-class means.

``SCALE`` defaults to 1/64 of the paper's memory sizes; the figure
functions accept overrides so tests can run smaller still.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .. import obs
from ..envs.environments import EnvKind, Environment
from ..memory.tiers import TierKind, TierSpec
from ..metrics.collector import MetricsRegistry
from ..metrics.report import format_table
from ..parallel import map_ordered
from ..policies.base import MemoryPolicy
from ..resilience import SweepFailure
from ..scenarios.build import environment_for_tasks, realize
from ..scenarios.spec import (
    DEFAULT_CHUNK,
    DEFAULT_SCALE,
    ScenarioSpec,
    TierSizing,
    WorkloadSpec,
)
from ..scenarios.workloads import CLASS_ORDER, colocated_mix_tasks
from ..util.rng import derive_seed
from ..util.validation import require
from ..workflows.task import TaskSpec, WorkloadClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.store import ResultCache
    from ..scenarios.spec import ScenarioFamily

__all__ = [
    "SCALE",
    "CHUNK",
    "CLASS_ORDER",
    "FigureResult",
    "SweepCell",
    "SweepSpec",
    "cell_cache_key",
    "sweep",
    "colocated_mix",
    "build_env",
    "family_provenance",
    "run_and_collect",
    "scenario_class_times",
    "scenario_makespan",
    "per_class_exec_time",
    "per_class_faults",
]

#: default memory scale relative to the paper's testbed sizes
#: (canonical definition: :data:`repro.scenarios.spec.DEFAULT_SCALE`)
SCALE = DEFAULT_SCALE
#: default chunk size for scaled-down runs (4 MiB at full scale)
CHUNK = DEFAULT_CHUNK


@dataclass
class FigureResult:
    """One experiment's output: named series over shared x-labels."""

    figure: str
    description: str
    xlabels: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: originating-scenario metadata (family name, scenario digest, seed);
    #: emitted with every export so a result file names its inputs
    provenance: dict[str, str] = field(default_factory=dict)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        require(len(values) == len(self.xlabels), "series length must match xlabels")
        self.series[name] = [float(v) for v in values]

    def value(self, series: str, xlabel: str) -> float:
        return self.series[series][self.xlabels.index(xlabel)]

    def to_table(self, float_fmt: str = "{:.2f}") -> str:
        headers = [self.figure] + self.xlabels
        rows = [[name] + vals for name, vals in self.series.items()]
        body = format_table(headers, rows, title=self.description, float_fmt=float_fmt)
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        if self.provenance:
            body += "\n" + "\n".join(
                f"  provenance: {k}={v}" for k, v in sorted(self.provenance.items())
            )
        return body

    def to_csv(self) -> str:
        """Comma-separated export (series per row, header = xlabels).

        Values are written plain (no ``repr`` wrapping) so the file
        round-trips through any standard CSV reader via ``float()``.
        Provenance, when attached, is appended as ``#``-prefixed comment
        rows that standard readers can skip.
        """
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.figure] + self.xlabels)
        for name, vals in self.series.items():
            writer.writerow([name] + list(vals))
        for key in sorted(self.provenance):
            writer.writerow([f"# {key}", self.provenance[key]])
        return buf.getvalue()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_table()


# --------------------------------------------------------------------------- #
# parallel sweeps
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SweepCell:
    """One independent unit of a sweep: a picklable top-level callable plus
    keyword arguments.  Cells rebuild their own specs/environments from
    plain inputs, so they are hermetic and can run in any process.

    ``scenario`` names the :class:`~repro.scenarios.ScenarioSpec` the cell
    realizes (when it realizes one); its digest becomes part of the cache
    content key so scenario edits invalidate exactly their own cells.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    scenario: Optional[ScenarioSpec] = None

    def run(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass
class SweepSpec:
    """An ordered collection of independent cells sharing one base seed.

    Per-cell seeds come from :func:`~repro.util.rng.derive_seed` over
    ``"{sweep name}/{cell key}"``, so adding or reordering cells never
    perturbs the draws of existing ones — the same contract
    :class:`~repro.util.rng.RngFactory` gives named streams within a run.
    """

    name: str
    base_seed: int = 0
    cells: list[SweepCell] = field(default_factory=list)

    def cell_seed(self, key: str) -> int:
        """Deterministic seed for the cell named ``key``."""
        return derive_seed(self.base_seed, f"{self.name}/{key}")

    def add(
        self,
        key: str,
        fn: Callable[..., Any],
        *,
        scenario: Optional[ScenarioSpec] = None,
        **kwargs: Any,
    ) -> SweepCell:
        """Append a cell; duplicate keys are rejected to keep results addressable."""
        require(all(c.key != key for c in self.cells), f"duplicate cell key {key!r}")
        cell = SweepCell(key, fn, kwargs, scenario=scenario)
        self.cells.append(cell)
        return cell

    def add_scenario(
        self,
        fn: Callable[..., Any],
        scenario: ScenarioSpec,
        *,
        key: Optional[str] = None,
        **kwargs: Any,
    ) -> SweepCell:
        """Add a scenario-driven cell: keyed by the spec's member name
        (overridable via ``key`` when one spec feeds several cells), the
        spec passed to ``fn`` as the ``scenario`` kwarg and folded into the
        cache content key."""
        key = key if key is not None else scenario.member
        require(
            all(c.key != key for c in self.cells), f"duplicate cell key {key!r}"
        )
        cell = SweepCell(
            key, fn, {"scenario": scenario, **kwargs}, scenario=scenario
        )
        self.cells.append(cell)
        return cell

    def add_seeded(self, key: str, fn: Callable[..., Any], **kwargs: Any) -> SweepCell:
        """Like :meth:`add`, injecting the derived per-cell ``seed`` kwarg."""
        return self.add(key, fn, seed=self.cell_seed(key), **kwargs)


def _run_sweep_cell(cell: SweepCell) -> Any:
    with obs.span("sweep.cell", key=cell.key):
        return cell.run()


def cell_cache_key(spec: SweepSpec, cell: SweepCell):
    """The cell's :class:`~repro.cache.CacheKey`, or ``None`` when some
    kwarg has no canonical form (the cell then always runs live)."""
    from ..cache.keys import CacheKeyError, cell_keys

    try:
        return cell_keys(
            cell.fn,
            cell.kwargs,
            seed=spec.cell_seed(cell.key),
            extra={"sweep": spec.name, "cell": cell.key, "base_seed": spec.base_seed},
            scenario=cell.scenario,
        )
    except CacheKeyError:
        return None


def sweep(
    spec: SweepSpec,
    *,
    jobs: Optional[int] = None,
    cache: "Optional[ResultCache]" = None,
) -> dict[str, Any]:
    """Run every cell of ``spec`` and return ``{key: result}`` in cell order.

    ``jobs`` follows :func:`~repro.parallel.resolve_jobs` (``None``/1 →
    in-process, 0 → all cores).  Collection order is the cell order
    regardless of which worker finished first, so downstream tables are
    byte-identical to a sequential run.

    With a ``cache`` (:class:`~repro.cache.ResultCache`), cells whose
    stored result is still valid are served without running; only the
    misses execute, and each result is written back atomically from this
    process as its cell completes.

    Cells run through :func:`~repro.parallel.map_ordered`, one attempt
    each: every cell runs, then the first failing cell's own exception
    propagates as-is, and a cell whose worker died raises
    :class:`~repro.resilience.SweepFailure` naming it.
    """
    with obs.span("sweep", sweep=spec.name, cells=len(spec.cells)):
        try:
            results = map_ordered(
                _run_sweep_cell,
                spec.cells,
                jobs=jobs,
                cache=cache,
                cache_key=None if cache is None else partial(cell_cache_key, spec),
            )
        except SweepFailure as exc:
            # map_ordered names cells by position: cell0, cell1, ...
            names = {f"cell{i}": cell.key for i, cell in enumerate(spec.cells)}
            raise SweepFailure(
                [replace(f, key=names[f.key]) for f in exc.failures]
            ) from None
    return {cell.key: res for cell, res in zip(spec.cells, results)}


# --------------------------------------------------------------------------- #
# workload construction
# --------------------------------------------------------------------------- #

def colocated_mix(
    instances_per_class: "int | Mapping[WorkloadClass, int]" = 2,
    *,
    scale: float = SCALE,
    seed: int = 0,
    classes: Sequence[WorkloadClass] = CLASS_ORDER,
) -> list[TaskSpec]:
    """N jittered instances of each studied workflow, submission-shuffled
    deterministically so no class systematically allocates first.

    Thin wrapper over the scenario layer's named ``colocated-mix``
    builder — the single implementation both paths share.
    """
    return colocated_mix_tasks(
        instances_per_class, scale=scale, seed=seed, classes=tuple(classes)
    )


def total_footprint(specs: Sequence[TaskSpec]) -> int:
    return sum(s.max_footprint for s in specs)


# --------------------------------------------------------------------------- #
# environment construction & execution
# --------------------------------------------------------------------------- #

def build_env(
    kind: EnvKind,
    specs: Sequence[TaskSpec],
    *,
    dram_fraction: float = 0.35,
    n_nodes: int = 1,
    chunk_size: int = CHUNK,
    cxl_fraction: Optional[float] = None,
    policy_factory: Optional[Callable[[dict[TierKind, TierSpec]], MemoryPolicy]] = None,
    ideal_headroom: float = 1.5,
    cores_per_node: int = 64,
    daemon_interval: float = 1.0,
    dram_per_node: Optional[int] = None,
) -> Environment:
    """Size an environment relative to the workload.

    Constrained environments get ``dram_fraction`` x the aggregate
    footprint of DRAM *per cluster* (split across nodes); the Ideal
    Environment gets ``ideal_headroom`` x so nothing ever swaps.
    ``dram_per_node`` overrides both — the fixed-hardware scaling of the
    cluster experiments (each added server brings its own 512 GB).

    Thin wrapper over the scenario layer: the sizing knobs become an
    ad-hoc :class:`~repro.scenarios.ScenarioSpec` realized against the
    already-built workload, so harness and scenario paths share one
    environment-construction pipeline.  ``policy_factory`` stays a raw
    callable escape hatch; registered scenarios use policy *names*.
    """
    fraction = ideal_headroom if kind is EnvKind.IE else dram_fraction
    spec = ScenarioSpec(
        name=f"adhoc/{kind.name}",
        env=kind,
        workload=WorkloadSpec(),  # unused: tasks are supplied directly
        sizing=TierSizing(dram_fraction=fraction, dram_per_node=dram_per_node),
        n_nodes=n_nodes,
        cores_per_node=cores_per_node,
        chunk_size=chunk_size,
        daemon_interval=daemon_interval,
        cxl_fraction=cxl_fraction,
    )
    return environment_for_tasks(spec, specs, policy_factory=policy_factory)


def family_provenance(family: "ScenarioFamily", seed: Optional[int] = None) -> dict[str, str]:
    """Self-describing export metadata for a result produced from ``family``."""
    out = {"scenario_family": family.name, "scenario_digest": family.digest()}
    if seed is not None:
        out["seed"] = str(seed)
    return out


def run_and_collect(env: Environment, specs: Sequence[TaskSpec]) -> MetricsRegistry:
    metrics = env.run_batch(specs, max_time=1e7)
    env.stop()
    return metrics


# --------------------------------------------------------------------------- #
# generic scenario cells
# --------------------------------------------------------------------------- #
#
# Top-level (picklable) sweep cells shared by the harnesses whose per-cell
# result is a standard extraction.  The cell's whole input is the spec, so
# the cache addresses these purely by scenario digest.

def scenario_class_times(scenario: ScenarioSpec) -> list[float]:
    """Realize ``scenario``, run it, and return the per-class mean
    execution times in :data:`CLASS_ORDER`."""
    times = per_class_exec_time(realize(scenario).execute())
    return [times[cls] for cls in CLASS_ORDER]


def scenario_makespan(scenario: ScenarioSpec) -> float:
    """Realize ``scenario``, run it, and return the batch makespan."""
    return float(realize(scenario).execute().makespan())


# --------------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------------- #

def per_class_exec_time(metrics: MetricsRegistry) -> dict[WorkloadClass, float]:
    out = {}
    for cls in CLASS_ORDER:
        done = [t.execution_time for t in metrics.completed() if t.wclass == cls.name]
        if done:
            out[cls] = float(np.mean(done))
    return out


def per_class_faults(metrics: MetricsRegistry) -> dict[WorkloadClass, tuple[int, int]]:
    return {cls: metrics.total_faults(cls.name) for cls in CLASS_ORDER}
