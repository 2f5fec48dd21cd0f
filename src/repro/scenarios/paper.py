"""The paper's evaluation grid as registered scenario families.

One builder per figure and extension experiment.  Each builder returns a
:class:`~repro.scenarios.spec.ScenarioFamily` and accepts the same
override knobs the corresponding harness exposes (scale, mixes, node
counts, ...), so harnesses declare their grid by calling the builder and
sweeping its members; calling a builder with no arguments yields the
canonical family that importing this module registers in
:data:`~repro.scenarios.registry.REGISTRY`.

Sizing constants mirror the harness defaults they replaced: constrained
environments get a DRAM *fraction* of the workload's aggregate bytes; the
Ideal Environment's fraction is the paper's 1.5x headroom (nothing ever
swaps); the cluster experiments fix per-node DRAM instead, so every added
server brings the same hardware.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

from ..envs.environments import EnvKind
from ..memory.tiers import CXL, DRAM, PMEM
from ..service.spec import ServiceSpec
from ..util.rng import RngFactory
from ..util.units import MiB
from ..workflows.ensembles import paper_batch
from ..workflows.task import WorkloadClass
from .registry import register_family
from .spec import (
    DEFAULT_CHUNK,
    DEFAULT_SCALE,
    ScenarioFamily,
    ScenarioSpec,
    TierSizing,
    WorkloadSpec,
)
from .workloads import CLASS_ORDER, predictor_probe_task

__all__ = [
    "DEFAULT_MIX",
    "IDEAL_HEADROOM",
    "ablations_family",
    "cold_pages_family",
    "ext_colocation_family",
    "ext_decomposition_family",
    "ext_failures_family",
    "ext_open_system_family",
    "ext_predictor_family",
    "ext_resilience_family",
    "ext_shared_inputs_family",
    "ext_steady_state_family",
    "ext_utilization_family",
    "fig01_family",
    "fig05_family",
    "fig06_family",
    "fig07_family",
    "fig08_family",
    "fig09_family",
    "fig10_family",
    "fig11_family",
    "validation_family",
]

#: default colocation mix: instance counts leaning toward the paper's
#: DM-heavy 150:1100:150:600 class ratio, sized so a single node sees real
#: bandwidth contention and memory pressure.
DEFAULT_MIX = {
    WorkloadClass.DL: 6,
    WorkloadClass.DM: 8,
    WorkloadClass.DC: 3,
    WorkloadClass.SC: 4,
}

#: the Ideal Environment's DRAM sizing, as a fraction of the aggregate
#: footprint (> 1: nothing ever swaps)
IDEAL_HEADROOM = 1.5

MixLike = Union[int, Mapping[WorkloadClass, int], Mapping[str, int], None]


def _mix_pairs(instances_per_class: MixLike) -> Tuple[Tuple[str, int], ...]:
    """Harness-style mixes (int, class dict, or None) as spec pairs."""
    if instances_per_class is None:
        instances_per_class = DEFAULT_MIX
    if isinstance(instances_per_class, int):
        return tuple((cls.name, instances_per_class) for cls in CLASS_ORDER)
    return tuple(
        (k.name if isinstance(k, WorkloadClass) else str(k), int(v))
        for k, v in instances_per_class.items()
    )


def _colocated(
    instances_per_class: MixLike, scale: float
) -> WorkloadSpec:
    return WorkloadSpec(
        source="colocated-mix",
        scale=scale,
        instances_per_class=_mix_pairs(instances_per_class),
    )


def _env_fraction(kind: EnvKind, dram_fraction: float) -> TierSizing:
    """Per-environment fraction sizing: IE gets headroom, the rest get
    ``dram_fraction`` — the paper's constrained-vs-ideal contrast."""
    f = IDEAL_HEADROOM if kind is EnvKind.IE else dram_fraction
    return TierSizing(dram_fraction=f)


# --------------------------------------------------------------------------- #
# figures
# --------------------------------------------------------------------------- #

@register_family
def fig01_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: MixLike = None,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(instances_per_class, scale)
    common = dict(
        workload=workload, chunk_size=chunk_size, seed=seed,
        sizing=TierSizing(dram_fraction=dram_fraction),
    )
    return ScenarioFamily(
        name="fig01",
        description="Fig 1: workflow execution time under three memory configurations",
        scenarios=(
            ScenarioSpec("fig01/swap-constrained", EnvKind.CBE, **common),
            ScenarioSpec("fig01/tiered-alloc", EnvKind.TME, policy="tiered-alloc", **common),
            ScenarioSpec("fig01/tiered+migration", EnvKind.TME, **common),
        ),
    )


@register_family
def fig05_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: MixLike = None,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(instances_per_class, scale)
    return ScenarioFamily(
        name="fig05",
        description="Fig 5: mean workflow execution time per environment",
        scenarios=tuple(
            ScenarioSpec(
                f"fig05/{kind.name}",
                kind,
                workload=workload,
                sizing=_env_fraction(kind, dram_fraction),
                chunk_size=chunk_size,
                seed=seed,
            )
            for kind in (EnvKind.IE, EnvKind.CBE, EnvKind.TME, EnvKind.IMME)
        ),
    )


@register_family
def fig06_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: MixLike = None,
    fractions: Tuple[float, ...] = (0.10, 0.20, 0.30, 0.40, 0.50),
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(instances_per_class, scale)
    members = []
    for f in fractions:
        for kind in (EnvKind.TME, EnvKind.IMME):
            members.append(
                ScenarioSpec(
                    f"fig06/{kind.name}:{int(f * 100)}",
                    kind,
                    workload=workload,
                    sizing=TierSizing(dram_fraction=dram_fraction),
                    chunk_size=chunk_size,
                    seed=seed,
                    # TME places the share obliviously; IMME picks pages itself
                    cxl_fraction=f if kind is EnvKind.TME else None,
                )
            )
    return ScenarioFamily(
        name="fig06",
        description="Fig 6: mean normalised slowdown vs CXL share of workflow memory",
        scenarios=tuple(members),
    )


@register_family
def fig07_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: MixLike = None,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(instances_per_class, scale)
    common = dict(
        workload=workload, chunk_size=chunk_size, seed=seed,
        sizing=TierSizing(dram_fraction=dram_fraction),
    )
    variants = (
        ("default-alloc", EnvKind.TME, "default-alloc"),
        ("uniform-interleave", EnvKind.TME, "uniform-interleave"),
        ("weighted-interleave", EnvKind.TME, "weighted-interleave"),
        ("ours-alg1", EnvKind.IMME, None),
    )
    return ScenarioFamily(
        name="fig07",
        description="Fig 7: mean execution time per allocation policy",
        scenarios=tuple(
            ScenarioSpec(f"fig07/{name}", kind, policy=policy, **common)
            for name, kind, policy in variants
        ),
    )


@register_family
def fig08_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: int = 2,
    fractions: Tuple[float, ...] = (0.25, 0.50, 0.75, 1.00),
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    classes: Sequence[WorkloadClass] = CLASS_ORDER,
) -> ScenarioFamily:
    members = []
    for cls in classes:
        for kind in (EnvKind.IE, EnvKind.TME, EnvKind.IMME):
            for f in fractions:
                members.append(
                    ScenarioSpec(
                        f"fig08/{kind.name}:{cls.name}:{int(f * 100)}",
                        kind,
                        workload=WorkloadSpec(
                            source="class-ensemble",
                            scale=scale,
                            wclass=cls.name,
                            instances=instances_per_class,
                        ),
                        # DRAM capped at a fraction of the aggregate WSS —
                        # here even IE is deliberately starved (the swap
                        # baseline), so no headroom special case
                        sizing=TierSizing(dram_fraction=f, basis="wss"),
                        chunk_size=chunk_size,
                        seed=seed,
                    )
                )
    return ScenarioFamily(
        name="fig08",
        description="Fig 8: makespan vs DRAM as a fraction of working-set size",
        scenarios=tuple(members),
    )


@register_family
def fig09_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances_per_class: MixLike = None,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(instances_per_class, scale)
    return ScenarioFamily(
        name="fig09",
        description="Fig 9: page-fault statistics under the page-movement policy",
        scenarios=tuple(
            ScenarioSpec(
                f"fig09/{kind.name}",
                kind,
                workload=workload,
                sizing=TierSizing(dram_fraction=dram_fraction),
                chunk_size=chunk_size,
                seed=seed,
            )
            for kind in (EnvKind.CBE, EnvKind.TME, EnvKind.IMME)
        ),
    )


def _paper_batch_footprint(total_instances: int, scale: float, seed: int, mix=None) -> int:
    batch = paper_batch(total_instances, scale=scale, mix=mix, rng_factory=RngFactory(seed))
    return sum(s.max_footprint for s in batch)


@register_family
def fig10_family(
    *,
    scale: float = DEFAULT_SCALE,
    total_instances: int = 48,
    node_counts: Tuple[int, ...] = (2, 4, 8),
    dram_fraction: float = 0.30,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = WorkloadSpec(source="paper-batch", scale=scale, total_instances=total_instances)
    total = _paper_batch_footprint(total_instances, scale, seed)
    # fixed per-node hardware, as in the paper: every added server brings
    # the same DRAM, so aggregate memory grows with the cluster
    per_node_dram = int(total * dram_fraction / min(node_counts))
    members = []
    for kind in (EnvKind.IE, EnvKind.CBE, EnvKind.TME, EnvKind.IMME):
        for n in node_counts:
            dram = per_node_dram if kind is not EnvKind.IE else int(total * IDEAL_HEADROOM / n)
            members.append(
                ScenarioSpec(
                    f"fig10/{kind.name}:{n}n",
                    kind,
                    workload=workload,
                    sizing=TierSizing(dram_per_node=dram),
                    n_nodes=n,
                    chunk_size=chunk_size,
                    seed=seed,
                )
            )
    return ScenarioFamily(
        name="fig10",
        description="Fig 10: batch makespan for the paper's class mix vs cluster size",
        scenarios=tuple(members),
    )


@register_family
def fig11_family(
    *,
    scale: float = DEFAULT_SCALE,
    instance_counts: Tuple[int, ...] = (8, 16, 32, 64),
    n_nodes: int = 4,
    dram_fraction: float = 0.30,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    # fixed cluster hardware: per-node DRAM sized against the LARGEST
    # batch, so growing concurrency raises pressure monotonically
    total_max = _paper_batch_footprint(max(instance_counts), scale, seed)
    per_node_dram = int(total_max * dram_fraction / n_nodes)
    ideal_dram = int(total_max * IDEAL_HEADROOM / n_nodes)
    members = []
    for kind in (EnvKind.IE, EnvKind.CBE, EnvKind.TME, EnvKind.IMME):
        for c in instance_counts:
            members.append(
                ScenarioSpec(
                    f"fig11/{kind.name}:{c}",
                    kind,
                    workload=WorkloadSpec(
                        source="paper-batch", scale=scale, total_instances=c
                    ),
                    sizing=TierSizing(
                        dram_per_node=per_node_dram if kind is not EnvKind.IE else ideal_dram
                    ),
                    n_nodes=n_nodes,
                    chunk_size=chunk_size,
                    seed=seed,
                )
            )
    return ScenarioFamily(
        name="fig11",
        description="Fig 11: batch makespan vs concurrent instances on a fixed cluster",
        scenarios=tuple(members),
    )


# --------------------------------------------------------------------------- #
# substrate checks
# --------------------------------------------------------------------------- #

@register_family
def cold_pages_family(
    *,
    scale: float = DEFAULT_SCALE,
    chunk_size: int = DEFAULT_CHUNK,
) -> ScenarioFamily:
    return ScenarioFamily(
        name="cold-pages",
        description="§II-C: fraction of BERT's allocation still idle over time",
        scenarios=(
            ScenarioSpec(
                "cold-pages",
                EnvKind.IE,
                workload=WorkloadSpec(source="library-task", scale=scale, wclass="DL"),
                # DRAM at 2x the footprint: the task runs uncontended
                sizing=TierSizing(dram_fraction=2.0),
                chunk_size=chunk_size,
            ),
        ),
    )


@register_family
def validation_family(*, chunk_size: int = DEFAULT_CHUNK) -> ScenarioFamily:
    members = []
    for tier in (DRAM, PMEM, CXL):
        for mix in ("compute", "latency", "bandwidth", "blend"):
            members.append(
                ScenarioSpec(
                    f"validation/{tier.name}:{mix}",
                    EnvKind.TME,
                    workload=WorkloadSpec(
                        source="validation-probe",
                        params=(("mix", mix), ("name", f"v-{tier.name}-{mix}")),
                    ),
                    # tiny fixed tiers; the probe fits in any one of them
                    sizing=TierSizing(
                        dram_per_node=MiB(64),
                        pmem_capacity=MiB(64),
                        cxl_capacity=MiB(64),
                    ),
                    chunk_size=chunk_size,
                    # pin the whole allocation to `tier` (degenerate policy)
                    policy=f"pin-{tier.name.lower()}",
                    max_time=1e6,
                )
            )
    return ScenarioFamily(
        name="validation",
        description="Simulator validation: closed-form vs simulated slowdowns",
        scenarios=tuple(members),
    )


@register_family
def ablations_family(
    *,
    scale: float = DEFAULT_SCALE,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(None, scale)
    common = dict(
        workload=workload, chunk_size=chunk_size, seed=seed,
        sizing=TierSizing(dram_fraction=dram_fraction),
    )
    variants = (
        # name -> (policy override, stage images override)
        ("full-imme", None, None),
        ("no-proactive", "no-proactive", None),
        ("no-pinning", "no-pinning", None),
        ("no-staging", None, False),
        ("no-striping", "no-striping", None),
    )
    return ScenarioFamily(
        name="ablations",
        description="IMME ablations: one mechanism removed at a time",
        scenarios=tuple(
            ScenarioSpec(
                f"ablations/{name}", EnvKind.IMME,
                policy=policy, stage_images=stage, **common,
            )
            for name, policy, stage in variants
        ),
    )


# --------------------------------------------------------------------------- #
# extension experiments
# --------------------------------------------------------------------------- #

@register_family
def ext_colocation_family(
    *,
    scale: float = DEFAULT_SCALE,
    total_instances: int = 16,
    n_nodes: int = 2,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    # long-job-heavy mix: exclusivity serialises these into waves
    workload = WorkloadSpec(
        source="paper-batch",
        scale=scale,
        total_instances=total_instances,
        instances_per_class=(("DL", 2), ("SC", 6), ("DC", 4), ("DM", 4)),
    )
    common = dict(
        workload=workload,
        sizing=TierSizing(dram_fraction=0.5),
        n_nodes=n_nodes,
        chunk_size=chunk_size,
        seed=seed,
    )
    return ScenarioFamily(
        name="ext-colocation",
        description="Containerized colocation vs bare-metal exclusivity",
        scenarios=(
            ScenarioSpec("ext-colocation/bare-metal", EnvKind.IMME, exclusive=True, **common),
            ScenarioSpec("ext-colocation/containerized", EnvKind.IMME, **common),
        ),
    )


@register_family
def ext_decomposition_family(
    *,
    scale: float = DEFAULT_SCALE,
    dm_instances: int = 6,
    dram_fraction: float = 0.35,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    return ScenarioFamily(
        name="ext-decomposition",
        description="Workflow deconstruction vs monolithic execution",
        scenarios=(
            ScenarioSpec(
                "ext-decomposition",
                EnvKind.IMME,
                workload=WorkloadSpec(
                    source="decomposition",
                    scale=scale,
                    params=(("dm_instances", dm_instances),),
                ),
                sizing=TierSizing(dram_fraction=dram_fraction),
                chunk_size=chunk_size,
                seed=seed,
            ),
        ),
    )


def _capped_sc_workload(
    scale: float, instances: int, limit_margin: float
) -> WorkloadSpec:
    """The memory-capped mid-run-expansion SC ensemble both failure
    experiments share."""
    return WorkloadSpec(
        source="class-ensemble",
        scale=scale,
        wclass="SC",
        instances=instances,
        params=(("limit_margin", limit_margin), ("request_extra", True)),
    )


@register_family
def ext_failures_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances: int = 6,
    limit_margin: float = 0.05,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _capped_sc_workload(scale, instances, limit_margin)
    return ScenarioFamily(
        name="ext-failures",
        description="Workflow failures under fixed memory allocations",
        scenarios=tuple(
            ScenarioSpec(
                f"ext-failures/{kind.name}",
                kind,
                workload=workload,
                # the cap margins matter, not the WSS: size on raw footprint
                sizing=TierSizing(dram_fraction=1.2, basis="footprint"),
                chunk_size=chunk_size,
                seed=seed,
            )
            for kind in (EnvKind.CBE, EnvKind.TME, EnvKind.IMME)
        ),
    )


@register_family
def ext_open_system_family(
    *,
    scale: float = DEFAULT_SCALE,
    rates: Tuple[float, ...] = (0.05, 0.10, 0.20),
    stream_length: int = 12,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    """Open-system DM stream over busy background jobs — the first
    consumer of the service layer: each member is a true open-loop run
    (one pending arrival event, admission hooks, windowed report)."""
    members = []
    for kind in (EnvKind.CBE, EnvKind.IMME):
        for rate in rates:
            members.append(
                ScenarioSpec(
                    f"ext-open-system/{kind.name}:{rate:.2f}",
                    kind,
                    workload=WorkloadSpec(
                        source="service-background",
                        scale=scale,
                        instances_per_class=(("DL", 1), ("SC", 1)),
                    ),
                    sizing=TierSizing(dram_fraction=0.30),
                    service=ServiceSpec(
                        rate=rate,
                        max_arrivals=stream_length,
                        window=100.0,
                        classes=(("DM", 1),),
                        warmup="none",
                        params=(("sizing_copies", 4), ("start", 5.0)),
                    ),
                    chunk_size=chunk_size,
                    seed=seed,
                )
            )
    return ScenarioFamily(
        name="ext-open-system",
        description="Open-system DM stream under increasing offered load",
        scenarios=tuple(members),
    )


@register_family
def ext_steady_state_family(
    *,
    scale: float = DEFAULT_SCALE,
    rates: Tuple[float, ...] = (0.05, 0.10, 0.20, 0.40),
    max_arrivals: int = 400,
    window: float = 100.0,
    sizing_copies: int = 6,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    """Steady-state service mode: baseline vs IMME under rising load.

    Each member drives the cluster as an open-loop service — a DM-heavy
    stream over a DL+SC background — until ``max_arrivals`` have been
    offered, then reports post-warm-up windowed utilization, queue depth,
    and per-class turnaround tails.  The tiers are provisioned for
    ``sizing_copies`` resident stream tasks, so rising rates push the
    constrained baseline into memory pressure the tiered IMME absorbs.
    """
    members = []
    for kind in (EnvKind.CBE, EnvKind.IMME):
        for rate in rates:
            members.append(
                ScenarioSpec(
                    f"ext-steady-state/{kind.name}:{rate:.2f}",
                    kind,
                    workload=WorkloadSpec(
                        source="service-background",
                        scale=scale,
                        instances_per_class=(("DL", 1), ("SC", 1)),
                    ),
                    sizing=TierSizing(dram_fraction=0.30),
                    service=ServiceSpec(
                        rate=rate,
                        max_arrivals=max_arrivals,
                        window=window,
                        classes=(("DM", 3), ("DC", 1)),
                        params=(("sizing_copies", sizing_copies),),
                    ),
                    chunk_size=chunk_size,
                    seed=seed,
                )
            )
    return ScenarioFamily(
        name="ext-steady-state",
        description="Open-loop service stream: steady-state windows under rising load",
        scenarios=tuple(members),
    )


@register_family
def ext_predictor_family(
    *,
    scale: float = DEFAULT_SCALE,
    runs: int = 4,
    chunk_size: int = DEFAULT_CHUNK,
) -> ScenarioFamily:
    # DRAM big enough for the hot set (40%), far too small for everything
    probe = predictor_probe_task("probe-0", scale)
    return ScenarioFamily(
        name="ext-predictor",
        description="Flag predictor learning from execution logs",
        scenarios=(
            ScenarioSpec(
                "ext-predictor",
                EnvKind.IMME,
                workload=WorkloadSpec(
                    source="predictor-probes", scale=scale, params=(("runs", runs),)
                ),
                sizing=TierSizing(dram_per_node=int(probe.footprint * 0.55)),
                chunk_size=chunk_size,
            ),
        ),
    )


@register_family
def ext_resilience_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances: int = 4,
    limit_margin: float = 0.05,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
    n_nodes: int = 2,
    fault_seed: int = 7,
) -> ScenarioFamily:
    workload = _capped_sc_workload(scale, instances, limit_margin)
    return ScenarioFamily(
        name="ext-resilience",
        description="Survival of the memory-capped ensemble under injected faults",
        scenarios=tuple(
            ScenarioSpec(
                f"ext-resilience/{kind.name}",
                kind,
                workload=workload,
                sizing=TierSizing(dram_fraction=1.2, basis="footprint"),
                n_nodes=n_nodes,
                chunk_size=chunk_size,
                seed=seed,
                fault_schedule="default-chaos",
                fault_seed=fault_seed,
            )
            for kind in (EnvKind.CBE, EnvKind.TME, EnvKind.IMME)
        ),
    )


@register_family
def ext_shared_inputs_family(
    *,
    scale: float = DEFAULT_SCALE,
    instances: int = 8,
    input_bytes: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    params: Tuple[Tuple[str, int], ...] = ()
    if input_bytes is not None:
        params = (("input_bytes", int(input_bytes)),)
    workload = WorkloadSpec(
        source="shared-input", scale=scale, instances=instances, params=params
    )
    return ScenarioFamily(
        name="ext-shared-inputs",
        description="Shared read-only inputs staged once on CXL",
        scenarios=tuple(
            ScenarioSpec(
                f"ext-shared-inputs/{kind.name}",
                kind,
                workload=workload,
                # the *private-copy* variant must be heavily pressured while
                # one staged copy fits comfortably
                sizing=TierSizing(dram_fraction=0.30),
                chunk_size=chunk_size,
                seed=seed,
            )
            for kind in (EnvKind.TME, EnvKind.IMME)
        ),
    )


@register_family
def ext_utilization_family(
    *,
    scale: float = DEFAULT_SCALE,
    dram_fraction: float = 0.25,
    chunk_size: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> ScenarioFamily:
    workload = _colocated(None, scale)
    return ScenarioFamily(
        name="ext-utilization",
        description="Memory utilisation and productive throughput per environment",
        scenarios=tuple(
            ScenarioSpec(
                f"ext-utilization/{kind.name}",
                kind,
                workload=workload,
                sizing=_env_fraction(kind, dram_fraction),
                chunk_size=chunk_size,
                seed=seed,
            )
            for kind in (EnvKind.IE, EnvKind.CBE, EnvKind.TME, EnvKind.IMME)
        ),
    )
