"""The fluid progress-rate model (DESIGN.md §4).

A running phase advances at rate ``1/slowdown`` where the slowdown blends
three placement-dependent terms using the phase's sensitivity mix:

* the **latency** term compares the access-weighted mean latency of the
  task's pages against pure DRAM (swap-resident pages pay an amortised
  major-fault penalty; page-cache-shadowed pages pay ~DRAM),
* the **bandwidth** term compares demanded against achieved throughput
  (achieved sums fair-share bandwidth over *every* tier the pages span —
  multi-path aggregation, the paper's BW-flag payoff),
* a **migration overhead** term charges for daemon data movement
  (the ≈4 % runtime overhead reported in §IV-D4).

The node kernel is two passes over every running task at once.  The
**row pass** (:func:`row_pass`) derives each row's own inputs from its
phase terms (:func:`phase_terms`) and access profile: its per-tier demand
and its compute-plus-latency term ``base``.  The **node pass**
(:func:`node_pass`) shares bandwidth max-min fairly over every row's
demand and adds the bandwidth term, the migration penalty and the clamp.
One weighted ``np.bincount`` splits a set of pagesets' accesses by service
point (:func:`access_profiles`); each row sums only its own chunks, so the
node agent keeps each row's derived inputs and re-derives
(:func:`derive_row`) only the rows whose placement, weights or phase
changed.  :func:`kernel_slowdowns` and its from-scratch form
:func:`node_slowdowns` derive every row, then run the node pass;
:func:`tier_access_profile`, :func:`tier_demand` and :func:`phase_slowdown`
are one-row calls of the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..memory.contention import kernel_allocation
from ..memory.pageset import UNMAPPED, PageSet
from ..memory.tiers import DRAM, MEMORY_TIERS, NUM_TIERS, SWAP, TierKind, TierSpec
from ..util.units import ns, us
from ..util.validation import check_non_negative, check_positive
from ..workflows.task import TaskPhase

__all__ = [
    "RateModelConfig",
    "SHADOW",
    "access_profiles",
    "derive_row",
    "kernel_slowdowns",
    "node_pass",
    "node_slowdowns",
    "phase_terms",
    "row_pass",
    "service_latencies",
    "tier_access_profile",
    "tier_demand",
    "phase_slowdown",
    "loaded_latency_factor",
]


@dataclass(frozen=True)
class RateModelConfig:
    """Tuning constants for the progress model.

    ``swap_access_latency`` is the *amortised* per-access cost of a
    swap-resident page: a 4 KiB-page major fault costs ~tens of µs of
    fault handling plus the read, amortised over the accesses a page
    serves before being evicted again under thrash.  The default keeps
    the DRAM:swap effective-latency ratio at ~125x, which reproduces the
    order-of-magnitude collapse of Fig. 1's swap-constrained bars without
    overstating it (the paper's worst CBE:IMME ratio is ~8x).
    """

    swap_access_latency: float = us(10.0)
    shadow_access_latency: float = ns(150.0)
    migration_overhead_coeff: float = 0.25
    migration_overhead_cap: float = 0.08
    max_slowdown: float = 1e5
    #: model *loaded latency*: a tier's effective access latency rises as
    #: its bandwidth utilisation approaches saturation (the paper's §VI
    #: future-work item "support variable latency and bandwidth").
    loaded_latency: bool = False
    #: latency multiplier at 100% bandwidth utilisation (quadratic ramp).
    loaded_latency_max_factor: float = 4.0

    def __post_init__(self) -> None:
        check_positive(self.swap_access_latency, "swap_access_latency")
        check_positive(self.shadow_access_latency, "shadow_access_latency")
        check_non_negative(self.migration_overhead_coeff, "migration_overhead_coeff")
        check_non_negative(self.migration_overhead_cap, "migration_overhead_cap")
        check_positive(self.max_slowdown, "max_slowdown")
        if self.loaded_latency_max_factor < 1.0:
            raise ValueError("loaded_latency_max_factor must be >= 1")


def loaded_latency_factor(utilization, max_factor: float):
    """Quadratic loaded-latency ramp: 1x when idle, ``max_factor`` at
    saturation — the shape of measured DRAM/CXL loaded-latency curves.
    ``utilization`` may be a scalar or an array."""
    rho = np.clip(utilization, 0.0, 1.0)
    return 1.0 + (max_factor - 1.0) * rho * rho


#: access-profile column for accesses served from DRAM page-cache shadows
SHADOW = NUM_TIERS


def access_profiles(pagesets: Sequence[PageSet]) -> np.ndarray:
    """``float64[n, NUM_TIERS + 1]`` share of each pageset's accesses served
    by each tier directly (columns ``< NUM_TIERS``) or from DRAM page-cache
    shadows (column :data:`SHADOW`); normalised over mapped chunks, all-zero
    when idle.  Bins sum in chunk order over the concatenated arrays, so the
    result never depends on how the pagesets are stored."""
    n, width = len(pagesets), NUM_TIERS + 2  # bin 0 of each row: unmapped chunks
    tier = np.concatenate([ps.tier for ps in pagesets])
    shadow = np.concatenate([ps.in_page_cache for ps in pagesets]) & (tier != UNMAPPED)
    row = np.repeat(np.arange(n) * width + 1, [ps.n_chunks for ps in pagesets])
    weight = np.concatenate([ps.access_weight for ps in pagesets])
    prof = np.bincount(row + np.where(shadow, SHADOW, tier), weights=weight, minlength=n * width)
    prof = prof.reshape(n, width)[:, 1:]
    total = prof.sum(axis=1, keepdims=True)
    return np.divide(prof, total, out=np.zeros(prof.shape), where=total > 0)


def phase_terms(phases: Sequence[TaskPhase]) -> np.ndarray:
    """``float64[n, 4]``: each phase's ``(compute_frac, lat_frac, bw_frac,
    demand_bandwidth)``, the kernel's per-row inputs besides the profile."""
    terms = [(p.compute_frac, p.lat_frac, p.bw_frac, p.demand_bandwidth) for p in phases]
    return np.array(terms, dtype=np.float64).reshape(len(terms), 4)


def service_latencies(
    specs: Mapping[TierKind, TierSpec],
    config: RateModelConfig,
    utilization: "np.ndarray | None" = None,
) -> np.ndarray:
    """``float64[NUM_TIERS + 1]``: the access latency of each service point
    (the memory tiers, amortised swap faults, :data:`SHADOW`), in profile
    column order.  With ``config.loaded_latency`` and a per-tier
    ``utilization``, each memory tier's latency sits on its loaded-latency
    curve."""
    latency = [specs[t].latency for t in MEMORY_TIERS]
    latency = np.array(latency + [config.swap_access_latency, config.shadow_access_latency])
    if config.loaded_latency and utilization is not None:
        factor = loaded_latency_factor(utilization[:SWAP], config.loaded_latency_max_factor)
        latency[:SWAP] *= factor
    return latency


def _base(terms, profiles, latency, dram_latency) -> np.ndarray:
    """Each row's ``c + l·lat_mult``: ``lat_mult`` is the access-weighted
    ``latency`` over the *unloaded* ``dram_latency``, 1 for an idle row
    (one not yet weighted counts as DRAM-resident)."""
    lat = (profiles * latency).sum(axis=1) / dram_latency
    lat_mult = np.where(profiles.sum(axis=1) > 0, lat, 1.0)
    return terms[:, 0] + terms[:, 1] * lat_mult


def row_pass(
    terms: np.ndarray, profiles: np.ndarray, latency: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's row pass: each row's ``demand``, ``float64[n,
    NUM_TIERS]`` bytes/s ``D·w_t`` with shadowed accesses charged to DRAM,
    and its compute-plus-latency term ``base``, against the unloaded
    ``latency`` of :func:`service_latencies`.  A row's results depend on
    its own terms and profile alone; :func:`derive_row` is the same
    arithmetic for one pageset."""
    d = terms[:, 3]
    demand = profiles[:, :NUM_TIERS] * d[:, None]
    demand[:, int(DRAM)] += profiles[:, SHADOW] * d
    return demand, _base(terms, profiles, latency, latency[int(DRAM)])


def derive_row(
    ps: PageSet, c: float, l: float, d: float, latency: Sequence[float]
) -> tuple[list[float], list[float], float]:
    """One pageset's access profile, demand and ``base`` (the row pass for
    one row): one weighted ``np.bincount`` over its chunks, then the
    arithmetic of :func:`access_profiles` and :func:`row_pass` in Python
    floats, in numpy's order (a row's 4- and 5-element sums add left to
    right), so every value equals theirs."""
    tier = ps.tier
    key = np.where(ps.in_page_cache & (tier != UNMAPPED), SHADOW + 1, tier + 1)
    _, *prof = np.bincount(key, ps.access_weight, NUM_TIERS + 2).tolist()  # bin 0: unmapped
    total = prof[0] + prof[1] + prof[2] + prof[3] + prof[4]
    prof = [w / total for w in prof] if total > 0 else [0.0] * (NUM_TIERS + 1)
    p0, p1, p2, p3, p4 = prof
    lat_mult = 1.0
    if p0 + p1 + p2 + p3 + p4 > 0:
        l0, l1, l2, l3, l4 = latency  # l0: DRAM's
        lat_mult = (p0 * l0 + p1 * l1 + p2 * l2 + p3 * l3 + p4 * l4) / l0
    return prof, [p0 * d + p4 * d, p1 * d, p2 * d, p3 * d], c + l * lat_mult


def _finish(terms, base, achieved, penalty, config) -> np.ndarray:
    """The node pass's last step: ``base + b·bw_mult`` plus the capped
    migration penalty, clamped to ``[c, max_slowdown]``, from each row's
    summed achieved bandwidth."""
    c, b, d = terms[:, 0], terms[:, 2], terms[:, 3]
    bw_mult = np.where((d > 0) & (b > 0), np.maximum(1.0, d / np.maximum(achieved, 1e-9)), 1.0)
    penalty = min(config.migration_overhead_cap, max(0.0, penalty))
    slowdown = base + b * bw_mult + penalty
    return np.minimum(np.maximum(slowdown, c), config.max_slowdown)


def node_pass(
    terms: np.ndarray,
    profiles: np.ndarray,
    demand: np.ndarray,
    base: np.ndarray,
    specs: Mapping[TierKind, TierSpec],
    capacities: np.ndarray,
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
) -> np.ndarray:
    """The kernel's node pass over the row pass's columns: every row's
    slowdown from the max-min split of ``demand`` under ``capacities``
    (each tier's attainable bandwidth now, 0 when offline), its ``base``,
    its bandwidth term and the capped penalty.  A row's result depends on
    the other rows only through that sharing.

    Under loaded latency each tier's utilisation raises its latency, so
    ``base`` is re-derived from ``profiles`` with the loaded latencies."""
    achieved = kernel_allocation(capacities, demand)
    if config.loaded_latency:
        utilization = np.divide(
            achieved.sum(axis=0), capacities, out=np.zeros_like(capacities), where=capacities > 0
        )
        latency = service_latencies(specs, config, utilization)
        base = _base(terms, profiles, latency, specs[DRAM].latency)
    return _finish(terms, base, achieved.sum(axis=1), migration_penalty, config)


def kernel_slowdowns(
    terms: np.ndarray,
    profiles: np.ndarray,
    specs: Mapping[TierKind, TierSpec],
    capacities: np.ndarray,
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
) -> np.ndarray:
    """Slowdown of every row on a node: ``terms`` from :func:`phase_terms`,
    ``profiles`` from :func:`access_profiles`, one row per task; the row
    pass over every row, then the node pass."""
    demand, base = row_pass(terms, profiles, service_latencies(specs, config))
    return node_pass(
        terms, profiles, demand, base, specs, capacities,
        migration_penalty=migration_penalty, config=config,
    )


def node_slowdowns(
    phases: Sequence[TaskPhase],
    pagesets: Sequence[PageSet],
    specs: Mapping[TierKind, TierSpec],
    capacities: np.ndarray,
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
) -> np.ndarray:
    """Slowdown of every task on a node (``phases[i]`` over ``pagesets[i]``),
    derived from scratch: :func:`kernel_slowdowns` over fresh terms and
    profiles."""
    return kernel_slowdowns(
        phase_terms(phases), access_profiles(pagesets), specs, capacities,
        migration_penalty=migration_penalty, config=config,
    )


def tier_access_profile(ps: PageSet) -> tuple[np.ndarray, float]:
    """One pageset's access profile as ``(weights[NUM_TIERS], shadow_weight)``."""
    prof = access_profiles([ps])[0]
    return prof[:NUM_TIERS], float(prof[SHADOW])


def tier_demand(ps: PageSet, demand_bandwidth: float) -> np.ndarray:
    """One pageset's per-tier throughput demand (bytes/s)."""
    check_non_negative(demand_bandwidth, "demand_bandwidth")
    terms = np.array([[0.0, 0.0, 0.0, float(demand_bandwidth)]])
    demand, _ = row_pass(terms, access_profiles([ps]), np.ones(SHADOW + 1))  # base unused
    return demand[0]


def phase_slowdown(
    phase: TaskPhase,
    ps: PageSet,
    specs: Mapping[TierKind, TierSpec],
    achieved_bandwidth: float,
    *,
    migration_penalty: float = 0.0,
    config: RateModelConfig = RateModelConfig(),
    tier_bw_utilization: "np.ndarray | None" = None,
) -> float:
    """Instantaneous slowdown of ``phase`` under the current placement.

    ``achieved_bandwidth`` is the task's summed fair-share throughput
    across tiers (from :func:`repro.memory.contention.allocate_bandwidth`).
    With ``config.loaded_latency`` set, ``tier_bw_utilization`` (the
    node-wide per-tier bandwidth utilisation) inflates each tier's
    effective latency along the loaded-latency curve.  Returns a value
    >= ``compute_frac`` (never faster than pure compute), clamped at
    ``config.max_slowdown``.
    """
    terms, profiles = phase_terms([phase]), access_profiles([ps])
    latency = service_latencies(specs, config, tier_bw_utilization)
    base = _base(terms, profiles, latency, specs[DRAM].latency)
    achieved = np.array([float(achieved_bandwidth)])
    return float(_finish(terms, base, achieved, migration_penalty, config)[0])
