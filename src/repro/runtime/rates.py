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

:func:`kernel_slowdowns` is the node agent's kernel: demand, fair-share
bandwidth and slowdown are array math over every running task at once,
from each task's phase terms (:func:`phase_terms`) and access profile.
One weighted ``np.bincount`` splits a set of pagesets' accesses by service
point (:func:`access_profiles`); each row sums only its own chunks, so the
agent re-bins only the pagesets whose placement or weights changed.
:func:`node_slowdowns` is the from-scratch form of the kernel, and
:func:`tier_access_profile`, :func:`tier_demand` and :func:`phase_slowdown`
are one-row calls of it.
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
    "kernel_slowdowns",
    "node_slowdowns",
    "phase_terms",
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


def _demands(profiles: np.ndarray, demand_bandwidth: np.ndarray) -> np.ndarray:
    """Per-tier demand (bytes/s) of each row; shadowed accesses demand DRAM."""
    demand = profiles[:, :NUM_TIERS] * demand_bandwidth[:, None]
    demand[:, int(DRAM)] += profiles[:, SHADOW] * demand_bandwidth
    return demand


def phase_terms(phases: Sequence[TaskPhase]) -> np.ndarray:
    """``float64[n, 4]``: each phase's ``(compute_frac, lat_frac, bw_frac,
    demand_bandwidth)``, the kernel's per-row inputs besides the profile."""
    terms = [(p.compute_frac, p.lat_frac, p.bw_frac, p.demand_bandwidth) for p in phases]
    return np.array(terms, dtype=np.float64).reshape(len(terms), 4)


def _slowdowns(terms, profiles, specs, achieved, penalty, config, utilization) -> np.ndarray:
    """Each row's slowdown from its terms, access profile and achieved bandwidth."""
    c, l, b, d = terms.T
    latency = [specs[t].latency for t in MEMORY_TIERS]
    latency = np.array(latency + [config.swap_access_latency, config.shadow_access_latency])
    if config.loaded_latency and utilization is not None:
        factor = loaded_latency_factor(utilization[:SWAP], config.loaded_latency_max_factor)
        latency[:SWAP] *= factor
    # an idle (not yet weighted) task counts as DRAM-resident
    lat = (profiles * latency).sum(axis=1) / specs[DRAM].latency
    lat_mult = np.where(profiles.sum(axis=1) > 0, lat, 1.0)
    bw_mult = np.where((d > 0) & (b > 0), np.maximum(1.0, d / np.maximum(achieved, 1e-9)), 1.0)
    penalty = min(config.migration_overhead_cap, max(0.0, penalty))
    slowdown = c + l * lat_mult + b * bw_mult + penalty
    return np.minimum(np.maximum(slowdown, c), config.max_slowdown)


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
    ``profiles`` from :func:`access_profiles`, one row per task.

    ``capacities`` is each tier's attainable bandwidth now (0 when offline),
    shared by per-tier max-min fairness; utilisation drives loaded latency.
    A row's result depends on the other rows only through that sharing."""
    achieved = kernel_allocation(capacities, _demands(profiles, terms[:, 3]))
    utilization = None
    if config.loaded_latency:
        utilization = np.divide(
            achieved.sum(axis=0), capacities, out=np.zeros_like(capacities), where=capacities > 0
        )
    return _slowdowns(
        terms, profiles, specs, achieved.sum(axis=1), migration_penalty, config, utilization
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
    return _demands(access_profiles([ps]), np.array([float(demand_bandwidth)]))[0]


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
    profiles, achieved = access_profiles([ps]), np.array([float(achieved_bandwidth)])
    slowdown = _slowdowns(
        phase_terms([phase]), profiles, specs, achieved, migration_penalty, config,
        tier_bw_utilization,
    )
    return float(slowdown[0])
