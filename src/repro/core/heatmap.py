"""Page-temperature tracking (§III-C1: "track the hotness/coldness of
workflow pages ... heatmaps are used to identify frequently accessed pages
and least frequently accessed pages for efficient page movement").

Temperatures follow an exponentially-decayed access-rate estimate,
vectorised over each pageset's chunk arrays:

``T ← T·exp(-dt/τ) + access_weight · access_rate · dt``

so a chunk's temperature approximates its recent accesses-per-τ.  The same
machinery answers the §II-C cold-page question ("~55–80 % of the allocated
memory remains idle" early in BERT training) via :func:`idle_fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..memory.pageset import PageSet
from ..memory.system import NodeMemorySystem
from ..util.validation import check_fraction, check_positive

__all__ = ["HeatmapConfig", "PageHeatmap", "idle_fraction", "hot_mask"]


@dataclass(frozen=True)
class HeatmapConfig:
    """Tuning for temperature tracking.

    ``tau`` is the decay time-constant: pages untouched for a few τ read
    as cold.  ``hot_quantile_share`` is the heat share used to delimit the
    "hot set" (the paper's 80 %-of-accesses heuristic).
    """

    tau: float = 30.0
    hot_quantile_share: float = 0.80

    def __post_init__(self) -> None:
        check_positive(self.tau, "tau")
        check_fraction(self.hot_quantile_share, "hot_quantile_share")


class PageHeatmap:
    """Maintains temperatures for every pageset on one node."""

    def __init__(self, config: HeatmapConfig | None = None) -> None:
        self.config = config if config is not None else HeatmapConfig()

    def advance(self, ps: PageSet, dt: float, access_rate: float = 1.0) -> None:
        """Decay and accumulate one pageset's temperatures over ``dt``
        seconds of the current phase's access distribution.

        Pagesets that are stone cold (all-zero temperatures) with no
        incoming accesses are skipped outright — idle tasks dominate large
        colocations and decaying zeros is pure waste.
        """
        if dt <= 0:
            return
        gains = access_rate > 0 and bool(ps.access_weight.any())
        if not gains and not ps.temperature.any():
            return
        decay = math.exp(-dt / self.config.tau)
        ps.temperature *= np.float32(decay)
        if gains:
            ps.temperature += ps.access_weight * np.float32(access_rate * dt)

    def advance_node(
        self, memory: NodeMemorySystem, dt: float, rates: dict[str, float] | None = None
    ) -> None:
        """Advance every registered pageset; ``rates`` optionally maps
        owner → relative access rate (idle tasks decay only).

        The whole node advances in one fused kernel call
        (:meth:`~repro.core.arena.NodeArena.advance`): bit-identical to
        :meth:`advance` applied per pageset, with no per-pageset dispatch.
        """
        if dt <= 0:
            return
        memory.arena.advance(dt, math.exp(-dt / self.config.tau), rates)

    # ------------------------------------------------------------------ #
    # analyses used by the allocation/movement policies
    # ------------------------------------------------------------------ #
    def hot_set_bytes(self, ps: PageSet) -> int:
        """Bytes in the minimal chunk set absorbing ``hot_quantile_share``
        of current heat — the LAT-size heuristic of §III-C2."""
        mask = hot_mask(ps, self.config.hot_quantile_share)
        return int(np.count_nonzero(mask)) * ps.chunk_size


def hot_mask(ps: PageSet, heat_share: float) -> np.ndarray:
    """Boolean mask of the smallest chunk set holding ``heat_share`` of the
    total temperature (ties broken toward fewer chunks)."""
    check_fraction(heat_share, "heat_share")
    temps = ps.temperature.astype(np.float64)
    total = temps.sum()
    mask = np.zeros(ps.n_chunks, dtype=bool)
    if total <= 0 or heat_share == 0:
        return mask
    order = np.argsort(-temps, kind="stable")
    csum = np.cumsum(temps[order])
    # tiny relative tolerance so float32 rounding cannot inflate the set
    target = heat_share * total * (1.0 - 1e-6)
    k = int(np.searchsorted(csum, target, side="left")) + 1
    mask[order[: min(k, ps.n_chunks)]] = True
    return mask


def idle_fraction(ps: PageSet, threshold: float = 0.0) -> float:
    """Fraction of *mapped* chunks never (or barely) touched — the §II-C
    cold-memory measurement."""
    mapped = ps.mapped_mask
    n = int(np.count_nonzero(mapped))
    if n == 0:
        return 0.0
    idle = int(np.count_nonzero(mapped & (ps.temperature <= threshold)))
    return idle / n
