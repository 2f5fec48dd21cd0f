"""Time-series sampling of cluster memory state.

A :class:`UtilizationSampler` snapshots every node's per-tier residency on
a fixed simulated interval, from a one-member
:class:`~repro.sim.process.TickGroup` of its own — the data behind
utilisation-over-time plots and the §II-C idle-memory analysis at cluster
scope.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..memory.system import NodeMemorySystem
from ..memory.tiers import NUM_TIERS, TierKind
from ..sim.engine import SimulationEngine
from ..sim.process import TickGroup
from ..util.errors import SimulationError
from ..util.validation import check_positive, require

__all__ = ["UtilizationSampler"]


class UtilizationSampler:
    """Periodic per-tier residency snapshots across a set of nodes."""

    def __init__(
        self,
        engine: SimulationEngine,
        nodes: Sequence[NodeMemorySystem],
        interval: float = 5.0,
    ) -> None:
        check_positive(interval, "interval")
        require(len(nodes) > 0, "need at least one node to sample")
        self.engine = engine
        self.nodes = list(nodes)
        self.interval = float(interval)
        self._times: list[float] = []
        self._samples: list[np.ndarray] = []
        self._ticker = TickGroup(engine, interval, "utilization-sampler")
        self._handle: Optional[int] = None

    def start(self) -> None:
        if self._handle in self._ticker:
            raise SimulationError("utilization sampler already started")
        self._handle = self._ticker.add(self._sample)

    def stop(self) -> None:
        if self._handle is not None:
            self._ticker.remove(self._handle)

    def _sample(self, now: float) -> None:
        snap = np.zeros((len(self.nodes), NUM_TIERS), dtype=np.int64)
        for i, node in enumerate(self.nodes):
            for t in range(NUM_TIERS):
                snap[i, t] = node.rss(TierKind(t))
        self._times.append(now)
        self._samples.append(snap)

    # ------------------------------------------------------------------ #
    @property
    def n_samples(self) -> int:
        return len(self._times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(times[k], data[k, node, tier])`` in bytes."""
        if not self._times:
            return np.zeros(0), np.zeros((0, len(self.nodes), NUM_TIERS), dtype=np.int64)
        return np.asarray(self._times), np.stack(self._samples)

    def cluster_series(self, tier: TierKind) -> np.ndarray:
        """Cluster-wide resident bytes in ``tier`` per sample."""
        _, data = self.as_arrays()
        if data.size == 0:
            return np.zeros(0, dtype=np.int64)
        return data[:, :, int(tier)].sum(axis=1)

    def peak(self, tier: TierKind) -> int:
        series = self.cluster_series(tier)
        return int(series.max()) if series.size else 0

    def mean_utilization(self, tier: TierKind) -> float:
        """Mean cluster-wide utilisation of ``tier`` over the run."""
        cap = sum(node.capacity(tier) for node in self.nodes)
        if cap == 0:
            return 0.0
        series = self.cluster_series(tier)
        return float(series.mean() / cap) if series.size else 0.0
