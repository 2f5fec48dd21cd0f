"""Cluster-level memory topology.

The paper assumes tiered memory "accessible on every node in the cluster
including PMem and CXL memory over the CXL interconnect" (§III-B1).  Two
pieces model that here:

* each node gets its own :class:`~repro.memory.system.NodeMemorySystem`
  (local DRAM/PMem plus its window into CXL), and
* a :class:`SharedCXLPool` tracks cluster-visible named regions — the
  shared-memory substrate §III-C5 uses for container images and read-only
  input data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..util.errors import AllocationError
from ..util.units import TiB
from ..util.validation import check_positive, require
from .system import NodeMemorySystem
from .tiers import TierKind, TierSpec, default_tier_specs

__all__ = ["SharedCXLPool", "MemoryTopology"]


@dataclass
class _Region:
    name: str
    nbytes: int
    refcount: int


class SharedCXLPool:
    """Named, reference-counted regions in cluster-shared CXL memory.

    Used for staged container images and shared read-only data.  A region
    persists while any workflow holds a reference; §III-C5's scale-down
    rule ("shared memory is freed when all references ... have been
    removed") is exactly the refcount reaching zero.
    """

    def __init__(self, capacity: int = TiB(64)) -> None:
        check_positive(capacity, "capacity")
        self.capacity = int(capacity)
        self.used = 0
        self._regions: dict[str, _Region] = {}

    def contains(self, name: str) -> bool:
        return name in self._regions

    def region_bytes(self, name: str) -> int:
        return self._regions[name].nbytes if name in self._regions else 0

    def stage(self, name: str, nbytes: int) -> bool:
        """Create (or re-reference) a region.  Returns True if the region is
        newly staged, False if it already existed (a cache hit)."""
        check_positive(nbytes, "nbytes")
        reg = self._regions.get(name)
        if reg is not None:
            reg.refcount += 1
            return False
        if self.used + nbytes > self.capacity:
            raise AllocationError(
                f"shared CXL pool exhausted: need {nbytes}, free {self.capacity - self.used}"
            )
        self._regions[name] = _Region(name, int(nbytes), 1)
        self.used += int(nbytes)
        return True

    def acquire(self, name: str) -> None:
        """Add a reference to an existing region."""
        require(name in self._regions, f"no shared region {name!r}")
        self._regions[name].refcount += 1

    def release(self, name: str) -> bool:
        """Drop one reference; frees the region (returns True) at zero."""
        require(name in self._regions, f"no shared region {name!r}")
        reg = self._regions[name]
        reg.refcount -= 1
        if reg.refcount <= 0:
            self.used -= reg.nbytes
            del self._regions[name]
            return True
        return False

    def refcount(self, name: str) -> int:
        return self._regions[name].refcount if name in self._regions else 0

    def __len__(self) -> int:
        return len(self._regions)


class MemoryTopology:
    """All memory systems of a cluster plus the shared CXL pool."""

    def __init__(
        self,
        n_nodes: int,
        specs: Optional[dict[TierKind, TierSpec]] = None,
        shared_cxl_capacity: int = TiB(64),
    ) -> None:
        require(n_nodes >= 1, "a cluster needs at least one node")
        self.specs = specs if specs is not None else default_tier_specs()
        self.nodes: list[NodeMemorySystem] = [
            NodeMemorySystem(self.specs, node_id=f"node{i}") for i in range(n_nodes)
        ]
        self.shared_cxl = SharedCXLPool(shared_cxl_capacity)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, i: int) -> NodeMemorySystem:
        return self.nodes[i]

    def validate(self) -> None:
        for node in self.nodes:
            node.validate()
