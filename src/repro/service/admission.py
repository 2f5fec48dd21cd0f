"""Admission control: decide at arrival time whether the cluster takes a job.

An open-loop stream does not slow down when the cluster saturates — the
queue does.  Admission policies bound that: ``queue-cap`` sheds load past
a configured backlog, and ``memory-headroom`` is the tier-aware gate the
steady-state experiments compare — a constrained baseline with only DRAM
rejects arrivals its tiers cannot hold, where IMME's PMem/CXL capacity
admits (and absorbs) the same stream.

Policies see the unbuilt :class:`~repro.service.stream.Arrival`, of which
they read at most ``max_footprint``, and a :class:`ClusterView` (live
queue depth plus per-node free capacity), and return accept/reject; the
service loop counts both per window.  Rejection is *cheap by design*: no
task build, no job object, no metrics entry, no scheduler interaction, so
a saturated run stays fast.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..memory.tiers import MEMORY_TIERS
from ..util.validation import check_positive, require
from .spec import ServiceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.node_agent import NodeAgent
    from ..scheduler.slurm import SlurmScheduler
    from .stream import Arrival

__all__ = [
    "AcceptAll",
    "AdmissionPolicy",
    "ClusterView",
    "MemoryHeadroomGate",
    "QueueDepthCap",
    "build_admission",
]


class ClusterView:
    """What an admission policy may look at: live scheduler + node state."""

    def __init__(self, scheduler: "SlurmScheduler", agents: "Sequence[NodeAgent]") -> None:
        self.scheduler = scheduler
        self.agents = list(agents)

    @property
    def queue_depth(self) -> int:
        return self.scheduler.pending_count

    def free_memory(self, node_index: int) -> int:
        """Free byte-addressable memory (DRAM + PMem + CXL) on one node."""
        mem = self.agents[node_index].memory
        return sum(mem.free(t) for t in MEMORY_TIERS)

    def best_free_memory(self) -> int:
        """The most free byte-addressable memory any live node offers."""
        best = 0
        for i, agent in enumerate(self.agents):
            if agent.down:
                continue
            best = max(best, self.free_memory(i))
        return best


class AdmissionPolicy:
    """Base: accept/reject one arrival against the live cluster, reading
    nothing of it but ``max_footprint``."""

    name = "accept-all"

    def admit(self, arrival: "Arrival", view: ClusterView) -> bool:
        raise NotImplementedError


class AcceptAll(AdmissionPolicy):
    """The open-queue default: everything enters the scheduler."""

    name = "accept-all"

    def admit(self, arrival: "Arrival", view: ClusterView) -> bool:
        return True


class QueueDepthCap(AdmissionPolicy):
    """Reject while the scheduler backlog is at or past ``max_depth``."""

    name = "queue-cap"

    def __init__(self, max_depth: int) -> None:
        check_positive(max_depth, "max_depth")
        self.max_depth = int(max_depth)

    def admit(self, arrival: "Arrival", view: ClusterView) -> bool:
        return view.queue_depth < self.max_depth


class MemoryHeadroomGate(AdmissionPolicy):
    """Tier-aware gate: admit only if some node's free byte-addressable
    memory covers ``headroom`` times the task's maximum footprint.

    The gate reads *capacity across all memory tiers*, so environments
    differ exactly as the paper predicts: a DRAM-only baseline runs out
    of admittable headroom long before a tiered node whose PMem/CXL count
    toward the same budget.
    """

    name = "memory-headroom"

    def __init__(self, headroom: float = 1.0) -> None:
        check_positive(headroom, "headroom")
        self.headroom = float(headroom)

    def admit(self, arrival: "Arrival", view: ClusterView) -> bool:
        need = int(arrival.max_footprint * self.headroom)
        return view.best_free_memory() >= need


def build_admission(spec: ServiceSpec) -> AdmissionPolicy:
    """The policy ``spec.admission`` names, configured from its knobs."""
    if spec.admission == "accept-all":
        return AcceptAll()
    if spec.admission == "queue-cap":
        require(spec.queue_cap > 0, "queue-cap admission needs queue_cap > 0")
        return QueueDepthCap(spec.queue_cap)
    if spec.admission == "memory-headroom":
        return MemoryHeadroomGate(spec.headroom)
    raise KeyError(f"unknown admission policy {spec.admission!r}")  # pragma: no cover
