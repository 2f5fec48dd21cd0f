"""Policy abstractions.

A *memory policy* makes three kinds of decisions for one node:

* **placement** — which tier backs each chunk of a new allocation
  (:meth:`MemoryPolicy.place`),
* **movement** — periodic promotion/demotion/eviction at daemon ticks
  (:meth:`MemoryPolicy.tick`),
* **fault handling** — what happens when a task touches swap-resident
  chunks (:meth:`MemoryPolicy.fault_in`).

Baselines (:mod:`repro.policies.linux`, :mod:`repro.policies.tpp`,
:mod:`repro.policies.interleave`) and the paper's contribution
(:class:`repro.core.manager.TieredMemoryManager`) all implement this
interface, which is what lets every experiment swap environments freely.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..core.flags import MemFlag
from ..memory.pageset import PageSet
from ..memory.system import NodeMemorySystem
from ..memory.tiers import DRAM, MEMORY_TIERS, SWAP, TierKind
from ..util.errors import OutOfMemoryError
from ..util.validation import check_positive, require

__all__ = [
    "AllocationRequest",
    "PolicyContext",
    "MemoryPolicy",
    "cascade_place",
    "stripe_assignment",
]


def stripe_assignment(counts: "list[int]") -> np.ndarray:
    """Proportional round-robin group assignment.

    Given per-group counts, returns an array of group indices of length
    ``sum(counts)`` where each group's members are spread evenly across
    the whole range (true interleaving with exact counts) — the layout
    both ``MPOL_INTERLEAVE`` baselines and Algorithm 1's BW striping use.

    >>> stripe_assignment([2, 2]).tolist()
    [0, 1, 0, 1]
    """
    ids = []
    keys = []
    for k, c in enumerate(counts):
        require(c >= 0, "counts must be non-negative")
        if c == 0:
            continue
        ids.append(np.full(c, k, dtype=np.int64))
        keys.append((np.arange(c, dtype=np.float64) + 0.5) / c)
    if not ids:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(np.concatenate(keys), kind="stable")
    return np.concatenate(ids)[order]


@dataclass(frozen=True)
class AllocationRequest:
    """One allocation call: ``region`` chunks of ``ps`` need backing.

    ``flags`` carries the Table-I advisory hints (possibly ``NONE``);
    baseline policies ignore them — that obliviousness is exactly what the
    evaluation compares against.
    """

    owner: str
    region: int
    nbytes: int
    flags: MemFlag = MemFlag.NONE

    def __post_init__(self) -> None:
        check_positive(self.nbytes, "nbytes")


@dataclass
class PolicyContext:
    """Everything a policy may see or touch on one node.

    ``record_major`` / ``record_minor`` feed the owning task's fault
    counters (Fig. 9); the node agent wires them to task metrics.
    ``rng`` drives any stochastic policy behaviour (e.g. the kernel
    baseline's scan-noise victim selection) deterministically per node.
    """

    memory: NodeMemorySystem
    now: Callable[[], float] = lambda: 0.0
    record_major: Callable[[str, int], None] = lambda owner, n: None
    record_minor: Callable[[str, int], None] = lambda owner, n: None
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    #: owners of tasks currently in a latency-critical running phase
    active_owners: set[str] = field(default_factory=set)

    def region_chunks(self, ps: PageSet, region: int) -> np.ndarray:
        return np.flatnonzero(ps.region == region)


class MemoryPolicy(ABC):
    """Interface every per-node memory-management policy implements."""

    #: human-readable policy name (used in experiment reports)
    name: str = "abstract"

    @abstractmethod
    def place(self, ctx: PolicyContext, ps: PageSet, request: AllocationRequest) -> None:
        """Back the unmapped chunks of ``request.region`` with memory.

        Must leave every chunk of the region mapped (possibly to swap) or
        raise :class:`~repro.util.errors.OutOfMemoryError`.
        """

    def tick(self, ctx: PolicyContext) -> None:
        """Periodic daemon work (promotion/demotion/eviction).  Default: none."""

    def fault_in(self, ctx: PolicyContext, ps: PageSet, idx: np.ndarray) -> None:
        """Handle the task touching swap-resident chunks ``idx``.

        The default implementation mirrors the kernel: chunks with a
        page-cache shadow are minor faults and simply re-map (swap→DRAM is
        free, the data is already there); the rest are major faults pulled
        into the fastest tier with room, evicting via :meth:`make_room`.
        """
        idx = np.asarray(idx, dtype=np.int64)
        swapped = idx[ps.tier[idx] == int(SWAP)]
        if swapped.size == 0:
            return
        shadowed = swapped[ps.in_page_cache[swapped]]
        hard = swapped[~ps.in_page_cache[swapped]]
        if shadowed.size:
            ctx.record_minor(ps.owner, int(shadowed.size))
            self._pull_in(ctx, ps, shadowed)
        if hard.size:
            ctx.record_major(ps.owner, int(hard.size))
            self._pull_in(ctx, ps, hard)

    def _pull_in(self, ctx: PolicyContext, ps: PageSet, idx: np.ndarray) -> None:
        """Bring swap chunks into byte-addressable tiers, fastest first."""
        mem = ctx.memory
        remaining = idx
        for tier in self.fault_in_order(ctx):
            if remaining.size == 0:
                return
            room = max(0, mem.free(tier)) // ps.chunk_size
            if tier == DRAM and room < remaining.size:
                self.make_room(ctx, (remaining.size - room) * ps.chunk_size, protect=ps.owner)
                room = max(0, mem.free(tier)) // ps.chunk_size
            take = remaining[: int(room)]
            if take.size:
                mem.migrate(ps, take, tier)
                remaining = remaining[take.size:]
        # whatever could not be pulled in stays in swap (it will keep
        # paying the swap-access penalty — thrashing)

    def fault_in_order(self, ctx: PolicyContext) -> tuple[TierKind, ...]:
        """Tier preference when servicing faults; capacity-gated."""
        return tuple(t for t in MEMORY_TIERS if ctx.memory.capacity(t) > 0)

    def make_room(self, ctx: PolicyContext, nbytes: int, protect: Optional[str] = None) -> int:
        """Try to free ``nbytes`` of DRAM.  Default: no eviction (returns 0)."""
        return 0

    def release(self, ctx: PolicyContext, ps: PageSet, idx: np.ndarray) -> None:
        """Free backing for chunks ``idx`` (``free_TM`` / task teardown)."""
        ctx.memory.release(ps, idx)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"


def cascade_place(
    ctx: PolicyContext,
    ps: PageSet,
    idx: np.ndarray,
    order: tuple[TierKind, ...],
    *,
    allow_swap: bool = True,
) -> dict[TierKind, int]:
    """Fill chunks ``idx`` through ``order``, overflowing tier by tier.

    The workhorse shared by the demand baselines and Algorithm 1's
    cascading branch.  Returns bytes placed per tier.  Falls through to
    swap when byte-addressable tiers are full (the constrained-baseline
    behaviour) unless ``allow_swap`` is False.
    """
    idx = np.asarray(idx, dtype=np.int64)
    placed: dict[TierKind, int] = {}
    remaining = idx
    mem = ctx.memory
    tiers = list(order) + ([SWAP] if allow_swap and SWAP not in order else [])
    for tier in tiers:
        if remaining.size == 0:
            break
        room = mem.free(tier) // ps.chunk_size
        take = remaining[: max(0, int(room))]
        if take.size:
            mem.place(ps, take, tier)
            placed[tier] = placed.get(tier, 0) + int(take.size) * ps.chunk_size
            remaining = remaining[take.size:]
    if remaining.size:
        raise OutOfMemoryError(
            f"node {mem.node_id}: no tier can back {remaining.size} chunks for {ps.owner!r}"
        )
    return placed
