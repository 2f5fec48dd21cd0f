"""Algorithm 2 — page replacement policy (§III-C3).

When DRAM must shed pages (page faults need space, or the allocator's
evictable budget is consumed), the kernel's victim list is *filtered*:
pages belonging to latency-sensitive or short-lived workflows are "tracked
and moved to the lower memory tier rather than swapped out to the
underlying disk-based swap space", while unprotected victims take the
kernel path to swap.  Pinned chunks (the guaranteed slice of LAT/SHL
allocations, Fig. 4) are never candidates at all.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..memory.pageset import PageSet
from ..memory.tiers import CXL, DRAM, PMEM, SWAP, TierKind
from ..obs import insight as _insight
from ..policies.base import PolicyContext
from ..util.validation import require
from .flags import MemFlag

__all__ = ["PageReplacementPolicy", "is_protected"]


def is_protected(flags: MemFlag) -> bool:
    """LAT/SHL workflows get replacement protection (§III-C3)."""
    return bool(flags & (MemFlag.LAT | MemFlag.SHL))


class PageReplacementPolicy:
    """Workflow-aware victim filtering and demotion.

    Parameters
    ----------
    owner_flags:
        Callable resolving a pageset owner to its effective flags — the
        manager's registry.
    demote_order:
        Where protected victims go instead of swap (lower tiers, fastest
        first; CXL precedes PMem because the testbed's CXL latency is the
        lower of the two).
    """

    def __init__(
        self,
        owner_flags: Callable[[str], MemFlag],
        demote_order: tuple[TierKind, ...] = (CXL, PMEM),
    ) -> None:
        require(DRAM not in demote_order, "cannot demote into DRAM")
        self.owner_flags = owner_flags
        self.demote_order = tuple(demote_order)

    # ------------------------------------------------------------------ #
    def select_victims(
        self,
        ctx: PolicyContext,
        need_chunks: int,
        *,
        protect_owner: Optional[str] = None,
    ) -> list[tuple[PageSet, np.ndarray]]:
        """Globally-coldest DRAM victims, with workflow-aware priority.

        Unprotected workflows' chunks are considered first (coldest-first
        within the class); protected workflows contribute only their
        pageable (unpinned) chunks, and only when the unprotected pool
        falls short — the paper's two-level prioritisation (§III-C4).
        """
        if need_chunks <= 0:
            return []
        # one masked argpartition over the node arena, in two-level
        # (protected, temperature, registration, index) order
        return ctx.memory.arena.select_victims(
            DRAM, need_chunks, self._protected, protect_owner=protect_owner
        )

    def _protected(self, owner: str) -> bool:
        return is_protected(self.owner_flags(owner))

    def replace(
        self,
        ctx: PolicyContext,
        nbytes: int,
        *,
        protect_owner: Optional[str] = None,
        shadow_demotions: bool = False,
    ) -> int:
        """Free ``nbytes`` of DRAM via filtered replacement.

        All victims demote through the lower byte-addressable tiers first
        — the §III-C4 rule that pages move to CXL "instead of swapping
        pages to the swap space" — and hit disk only when those tiers are
        full.  Protection manifests in *selection*: unprotected workflows'
        pages are victimised first, and protected workflows contribute
        only their pageable region.  Returns bytes actually freed.  With
        ``shadow_demotions`` the demoted pages keep page-cache copies when
        room remains (the proactive path's minor-fault optimisation).
        """
        if nbytes <= 0:
            return 0
        mem = ctx.memory
        if mem.fast_core:
            return self._replace_fast(
                ctx, nbytes, protect_owner=protect_owner, shadow_demotions=shadow_demotions
            )
        any_ps = next(iter(ctx.memory.pagesets()), None)
        if any_ps is None:
            return 0
        need_chunks = -(-nbytes // any_ps.chunk_size)
        freed = 0
        # label direct invocations in the migration ledger without
        # overriding a more specific caller scope (reactive / ensure-room)
        with _insight.fallback_cause("replace"):
            for ps, idx in self.select_victims(ctx, need_chunks, protect_owner=protect_owner):
                remaining = idx
                for tier in self.demote_order:
                    if remaining.size == 0:
                        break
                    room = max(0, mem.free(tier)) // ps.chunk_size
                    take = remaining[: int(room)]
                    if take.size:
                        freed += mem.migrate(ps, take, tier)
                        if shadow_demotions:
                            mem.add_page_cache_shadow(ps, take)
                        remaining = remaining[take.size:]
                if remaining.size:
                    # every lower tier full: pages must swap after all
                    freed += mem.swap_out(ps, remaining)
        return freed

    def _replace_fast(
        self,
        ctx: PolicyContext,
        nbytes: int,
        *,
        protect_owner: Optional[str] = None,
        shadow_demotions: bool = False,
    ) -> int:
        """:meth:`replace` as batched arena kernels (``arena-fast``):
        victims for all tasks come from one selection pass, and each
        demotion tier takes one byte-room prefix of the cross-task victim
        order instead of a per-pageset migrate loop.  Statistically
        equivalent to the exact path, not byte-identical."""
        mem = ctx.memory
        arena = mem.arena
        min_cs = arena.min_chunk_size()
        if min_cs <= 0:
            return 0
        victims = arena.select_victim_positions(
            DRAM, -(-nbytes // min_cs), self._protected, protect_owner=protect_owner
        )
        if victims.size == 0:
            return 0
        cum = np.cumsum(arena.chunk_cost(victims))
        # the shortest victim prefix covering nbytes (selection order)
        k = min(int(np.searchsorted(cum, nbytes, side="left")) + 1, victims.size)
        victims = victims[:k]
        cum = cum[:k]
        freed = 0
        start = 0
        with _insight.fallback_cause("replace"):
            for tier in self.demote_order:
                if start >= victims.size:
                    break
                room = max(0, mem.free(tier))
                base = int(cum[start - 1]) if start else 0
                end = int(np.searchsorted(cum, base + room, side="right"))
                take = victims[start:end]
                if take.size:
                    freed += mem.migrate_positions(take, tier)
                    if shadow_demotions:
                        mem.add_page_cache_shadows_batch(take)
                    start = end
            if start < victims.size:
                # every lower tier full: pages must swap after all
                freed += mem.migrate_positions(victims[start:], SWAP)
        return freed
