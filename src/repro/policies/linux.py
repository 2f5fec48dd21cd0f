"""Linux-kernel baseline: demand DRAM allocation with LRU swapping.

This is the memory management of the paper's Ideal Environment (where
DRAM never fills) and Constrained Baseline Environment (where it
constantly does): pages live in DRAM; under pressure, kswapd-style
reclaim walks the (approximate) LRU — here, the coldest chunks by
temperature — and pushes victims to disk-based swap *regardless of the
workflow they belong to* (§III-C3: the kernel "is agnostic to the
underlying heterogeneous memory tiers").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from ..memory.pageset import PageSet
from ..memory.tiers import DRAM, TierKind
from ..util.validation import check_fraction, require
from .base import AllocationRequest, MemoryPolicy, PolicyContext, cascade_place

__all__ = ["LinuxSwapPolicy", "global_coldest"]


def global_coldest(
    ctx: PolicyContext,
    tier: TierKind,
    max_chunks: int,
    *,
    include_pinned: bool = False,
    skip_owners: frozenset[str] = frozenset(),
    scan_noise: float = 0.0,
) -> list[tuple[PageSet, np.ndarray]]:
    """Select up to ``max_chunks`` victims in ``tier``, coldest first,
    across every pageset on the node (the global LRU scan).

    ``scan_noise`` models the kernel's scan-based two-list LRU, which has
    *no frequency information*: with probability ``scan_noise`` a victim
    slot is filled by a uniformly-random resident chunk instead of the
    coldest one, so under heavy reclaim pressure even hot pages of
    latency-sensitive workflows get "blindly swapped out" (§III-C3) —
    the failure mode Algorithm 2 exists to prevent.

    Returns ``(pageset, chunk_indices)`` pairs in first-appearance order.
    The node arena runs the scan as one kernel, and the noise share costs
    a single ``rng.choice`` draw over the per-task candidate pools.
    """
    return ctx.memory.arena.global_coldest(
        tier,
        max_chunks,
        ctx.rng,
        include_pinned=include_pinned,
        skip_owners=skip_owners,
        scan_noise=scan_noise,
    )


class LinuxSwapPolicy(MemoryPolicy):
    """Demand DRAM allocation + watermark-driven LRU swap (IE / CBE).

    Parameters
    ----------
    high_watermark / low_watermark:
        kswapd analogue: when DRAM rss exceeds ``high`` × capacity at a
        daemon tick, the coldest chunks are swapped out until rss falls to
        ``low`` × capacity.
    scan_noise:
        fraction of victims chosen without frequency information (see
        :func:`global_coldest`); 0 gives an oracle LRU.
    """

    name = "linux-lru"

    def __init__(
        self,
        high_watermark: float = 0.96,
        low_watermark: float = 0.90,
        scan_noise: float = 0.35,
    ) -> None:
        check_fraction(high_watermark, "high_watermark")
        check_fraction(low_watermark, "low_watermark")
        check_fraction(scan_noise, "scan_noise")
        require(low_watermark <= high_watermark, "low watermark must not exceed high")
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.scan_noise = scan_noise

    # ------------------------------------------------------------------ #
    def place(self, ctx: PolicyContext, ps: PageSet, request: AllocationRequest) -> None:
        idx = ctx.region_chunks(ps, request.region)
        unmapped = idx[ps.tier[idx] == -1]
        if unmapped.size == 0:
            return
        mem = ctx.memory
        shortfall = unmapped.size * ps.chunk_size - mem.free(DRAM)
        if shortfall > 0:
            # direct reclaim before falling through to swap placement
            self.make_room(ctx, shortfall)
        cascade_place(ctx, ps, unmapped, (DRAM,))

    def tick(self, ctx: PolicyContext) -> None:
        mem = ctx.memory
        cap = mem.capacity(DRAM)
        if cap <= 0:
            return
        if mem.rss(DRAM) > self.high_watermark * cap:
            target = int(mem.rss(DRAM) - self.low_watermark * cap)
            self.make_room(ctx, target)

    def make_room(self, ctx: PolicyContext, nbytes: int, protect: Optional[str] = None) -> int:
        """Swap out the globally-coldest DRAM chunks to free ``nbytes``.

        The kernel protects nothing here — latency-sensitive workflows'
        pages are fair game, which is precisely the failure mode
        Algorithm 2 exists to fix.
        """
        if nbytes <= 0:
            return 0
        mem = ctx.memory
        chunk = next(iter(mem.pagesets()), None)
        if chunk is None:
            return 0
        chunk_size = chunk.chunk_size
        need_chunks = -(-nbytes // chunk_size)
        freed = 0
        victims = global_coldest(ctx, DRAM, need_chunks, scan_noise=self.scan_noise)
        for ps, idx in victims:
            freed += mem.swap_out(ps, idx)
            obs.counter("policy.swap_outs", int(idx.size), policy=self.name)
        return freed
