"""TPP-style tiered demand policy — the Tiered Memory Environment (TME).

Models "tiered memory for memory allocation with default Linux page
promotion and demotion based on page temperatures" (§IV-C3): allocation
falls through DRAM → CXL → PMem on demand, a NUMA-balancing-style daemon
promotes hot slow-tier pages into DRAM and demotes cold DRAM pages under
pressure.  Crucially it is **workflow-oblivious**: it neither protects
latency-sensitive pages nor stripes bandwidth-intensive allocations —
the two behaviours the paper's IMME adds.

``cxl_fraction`` forces a fixed share of every allocation onto CXL —
the Fig. 6 sweep ("each data point represents the percentage of workflow
memory allocated from the CXL memory tier").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from ..memory.pageset import UNMAPPED, PageSet
from ..memory.tiers import CXL, DRAM, PMEM, TierKind
from ..util.validation import check_fraction, require
from .base import AllocationRequest, MemoryPolicy, PolicyContext, cascade_place
from .linux import global_coldest

__all__ = ["TieredDemandPolicy"]


class TieredDemandPolicy(MemoryPolicy):
    """Demand allocation over tiers with temperature promotion/demotion."""

    name = "tiered-tpp"

    def __init__(
        self,
        alloc_order: tuple[TierKind, ...] = (DRAM, CXL, PMEM),
        *,
        high_watermark: float = 0.92,
        low_watermark: float = 0.85,
        promote_budget_fraction: float = 0.002,
        promote_threshold: float = 0.05,
        cxl_fraction: Optional[float] = None,
        scan_noise: float = 0.35,
    ) -> None:
        require(len(alloc_order) > 0, "alloc_order must name at least one tier")
        check_fraction(high_watermark, "high_watermark")
        check_fraction(low_watermark, "low_watermark")
        require(low_watermark <= high_watermark, "low watermark must not exceed high")
        check_fraction(promote_budget_fraction, "promote_budget_fraction")
        if cxl_fraction is not None:
            check_fraction(cxl_fraction, "cxl_fraction")
        check_fraction(scan_noise, "scan_noise")
        self.scan_noise = scan_noise
        self.alloc_order = tuple(alloc_order)
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.promote_budget_fraction = promote_budget_fraction
        self.promote_threshold = promote_threshold
        self.cxl_fraction = cxl_fraction

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def place(self, ctx: PolicyContext, ps: PageSet, request: AllocationRequest) -> None:
        idx = ctx.region_chunks(ps, request.region)
        unmapped = idx[ps.tier[idx] == UNMAPPED]
        if unmapped.size == 0:
            return
        if self.cxl_fraction:
            # Oblivious split: a fixed share of every allocation goes to
            # CXL, strided uniformly across the address range — the policy
            # has no idea which pages are hot, so the share clips hot and
            # cold pages alike (the Fig. 6 degradation).
            n_cxl = int(round(unmapped.size * self.cxl_fraction))
            if n_cxl > 0:
                stride_pick = np.linspace(0, unmapped.size - 1, n_cxl).astype(np.int64)
                mask = np.zeros(unmapped.size, dtype=bool)
                mask[stride_pick] = True
                tail, head = unmapped[mask], unmapped[~mask]
            else:
                tail, head = unmapped[:0], unmapped
            if tail.size:
                cascade_place(ctx, ps, tail, (CXL,) + tuple(
                    t for t in self.alloc_order if t != CXL
                ))
            if head.size:
                cascade_place(ctx, ps, head, self.alloc_order)
        else:
            cascade_place(ctx, ps, unmapped, self.alloc_order)

    # ------------------------------------------------------------------ #
    # movement daemon
    # ------------------------------------------------------------------ #
    def tick(self, ctx: PolicyContext) -> None:
        self._demote_under_pressure(ctx)
        self._promote_hot(ctx)

    def _demote_under_pressure(self, ctx: PolicyContext) -> None:
        mem = ctx.memory
        cap = mem.capacity(DRAM)
        if cap <= 0 or mem.rss(DRAM) <= self.high_watermark * cap:
            return
        target = int(mem.rss(DRAM) - self.low_watermark * cap)
        self.make_room(ctx, target)

    def _promote_hot(self, ctx: PolicyContext) -> None:
        """Promote the hottest slow-tier chunks into free DRAM (budgeted)."""
        mem = ctx.memory
        cap = mem.capacity(DRAM)
        if cap <= 0:
            return
        budget_bytes = int(cap * self.promote_budget_fraction)
        for ps in list(mem.pagesets()):
            if budget_bytes <= 0:
                break
            room = mem.free(DRAM) // ps.chunk_size
            if room <= 0:
                break
            max_chunks = min(room, budget_bytes // ps.chunk_size)
            for tier in (CXL, PMEM):
                if max_chunks <= 0:
                    break
                hot = ps.hottest_in(tier, max_chunks, min_temperature=self.promote_threshold)
                if hot.size == 0:
                    continue
                moved = mem.migrate(ps, hot, DRAM)
                # NUMA-hinting promotion shows up as minor faults
                ctx.record_minor(ps.owner, int(hot.size))
                obs.counter("policy.promotions", int(hot.size), policy=self.name)
                budget_bytes -= moved
                max_chunks -= hot.size

    def make_room(self, ctx: PolicyContext, nbytes: int, protect: Optional[str] = None) -> int:
        """Demote the globally-coldest DRAM chunks to the next tier with
        room; fall through to swap only when every tier is full."""
        if nbytes <= 0:
            return 0
        mem = ctx.memory
        any_ps = next(iter(mem.pagesets()), None)
        if any_ps is None:
            return 0
        chunk_size = any_ps.chunk_size
        need_chunks = -(-nbytes // chunk_size)
        freed = 0
        victims = global_coldest(ctx, DRAM, need_chunks, scan_noise=self.scan_noise)
        demote_order = [t for t in self.alloc_order if t != DRAM]
        for ps, idx in victims:
            remaining = idx
            for tier in demote_order:
                if remaining.size == 0:
                    break
                room = max(0, mem.free(tier)) // ps.chunk_size
                take = remaining[: int(room)]
                if take.size:
                    freed += mem.migrate(ps, take, tier)
                    obs.counter("policy.demotions", int(take.size), policy=self.name)
                    remaining = remaining[take.size:]
            if remaining.size:
                freed += mem.swap_out(ps, remaining)
                obs.counter("policy.swap_outs", int(remaining.size), policy=self.name)
        return freed
