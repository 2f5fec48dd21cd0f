"""Intelligent page movement and proactive swapping (§III-C4).

The movement daemon does four things each tick, in order:

1. **Promotion** — pages "previously identified as cold but later
   categorized as hot" move up: swap→DRAM (as minor faults when shadowed,
   background-major otherwise), PMem→CXL/DRAM, CXL→DRAM, budget-limited
   by the staging buffers.
2. **Proactive swap** — above a DRAM utilisation threshold, cold pages of
   non-latency-sensitive workflows move to CXL *before* pressure forces
   reactive eviction; DRAM shadow copies are kept in the page cache when
   room remains, so re-touching them costs only a minor fault.
3. **Reactive replacement** — if DRAM is still over its high watermark,
   Algorithm 2 (:class:`~repro.core.replacement.PageReplacementPolicy`)
   runs with its workflow-aware victim filtering.
4. **Compaction** — a compaction pass is recorded when proactive swapping
   freed enough space to matter (§III-C4's fragmentation reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import obs
from ..memory.pageset import DEFAULT_CHUNK_SIZE
from ..obs import insight as _insight
from ..memory.tiers import CXL, DRAM, PMEM, SWAP
from ..policies.base import PolicyContext
from ..util.validation import check_fraction, check_positive, require
from .flags import MemFlag
from .replacement import PageReplacementPolicy, is_protected

__all__ = ["MovementConfig", "IntelligentPageMovement"]


@dataclass(frozen=True)
class MovementConfig:
    """Thresholds and budgets for the movement daemon."""

    #: DRAM rss fraction above which proactive swapping starts.
    proactive_threshold: float = 0.85
    #: DRAM rss fraction proactive swapping drives down to.
    proactive_target: float = 0.78
    #: DRAM rss fraction that triggers reactive (Alg. 2) replacement.
    high_watermark: float = 0.96
    low_watermark: float = 0.90
    #: minimum temperature for a slow-tier chunk to be promotion-worthy.
    promote_threshold: float = 0.05
    #: temperature bar for *exchange* promotion (evicting resident DRAM
    #: pages to make room); higher than promote_threshold to avoid
    #: ping-ponging lukewarm pages.
    exchange_threshold: float = 0.20
    #: temperature below which a DRAM chunk counts as proactively-swappable.
    cold_threshold: float = 0.01
    #: deprecated alias for :attr:`compaction_min_bytes` (in units of
    #: :data:`~repro.memory.pageset.DEFAULT_CHUNK_SIZE`); kept so old
    #: configs keep constructing.  Prefer ``compaction_min_bytes``.
    compaction_min_chunks: int = 16
    #: record a compaction when a tick frees at least this many bytes.
    #: Defaults to ``compaction_min_chunks * DEFAULT_CHUNK_SIZE``.  Bytes,
    #: not chunks: a node can host pagesets with different chunk sizes, so
    #: thresholding on an arbitrary pageset's chunk size mis-fires.
    compaction_min_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        check_fraction(self.proactive_threshold, "proactive_threshold")
        check_fraction(self.proactive_target, "proactive_target")
        check_fraction(self.high_watermark, "high_watermark")
        check_fraction(self.low_watermark, "low_watermark")
        require(self.proactive_target <= self.proactive_threshold, "target above threshold")
        require(self.low_watermark <= self.high_watermark, "low watermark above high")
        check_positive(self.compaction_min_chunks, "compaction_min_chunks")
        if self.compaction_min_bytes is None:
            object.__setattr__(
                self,
                "compaction_min_bytes",
                int(self.compaction_min_chunks) * DEFAULT_CHUNK_SIZE,
            )
        check_positive(self.compaction_min_bytes, "compaction_min_bytes")


class IntelligentPageMovement:
    """The per-tick movement engine behind the IMME environment."""

    def __init__(
        self,
        owner_flags: Callable[[str], MemFlag],
        replacement: PageReplacementPolicy,
        config: MovementConfig | None = None,
    ) -> None:
        self.owner_flags = owner_flags
        self.replacement = replacement
        self.config = config if config is not None else MovementConfig()

    # ------------------------------------------------------------------ #
    def tick(self, ctx: PolicyContext, promote_budget_bytes: int) -> None:
        """One daemon pass; ``promote_budget_bytes`` is the staging-buffer
        capacity the manager grants this tick.

        Under ``arena-fast`` the promote/proactive stages run as
        whole-node batched kernels (one masked scan per tier) instead of
        per-pageset loops — statistically equivalent, not byte-identical
        (see ``tests/test_arena_fast.py``).
        """
        mem = ctx.memory
        if mem.fast_core:
            freed = self._tick_fast(ctx, promote_budget_bytes)
        else:
            # cause scopes label the migration ledger: every movement the
            # stage triggers (including nested reclaims / exchange
            # evictions) is attributed to the stage that decided it
            with _insight.cause("promote"):
                self._promote(ctx, promote_budget_bytes)
            with _insight.cause("proactive"):
                freed = self._proactive_swap(ctx)
            with _insight.cause("reactive"):
                self._reactive(ctx)
        if freed >= self.config.compaction_min_bytes:
            mem.compact()

    # ------------------------------------------------------------------ #
    # promotion
    # ------------------------------------------------------------------ #
    def _promote(self, ctx: PolicyContext, budget_bytes: int) -> None:
        mem = ctx.memory
        arena = mem.arena
        cfg = self.config
        # Running room counters replace the mem.free() re-read per pageset:
        # every migration's effect on free space is a closed-form delta
        # (moved bytes, minus any DRAM shadows the move dropped), so the
        # counters stay bit-exact against the re-read while the loop does
        # O(tasks) fewer accounting passes.
        # Pass 1 — swap-resident hot pages, globally, before anything else:
        # these are the most damaging, and must not be starved by
        # streaming workloads' tier-to-tier churn.
        room_bytes = {t: mem.free(t) for t in (DRAM, CXL, PMEM)}
        for ps in list(mem.pagesets()):
            if budget_bytes <= 0:
                return
            # all-cold pagesets can never clear promote_threshold, so skip
            # the candidate scan outright (idle tasks dominate large nodes)
            if cfg.promote_threshold > 0 and not ps.temperature.any():
                continue
            hot_swap = arena.hot_chunks(
                ps, SWAP, budget_bytes // ps.chunk_size, min_temperature=cfg.promote_threshold
            )
            if hot_swap.size:
                moved_idx = self._pull_up(ctx, ps, hot_swap, room_bytes=room_bytes)
                if moved_idx.size:
                    obs.counter("imme.promotions", int(moved_idx.size), source="swap")
                    # shadowed swap-ins are free remaps (minor); the rest
                    # were brought in by the background daemon, which the
                    # paper counts as converting major faults into minors.
                    ctx.record_minor(ps.owner, int(moved_idx.size))
                    budget_bytes -= int(moved_idx.size) * ps.chunk_size
        # Pass 2 — PMem/CXL hot pages move toward DRAM.
        dram_free = mem.free(DRAM)
        cxl_free = mem.free(CXL)
        for ps in list(mem.pagesets()):
            if budget_bytes <= 0:
                return
            if cfg.promote_threshold > 0 and not ps.temperature.any():
                continue
            for tier in (PMEM, CXL):
                hot = arena.hot_chunks(
                    ps, tier, budget_bytes // ps.chunk_size,
                    min_temperature=cfg.promote_threshold,
                )
                if hot.size == 0:
                    continue
                room = max(0, dram_free) // ps.chunk_size
                if room < hot.size:
                    # exchange: very hot slow-tier pages displace cold DRAM
                    # pages (demoted via Algorithm 2, never swapped blindly)
                    very_hot = hot[ps.temperature[hot] >= cfg.exchange_threshold]
                    want = int(very_hot.size) - int(room)
                    if want > 0:
                        self.replacement.replace(
                            ctx, want * ps.chunk_size, protect_owner=ps.owner
                        )
                        # replacement demotes through CXL/PMem and may swap:
                        # resync both counters from ground truth
                        dram_free = mem.free(DRAM)
                        cxl_free = mem.free(CXL)
                        room = max(0, dram_free) // ps.chunk_size
                take = hot[: int(room)]
                if tier is PMEM and take.size < hot.size and cxl_free > 0:
                    # heatmap-driven PMem→CXL rebalance when DRAM is full:
                    # CXL is the faster of the two in the testbed.
                    spill = hot[take.size:]
                    spill_room = max(0, cxl_free) // ps.chunk_size
                    spill = spill[: int(spill_room)]
                    if spill.size:
                        mem.migrate(ps, spill, CXL)
                        cxl_free -= int(spill.size) * ps.chunk_size
                        ctx.record_minor(ps.owner, int(spill.size))
                        budget_bytes -= int(spill.size) * ps.chunk_size
                if take.size:
                    # arriving in DRAM drops any shadows take carried, so
                    # the net DRAM cost is the moved bytes minus the
                    # page-cache bytes the move released
                    shadowed = int(np.count_nonzero(ps.in_page_cache[take]))
                    mem.migrate(ps, take, DRAM)
                    dram_free -= (int(take.size) - shadowed) * ps.chunk_size
                    if tier is CXL:
                        cxl_free += int(take.size) * ps.chunk_size
                    ctx.record_minor(ps.owner, int(take.size))
                    obs.counter("imme.promotions", int(take.size), source=tier.name.lower())
                    budget_bytes -= int(take.size) * ps.chunk_size
                if budget_bytes <= 0:
                    return

    def _pull_up(
        self,
        ctx: PolicyContext,
        ps,
        idx: np.ndarray,
        room_bytes: Optional[dict] = None,
    ) -> np.ndarray:
        """Move swap chunks into the fastest tiers with room; returns the
        chunks actually moved.  ``room_bytes`` lets the promotion loop
        thread running free-space counters across pagesets instead of
        re-deriving them from the accounting each call (bit-exact)."""
        mem = ctx.memory
        if room_bytes is None:
            room_bytes = {t: mem.free(t) for t in (DRAM, CXL, PMEM)}
        moved = []
        remaining = idx
        for tier in (DRAM, CXL, PMEM):
            if remaining.size == 0:
                break
            room = max(0, room_bytes[tier]) // ps.chunk_size
            take = remaining[: int(room)]
            if take.size:
                shadowed = (
                    int(np.count_nonzero(ps.in_page_cache[take])) if tier is DRAM else 0
                )
                mem.migrate(ps, take, tier)
                room_bytes[tier] -= (int(take.size) - shadowed) * ps.chunk_size
                moved.append(take)
                remaining = remaining[take.size:]
        return np.concatenate(moved) if moved else idx[:0]

    # ------------------------------------------------------------------ #
    # proactive swapping
    # ------------------------------------------------------------------ #
    def _proactive_swap(self, ctx: PolicyContext) -> int:
        """Move cold, unprotected DRAM pages to CXL ahead of pressure.

        Pages from latency-sensitive/short-lived workflows are skipped
        entirely at this stage; their pageable remainder is only touched
        by reactive replacement when nothing else is left.
        """
        mem = ctx.memory
        cfg = self.config
        cap = mem.capacity(DRAM)
        if cap <= 0 or mem.capacity(CXL) <= 0:
            return 0
        rss = mem.rss(DRAM)
        if rss <= cfg.proactive_threshold * cap:
            return 0
        target_free = int(rss - cfg.proactive_target * cap)
        freed = 0
        # running CXL-room counter: a DRAM→CXL migration consumes exactly
        # the moved bytes of CXL free space (shadow inserts only touch
        # DRAM), so the re-read per pageset is redundant (bit-exact)
        cxl_free = mem.free(CXL)
        for ps in list(mem.pagesets()):
            if freed >= target_free:
                break
            if is_protected(self.owner_flags(ps.owner)):
                continue
            need_chunks = -(-(target_free - freed) // ps.chunk_size)
            cold = mem.arena.cold_chunks(
                ps, DRAM, need_chunks, max_temperature=cfg.cold_threshold
            )
            if cold.size == 0:
                continue
            room = max(0, cxl_free) // ps.chunk_size
            cold = cold[: int(room)]
            if cold.size == 0:
                break
            moved = mem.migrate(ps, cold, CXL)
            freed += moved
            cxl_free -= moved
            obs.counter("imme.proactive_swaps", int(cold.size))
            # keep page-cache shadows while DRAM still has free space, so a
            # re-touch is a minor fault served at DRAM speed (§III-C4)
            mem.add_page_cache_shadow(ps, cold)
        return freed

    # ------------------------------------------------------------------ #
    # reactive replacement (Algorithm 2)
    # ------------------------------------------------------------------ #
    def _reactive(self, ctx: PolicyContext) -> None:
        mem = ctx.memory
        cfg = self.config
        cap = mem.capacity(DRAM)
        if cap <= 0:
            return
        rss = mem.rss(DRAM)
        if rss > cfg.high_watermark * cap:
            obs.counter("imme.reactive_passes")
            self.replacement.replace(ctx, int(rss - cfg.low_watermark * cap))

    # ------------------------------------------------------------------ #
    # arena-fast: whole-node batched tick (REPRO_CORE=arena-fast)
    #
    # The exact path above must interleave candidate scans with the
    # migrations they trigger (later pagesets observe earlier moves), so
    # it walks pagesets one at a time.  This path instead takes one
    # pre-pass snapshot per tier — candidates for all tasks in a single
    # masked argpartition, budget apportioned by hotness rank across
    # tasks, byte-cumsum prefix cuts against room/budget — and commits
    # moves through NodeMemorySystem.migrate_positions.  Differences vs
    # the exact path (all statistical, banded in tests/test_arena_fast.py):
    # promotion order is globally hottest-first instead of
    # registration-then-hotness, exchange eviction sizes from the
    # cross-task very-hot deficit without protecting the promoting owner,
    # and free-space is observed once per stage instead of per pageset.
    # ------------------------------------------------------------------ #
    def _tick_fast(self, ctx: PolicyContext, budget_bytes: int) -> int:
        """One batched daemon pass; returns proactively-freed bytes."""
        arena = ctx.memory.arena
        arena.refresh_protection(lambda owner: is_protected(self.owner_flags(owner)))
        with _insight.cause("promote"):
            self._promote_fast(ctx, budget_bytes)
        with _insight.cause("proactive"):
            freed = self._proactive_swap_fast(ctx)
        with _insight.cause("reactive"):
            self._reactive(ctx)
        return freed

    def _promote_fast(self, ctx: PolicyContext, budget_bytes: int) -> None:
        mem = ctx.memory
        arena = mem.arena
        cfg = self.config
        min_cs = arena.min_chunk_size()
        if budget_bytes <= 0 or min_cs <= 0:
            return
        # Pass 1 — swap-resident hot pages, hottest-first across all tasks.
        hot = arena.hot_by_tier(
            SWAP, budget_bytes // min_cs, min_temperature=cfg.promote_threshold
        )
        if hot.size:
            cum = np.cumsum(arena.chunk_cost(hot))
            hot = hot[: int(np.searchsorted(cum, budget_bytes, side="right"))]
        if hot.size:
            budget_bytes -= self._pull_up_fast(ctx, hot)
        # Pass 2 — PMem/CXL hot pages toward DRAM.
        for tier in (PMEM, CXL):
            if budget_bytes < min_cs:
                return
            hot = arena.hot_by_tier(
                tier, budget_bytes // min_cs, min_temperature=cfg.promote_threshold
            )
            if hot.size == 0:
                continue
            cum = np.cumsum(arena.chunk_cost(hot))
            hot = hot[: int(np.searchsorted(cum, budget_bytes, side="right"))]
            if hot.size == 0:
                continue
            cum = cum[: hot.size]
            dram_free = max(0, mem.free(DRAM))
            fit = int(np.searchsorted(cum, dram_free, side="right"))
            if fit < hot.size:
                # exchange: the cross-task very-hot byte deficit sizes one
                # Algorithm 2 eviction for the whole tier (masked
                # sub-selection instead of a per-task replace call)
                very_hot = hot[arena.temperature[hot] >= cfg.exchange_threshold]
                want = int(arena.chunk_cost(very_hot).sum()) - dram_free
                if want > 0:
                    self.replacement.replace(ctx, want)
                    dram_free = max(0, mem.free(DRAM))
                    fit = int(np.searchsorted(cum, dram_free, side="right"))
            take = hot[:fit]
            if tier is PMEM and fit < hot.size:
                # heatmap-driven PMem→CXL rebalance when DRAM is full
                cxl_free = max(0, mem.free(CXL))
                if cxl_free > 0:
                    spill = hot[fit:]
                    scum = np.cumsum(arena.chunk_cost(spill))
                    spill = spill[: int(np.searchsorted(scum, cxl_free, side="right"))]
                    if spill.size:
                        budget_bytes -= mem.migrate_positions(spill, CXL)
                        for owner, n in arena.owner_chunk_counts(spill):
                            ctx.record_minor(owner, n)
            if take.size:
                budget_bytes -= mem.migrate_positions(take, DRAM)
                for owner, n in arena.owner_chunk_counts(take):
                    ctx.record_minor(owner, n)
                obs.counter("imme.promotions", int(take.size), source=tier.name.lower())

    def _pull_up_fast(self, ctx: PolicyContext, positions: np.ndarray) -> int:
        """Batched swap pull-up: fill DRAM→CXL→PMem by byte-room prefix
        over the hottest-first candidate order.  Returns bytes moved."""
        mem = ctx.memory
        arena = mem.arena
        cum = np.cumsum(arena.chunk_cost(positions))
        moved_bytes = 0
        start = 0
        for tier in (DRAM, CXL, PMEM):
            if start >= positions.size:
                break
            room = max(0, mem.free(tier))
            base = int(cum[start - 1]) if start else 0
            end = int(np.searchsorted(cum, base + room, side="right"))
            take = positions[start:end]
            if take.size:
                moved_bytes += mem.migrate_positions(take, tier)
                start = end
        moved = positions[:start]
        if moved.size:
            obs.counter("imme.promotions", int(moved.size), source="swap")
            for owner, n in arena.owner_chunk_counts(moved):
                ctx.record_minor(owner, n)
        return moved_bytes

    def _proactive_swap_fast(self, ctx: PolicyContext) -> int:
        """Batched proactive swap: one protected-aware cold scan of DRAM,
        prefix-cut to the free target and the CXL room, one batched
        migrate + shadow commit.  Returns bytes freed."""
        mem = ctx.memory
        arena = mem.arena
        cfg = self.config
        cap = mem.capacity(DRAM)
        if cap <= 0 or mem.capacity(CXL) <= 0:
            return 0
        rss = mem.rss(DRAM)
        if rss <= cfg.proactive_threshold * cap:
            return 0
        min_cs = arena.min_chunk_size()
        if min_cs <= 0:
            return 0
        target_free = int(rss - cfg.proactive_target * cap)
        cold = arena.cold_by_tier(
            DRAM,
            -(-target_free // min_cs),
            max_temperature=cfg.cold_threshold,
            skip_protected=True,
        )
        if cold.size == 0:
            return 0
        cum = np.cumsum(arena.chunk_cost(cold))
        # enough of the coldest chunks to reach the target...
        k = min(int(np.searchsorted(cum, target_free, side="left")) + 1, cold.size)
        # ...capped by what CXL can absorb
        k = min(k, int(np.searchsorted(cum, max(0, mem.free(CXL)), side="right")))
        take = cold[:k]
        if take.size == 0:
            return 0
        freed = mem.migrate_positions(take, CXL)
        obs.counter("imme.proactive_swaps", int(take.size))
        # keep page-cache shadows while DRAM still has free space, so a
        # re-touch is a minor fault served at DRAM speed (§III-C4)
        mem.add_page_cache_shadows_batch(take)
        return freed
