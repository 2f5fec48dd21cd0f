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
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .. import obs
from ..memory.pageset import DEFAULT_CHUNK_SIZE
from ..obs import insight as _insight
from ..memory.tiers import CXL, DRAM, PMEM, SWAP, TierKind
from ..policies.base import PolicyContext
from ..resilience import invariants as inv
from ..util.validation import check_fraction, check_positive, require
from .flags import MemFlag
from .replacement import PageReplacementPolicy, is_protected

__all__ = ["MovementConfig", "IntelligentPageMovement"]

#: a query that finds nothing (frozen so a caller can never mutate it)
_NONE = np.empty(0, dtype=np.intp)
_NONE.setflags(write=False)


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
    #: record a compaction when a tick frees at least this many bytes.
    #: Bytes, not chunks: a node can host pagesets with different chunk
    #: sizes, so thresholding on an arbitrary pageset's chunk size mis-fires.
    compaction_min_bytes: int = 16 * DEFAULT_CHUNK_SIZE

    def __post_init__(self) -> None:
        check_fraction(self.proactive_threshold, "proactive_threshold")
        check_fraction(self.proactive_target, "proactive_target")
        check_fraction(self.high_watermark, "high_watermark")
        check_fraction(self.low_watermark, "low_watermark")
        require(self.proactive_target <= self.proactive_threshold, "target above threshold")
        require(self.low_watermark <= self.high_watermark, "low watermark above high")
        check_positive(self.compaction_min_bytes, "compaction_min_bytes")


class _Candidates:
    """One promote pass's candidates: every chunk below DRAM at or above
    the promotion bar, taken in one whole-node pass
    (:meth:`~repro.core.arena.NodeArena.promotion_candidates`).

    Temperatures do not change inside a daemon tick, only tiers do, so a
    query for (task, tier, k) keeps the task's candidates now in ``tier``
    and selects the ``k`` hottest: ``hottest_in(tier, k,
    min_temperature=bar)`` by construction.  ``held`` has the tiers each
    task holds candidates in, and a pair outside it costs no numpy call.
    A task's candidates are listed when it is first queried, since the
    pass's budget often runs out after a few tasks.  Pull-ups and spills
    move only candidates and mark where they land; an exchange's
    demotions can make new ones, so the pass derives the set again after
    each.  Under the invariant checker every query is checked against
    ``hottest_in``.
    """

    __slots__ = ("arena", "bar", "warm", "held", "listed", "checker")

    def __init__(self, arena, bar: float) -> None:
        self.arena = arena
        self.bar = bar
        checker = inv.active()
        self.checker = checker if checker.enabled else None
        self.derive()

    def derive(self) -> None:
        self.warm, self.held = self.arena.promotion_candidates(self.bar)
        self.listed: dict[int, np.ndarray] = {}

    def holding(self, entries: list) -> Iterator:
        """The ``entries`` holding a candidate, in order, each checked when
        the pass reaches it; all of them under the checker, which then
        checks that the others' queries come back empty."""
        for entry in entries:
            if self.checker is not None or entry.slot in self.held:
                yield entry

    def mark(self, slot: int, tiers: Iterable[int]) -> None:
        """Candidates of task ``slot`` moved into ``tiers``."""
        for tier in tiers:
            self.held[slot] |= 1 << tier

    def hottest(self, entry, tier: TierKind, k: int) -> np.ndarray:
        """``entry.ps.hottest_in(tier, k, min_temperature=bar)``, taken
        from the candidates."""
        ps = entry.ps
        t = int(tier)
        if k > 0 and self.held.get(entry.slot, 0) >> t & 1:
            cand = self.listed.get(entry.slot)
            if cand is None:  # local indices, ascending
                cand = np.flatnonzero(self.warm[entry.start : entry.start + entry.n])
                self.listed[entry.slot] = cand
            cand = ps.hottest_of(cand[ps.tier[cand] == t], k)
        else:
            cand = _NONE
        checker = self.checker
        if checker is not None:
            checker.candidates(
                f"{ps.owner} in {tier.name} on {self.arena.node_id}",
                cand, ps.hottest_in(tier, k, min_temperature=self.bar),
            )
        return cand


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
        capacity the manager grants this tick."""
        # cause scopes label the migration ledger: every movement the
        # stage triggers (including nested reclaims / exchange evictions)
        # is attributed to the stage that decided it
        with _insight.cause("promote"):
            self._promote(ctx, promote_budget_bytes)
        with _insight.cause("proactive"):
            freed = self._proactive_swap(ctx)
        with _insight.cause("reactive"):
            self._reactive(ctx)
        if freed >= self.config.compaction_min_bytes:
            ctx.memory.compact()

    # ------------------------------------------------------------------ #
    # promotion
    # ------------------------------------------------------------------ #
    def _promote(self, ctx: PolicyContext, budget_bytes: int) -> None:
        mem = ctx.memory
        cfg = self.config
        # Running room counters replace the mem.free() re-read per pageset:
        # every migration's effect on free space is a closed-form delta
        # (moved bytes, minus any DRAM shadows the move dropped), so the
        # counters stay bit-exact against the re-read while the loop does
        # O(tasks) fewer accounting passes.  Likewise the candidates come
        # from one whole-node pass, and a (task, tier) pair without one
        # gets no scan (on a busy node most tasks have none in any slow
        # tier, and most ticks find none at all).
        cands = _Candidates(mem.arena, cfg.promote_threshold)
        if not cands.held and cands.checker is None:
            return  # the passes below would move and count nothing
        entries = list(mem.arena.entries())
        # Pass 1 — swap-resident hot pages, globally, before anything else:
        # these are the most damaging, and must not be starved by
        # streaming workloads' tier-to-tier churn.
        room_bytes = {t: mem.free(t) for t in (DRAM, CXL, PMEM)}
        for entry in cands.holding(entries):
            if budget_bytes <= 0:
                return
            ps = entry.ps
            hot_swap = cands.hottest(entry, SWAP, budget_bytes // ps.chunk_size)
            if hot_swap.size:
                moved_idx = self._pull_up(ctx, ps, hot_swap, room_bytes=room_bytes)
                if moved_idx.size:
                    # a chunk pulled up past DRAM is a candidate where it landed
                    cands.mark(entry.slot, np.unique(ps.tier[moved_idx]).tolist())
                    obs.counter("imme.promotions", int(moved_idx.size), source="swap")
                    # shadowed swap-ins are free remaps (minor); the rest
                    # were brought in by the background daemon, which the
                    # paper counts as converting major faults into minors.
                    ctx.record_minor(ps.owner, int(moved_idx.size))
                    budget_bytes -= int(moved_idx.size) * ps.chunk_size
        # Pass 2 — PMem/CXL hot pages move toward DRAM.
        dram_free = mem.free(DRAM)
        cxl_free = mem.free(CXL)
        for entry in cands.holding(entries):
            if budget_bytes <= 0:
                return
            ps = entry.ps
            for tier in (PMEM, CXL):
                cand = cands.hottest(entry, tier, budget_bytes // ps.chunk_size)
                if cand.size == 0:
                    continue
                room = max(0, dram_free) // ps.chunk_size
                if room < cand.size:
                    # exchange: very hot slow-tier pages displace cold DRAM
                    # pages (demoted via Algorithm 2, never swapped blindly)
                    very_hot = cand[ps.temperature[cand] >= cfg.exchange_threshold]
                    want = int(very_hot.size) - int(room)
                    if want > 0:
                        self.replacement.replace(
                            ctx, want * ps.chunk_size, protect_owner=ps.owner
                        )
                        # replacement demotes through CXL/PMem and may swap:
                        # resync both counters from ground truth, and
                        # the candidates, since a demoted chunk can be warm
                        dram_free = mem.free(DRAM)
                        cxl_free = mem.free(CXL)
                        room = max(0, dram_free) // ps.chunk_size
                        cands.derive()
                take = cand[: int(room)]
                if tier is PMEM and take.size < cand.size and cxl_free > 0:
                    # heatmap-driven PMem→CXL rebalance when DRAM is full:
                    # CXL is the faster of the two in the testbed.
                    spill = cand[take.size:]
                    spill_room = max(0, cxl_free) // ps.chunk_size
                    spill = spill[: int(spill_room)]
                    if spill.size:
                        mem.migrate(ps, spill, CXL)
                        # the spilled chunks are CXL candidates of this task
                        cands.mark(entry.slot, (CXL,))
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
            cold = ps.coldest_in(DRAM, need_chunks, max_temperature=cfg.cold_threshold)
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
