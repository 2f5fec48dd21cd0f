"""The Tiered Memory Manager (§III-C1) — the paper's runtime, as a policy.

One manager instance runs per node (the paper deploys "a manager and a
client ... on the cluster nodes").  Its responsibilities map one-to-one to
the paper's list:

1. *identify memory types* / 2. *categorize into tiers* —
   :meth:`classify_tiers` orders discovered :class:`TierSpec` objects by
   access latency;
3. *create staging buffers on each tier* — fair-share slices reserved for
   transparent data movement, sized by :attr:`staging_fraction`;
4. *dynamically adjust buffers* — each tick the buffers shrink under tier
   pressure and regrow when utilisation falls (§III-C1), throttling how
   much the movement daemon may migrate per tick;
5. *track page hotness* — the node agent's
   :class:`~repro.core.heatmap.PageHeatmap` advances every page's
   temperature each daemon tick, and those temperatures drive every
   promotion/demotion decision.

Placement requests flow through Algorithm 1
(:class:`~repro.core.allocation.TierAllocator`), evictions through
Algorithm 2 (:class:`~repro.core.replacement.PageReplacementPolicy`), and
tick-time movement through
:class:`~repro.core.movement.IntelligentPageMovement`.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

import numpy as np

from ..memory.pageset import UNMAPPED, PageSet
from ..memory.tiers import CXL, DRAM, MEMORY_TIERS, PMEM, TierKind, TierSpec
from ..obs import insight as _insight
from ..policies.base import (
    AllocationRequest,
    MemoryPolicy,
    PolicyContext,
    stripe_assignment,
)
from ..util.errors import OutOfMemoryError
from ..util.validation import check_fraction, require
from .allocation import AllocationPlan, EvictableMap, TierAllocator
from .flags import MemFlag
from .movement import IntelligentPageMovement, MovementConfig
from .predictor import FlagPredictor
from .replacement import PageReplacementPolicy

__all__ = ["TieredMemoryManager", "classify_tiers"]


def classify_tiers(specs: Mapping[TierKind, TierSpec]) -> tuple[TierKind, ...]:
    """Order byte-addressable tiers by access latency, fastest first —
    the manager's tier classification step.  DRAM is asserted primary."""
    tiers = sorted(
        (t for t in MEMORY_TIERS if specs[t].capacity > 0),
        key=lambda t: specs[t].latency,
    )
    require(len(tiers) > 0, "no byte-addressable tier has capacity")
    require(tiers[0] == DRAM, "DRAM must be the primary (fastest) tier")
    return tuple(tiers)


class TieredMemoryManager(MemoryPolicy):
    """Application-attuned memory policy (the IMME environment's brain)."""

    name = "tiered-memory-manager"

    def __init__(
        self,
        specs: Mapping[TierKind, TierSpec],
        *,
        predictor: Optional[FlagPredictor] = None,
        movement_config: Optional[MovementConfig] = None,
        pin_fraction: float = 0.60,
        staging_fraction: float = 0.02,
        prefault_heat: float = 0.10,
        cold_threshold: float = 0.01,
    ) -> None:
        check_fraction(pin_fraction, "pin_fraction")
        check_fraction(staging_fraction, "staging_fraction")
        self.specs = dict(specs)
        self.tier_order = classify_tiers(specs)
        self.predictor = predictor if predictor is not None else FlagPredictor()
        self.allocator = TierAllocator(specs, self.predictor)
        self.replacement = PageReplacementPolicy(self.flags_of)
        self.movement = IntelligentPageMovement(
            self.flags_of, self.replacement, movement_config
        )
        self.pin_fraction = pin_fraction
        self.staging_fraction = staging_fraction
        self.prefault_heat = prefault_heat
        self.cold_threshold = cold_threshold
        self._owner_flags: dict[str, MemFlag] = {}
        #: staging-buffer bytes per tier (responsibility 3), tick-adjusted.
        self.staging_buffers: dict[TierKind, int] = {
            t: int(self.specs[t].capacity * staging_fraction) for t in MEMORY_TIERS
        }

    # ------------------------------------------------------------------ #
    # flag registry
    # ------------------------------------------------------------------ #
    def flags_of(self, owner: str) -> MemFlag:
        return self._owner_flags.get(owner, MemFlag.NONE)

    def register_workflow(self, owner: str, flags: MemFlag) -> None:
        self._owner_flags[owner] = flags

    def finish_workflow(self, owner: str, ps: PageSet, duration: float) -> None:
        """Task teardown: learn the heat profile for future predictions and
        drop registry state."""
        flags = self.flags_of(owner)
        bw_weight = 0.5 if MemFlag.BW in flags else 0.0
        key = owner.rsplit("#", 1)[0]  # strip instance suffix → spec identity
        self.predictor.learn(key, ps, duration, bw_weight=bw_weight)
        self._owner_flags.pop(owner, None)
        self.allocator.forget(owner)

    # ------------------------------------------------------------------ #
    # MemoryPolicy: placement (Algorithm 1 realized onto chunks)
    # ------------------------------------------------------------------ #
    def place(self, ctx: PolicyContext, ps: PageSet, request: AllocationRequest) -> None:
        owner = request.owner
        if owner not in self._owner_flags or request.region == 0:
            self.register_workflow(owner, request.flags)
        idx = ctx.region_chunks(ps, request.region)
        unmapped = idx[ps.tier[idx] == UNMAPPED]
        if unmapped.size == 0:
            return
        nbytes = int(unmapped.size) * ps.chunk_size
        ev = self._evictable_map(ctx, protect_owner=owner)
        plan = self.allocator.tier_alloc(owner, nbytes, request.flags, ev)
        self._realize(ctx, ps, unmapped, plan)

    def _evictable_map(self, ctx: PolicyContext, protect_owner: str) -> EvictableMap:
        """Free + cold-evictable bytes per tier, minus the staging reserve.

        The cold bytes come from one composite bincount over the node
        arena instead of a per-tier x per-task scan.
        """
        mem = ctx.memory
        ev = EvictableMap()
        cold_bytes = mem.arena.evictable_bytes(
            MEMORY_TIERS, self.cold_threshold, protect_owner=protect_owner
        )
        for tier in MEMORY_TIERS:
            free = max(0, mem.free(tier) - self.staging_buffers.get(tier, 0))
            ev.available[tier] = free + cold_bytes[tier]
        return ev

    def _realize(
        self, ctx: PolicyContext, ps: PageSet, unmapped: np.ndarray, plan: AllocationPlan
    ) -> None:
        """Map the byte plan onto concrete chunks.

        Chunk order within an allocation is hot-first by the pattern
        convention, so flags are consumed in priority order: LAT/SHL get
        the leading (hottest-expected) chunks, BW the middle, CAP the
        tail.  LAT/SHL chunks cascade fastest-tier-first with a pinned
        head (Fig. 4); BW chunks stripe round-robin across their tiers.
        """
        cursor = 0
        order = (MemFlag.LAT, MemFlag.SHL, MemFlag.BW, MemFlag.CAP)
        present = [f for f in order if f in plan.per_flag]
        for pos, flag in enumerate(present):
            if pos == len(present) - 1:
                chunks = unmapped[cursor:]
            else:
                n = int(round(plan.bytes_for(flag) / ps.chunk_size))
                n = min(n, unmapped.size - cursor)
                chunks = unmapped[cursor : cursor + n]
            cursor += chunks.size
            if chunks.size == 0:
                continue
            counts = self._chunk_counts(plan.per_flag[flag], chunks.size)
            if flag in (MemFlag.LAT, MemFlag.SHL):
                self._place_cascading(ctx, ps, chunks, counts, pin=True)
            elif flag is MemFlag.BW:
                self._place_striped(ctx, ps, chunks, counts)
            else:
                self._place_cascading(ctx, ps, chunks, counts, pin=False)

    @staticmethod
    def _chunk_counts(tier_bytes: Mapping[TierKind, int], n_chunks: int) -> dict[TierKind, int]:
        """Largest-remainder conversion of a byte map into exact chunk counts."""
        total = sum(tier_bytes.values())
        if total <= 0:
            return {DRAM: n_chunks}
        raw = {t: n_chunks * b / total for t, b in tier_bytes.items()}
        counts = {t: int(math.floor(v)) for t, v in raw.items()}
        short = n_chunks - sum(counts.values())
        for t in sorted(raw, key=lambda t: raw[t] - counts[t], reverse=True)[:short]:
            counts[t] += 1
        return {t: c for t, c in counts.items() if c > 0}

    def _place_cascading(
        self,
        ctx: PolicyContext,
        ps: PageSet,
        chunks: np.ndarray,
        counts: Mapping[TierKind, int],
        *,
        pin: bool,
    ) -> None:
        mem = ctx.memory
        remaining = chunks
        carry = 0
        for tier in self.tier_order:
            want = counts.get(tier, 0) + carry
            carry = 0
            if want <= 0 or remaining.size == 0:
                continue
            take = remaining[: min(want, remaining.size)]
            self._ensure_room(ctx, tier, int(take.size) * ps.chunk_size, ps.owner)
            placed = int(min(max(0, mem.free(tier)) // ps.chunk_size, take.size))
            head = take[:placed]
            if head.size:
                mem.place(ps, head, tier)
                if pin:
                    n_pin = int(round(head.size * self.pin_fraction))
                    ps.pinned[head[:n_pin]] = True
                # pre-faulting (§III-C2): warm the pages so the movement
                # daemon treats them as recently touched
                ps.temperature[head] += np.float32(self.prefault_heat)
            carry = take.size - placed  # overflow cascades to the next tier
            remaining = remaining[placed:]
        if remaining.size:
            self._ensure_room(ctx, CXL, int(remaining.size) * ps.chunk_size, ps.owner)
            if max(0, mem.free(CXL)) // ps.chunk_size < remaining.size:
                raise OutOfMemoryError(
                    f"node {mem.node_id}: cannot back {remaining.size} chunks for {ps.owner!r}"
                )
            mem.place(ps, remaining, CXL)
            if pin:
                ps.temperature[remaining] += np.float32(self.prefault_heat)

    def _place_striped(
        self,
        ctx: PolicyContext,
        ps: PageSet,
        chunks: np.ndarray,
        counts: Mapping[TierKind, int],
    ) -> None:
        """Round-robin proportional striping so a BW allocation's hot set
        spans every planned tier (the multi-path bandwidth aggregation)."""
        mem = ctx.memory
        tiers = [t for t in self.tier_order if counts.get(t, 0) > 0]
        if CXL not in tiers and counts.get(CXL, 0) > 0:
            tiers.append(CXL)
        assignment = stripe_assignment([counts.get(t, 0) for t in tiers])
        pad = chunks.size - assignment.size
        if pad > 0:
            assignment = np.concatenate([assignment, np.full(pad, len(tiers) - 1)])
        for k, tier in enumerate(tiers):
            mine = chunks[assignment[: chunks.size] == k]
            if mine.size == 0:
                continue
            self._ensure_room(ctx, tier, int(mine.size) * ps.chunk_size, ps.owner)
            room = max(0, mem.free(tier)) // ps.chunk_size
            head, spill = mine[: int(room)], mine[int(room):]
            if head.size:
                mem.place(ps, head, tier)
            if spill.size:
                self._ensure_room(ctx, CXL, int(spill.size) * ps.chunk_size, ps.owner)
                mem.place(ps, spill, CXL)

    def _ensure_room(self, ctx: PolicyContext, tier: TierKind, nbytes: int, owner: str) -> None:
        """Evict/demote cold pages so ``tier`` can take ``nbytes`` (the
        allocator may have counted other workflows' cold pages as
        evictable)."""
        mem = ctx.memory
        deficit = nbytes - mem.free(tier)
        if deficit <= 0:
            return
        # allocation-pressure movements are ledgered apart from daemon ones
        with _insight.cause("ensure-room"):
            if tier == DRAM:
                self.replacement.replace(ctx, deficit, protect_owner=owner)
            elif tier == PMEM:
                self._demote_tier(ctx, PMEM, CXL, deficit, owner)
            # CXL: unlimited by assumption; nothing to do

    def _demote_tier(
        self, ctx: PolicyContext, src: TierKind, dst: TierKind, nbytes: int, protect: str
    ) -> int:
        mem = ctx.memory
        freed = 0
        for other in list(mem.pagesets()):
            if freed >= nbytes or other.owner == protect:
                continue
            need = -(-(nbytes - freed) // other.chunk_size)
            cold = other.coldest_in(src, need)
            if cold.size:
                freed += mem.migrate(other, cold, dst)
        return freed

    # ------------------------------------------------------------------ #
    # MemoryPolicy: daemon tick
    # ------------------------------------------------------------------ #
    def tick(self, ctx: PolicyContext) -> None:
        self._adjust_staging_buffers(ctx)
        self.movement.tick(ctx, promote_budget_bytes=self.staging_buffers[DRAM])

    def _adjust_staging_buffers(self, ctx: PolicyContext) -> None:
        """Responsibility 4: shrink buffers on pressured tiers, regrow idle
        ones (bounded by 0.25x–2x of the configured fair share)."""
        mem = ctx.memory
        for tier in MEMORY_TIERS:
            cap = mem.capacity(tier)
            if cap <= 0:
                continue
            base = int(cap * self.staging_fraction)
            util = mem.used(tier) / cap
            if util > 0.90:
                target = base // 4
            elif util < 0.50:
                target = base * 2
            else:
                target = base
            self.staging_buffers[tier] = target

    # ------------------------------------------------------------------ #
    # MemoryPolicy: faults & pressure
    # ------------------------------------------------------------------ #
    def make_room(self, ctx: PolicyContext, nbytes: int, protect: Optional[str] = None) -> int:
        return self.replacement.replace(ctx, nbytes, protect_owner=protect)

    def fault_in_order(self, ctx: PolicyContext) -> tuple[TierKind, ...]:
        return self.tier_order
