"""Per-node tiered-memory accounting.

:class:`NodeMemorySystem` owns the ground truth of *where every chunk
lives* on one server: per-tier used/capacity counters, the registry of
resident :class:`~repro.memory.pageset.PageSet` objects, and the DRAM page
cache that holds shadow copies of proactively-swapped pages (§III-C4).

Policies never mutate placement directly — they call :meth:`place`,
:meth:`migrate` and :meth:`swap_out` so the accounting (and the migration
counters the experiments report) can never drift from the metadata.
:meth:`validate` asserts exactly that invariant and is exercised heavily by
the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .. import obs
from ..obs import insight as _insight
from ..resilience import invariants as inv
from ..util.errors import AllocationError
from ..util.validation import check_fraction, require
from .pageset import UNMAPPED, PageSet
from .tiers import DRAM, MEMORY_TIERS, NUM_TIERS, SWAP, TIER_NAMES, TierKind, TierSpec

__all__ = ["NodeMemorySystem", "MemoryTrafficStats"]


@dataclass
class MemoryTrafficStats:
    """Cumulative data-movement counters for one node.

    ``migrated_bytes[src, dst]`` counts every chunk the node moved between
    tiers; the figure harnesses read swap-in/out and CXL-migration totals
    from here.
    """

    migrated_bytes: np.ndarray = field(
        default_factory=lambda: np.zeros((NUM_TIERS, NUM_TIERS), dtype=np.int64)
    )
    swapped_out_bytes: int = 0
    swapped_in_bytes: int = 0
    page_cache_inserts: int = 0
    page_cache_drops: int = 0
    compactions: int = 0

    def record_migration(self, src: int, dst: int, nbytes: int) -> None:
        self.migrated_bytes[src, dst] += nbytes
        if dst == int(SWAP):
            self.swapped_out_bytes += nbytes
        if src == int(SWAP):
            self.swapped_in_bytes += nbytes

    @property
    def total_migrated_bytes(self) -> int:
        return int(self.migrated_bytes.sum())


class NodeMemorySystem:
    """Tier accounting and placement engine for one cluster node.

    Per-chunk metadata lives in one node-level
    :class:`~repro.core.arena.NodeArena` that adopts every registered
    pageset, and whose vectorised kernels the hot paths (heatmap advance,
    victim selection, evictable accounting) dispatch to.  ``backend``
    picks the mode: ``"arena"`` (the exact core) or ``"arena-fast"``,
    which additionally lets the movement/replacement paths run whole-node
    batched kernels (statistically equivalent, not byte-identical — see
    ``tests/test_arena_fast.py``).  ``None`` defers to ``$REPRO_CORE``;
    ``"object"`` is a deprecated alias of ``"arena"``.
    """

    def __init__(
        self,
        specs: dict[TierKind, TierSpec],
        node_id: str = "node0",
        backend: Optional[str] = None,
    ) -> None:
        require(set(specs) == set(TierKind), "specs must cover every TierKind")
        from ..core.arena import BACKEND_ARENA_FAST, NodeArena, resolve_backend

        self.node_id = node_id
        self.specs = dict(specs)
        self.backend = resolve_backend(backend)
        #: True when relaxed batched movement kernels are sanctioned
        self.fast_core: bool = self.backend == BACKEND_ARENA_FAST
        #: the struct-of-arrays core holding every registered pageset
        self.arena: NodeArena = NodeArena(node_id)
        self._capacity = np.array(
            [specs[TierKind(t)].capacity for t in range(NUM_TIERS)], dtype=np.int64
        )
        self._used = np.zeros(NUM_TIERS, dtype=np.int64)
        self._page_cache_used: int = 0
        #: tiers whose device/link has failed; they report zero capacity
        #: and refuse placements until brought back online
        self._offline = np.zeros(NUM_TIERS, dtype=bool)
        #: per-tier bandwidth multiplier (1.0 = healthy; a degraded CXL
        #: link or PMem device delivers only a fraction of its rated BW)
        self._bw_scale = np.ones(NUM_TIERS, dtype=np.float64)
        self._pagesets: dict[str, PageSet] = {}
        self.stats = MemoryTrafficStats()
        #: bytes migrated since the executor last sampled (for the
        #: migration-overhead term in the rate model); the executor resets it.
        self.migration_bytes_window: int = 0
        #: sim-clock accessor for the migration ledger; a bare memory
        #: system has no engine, so it reads zero until the node agent
        #: wires in its engine's clock.
        self.now = lambda: 0.0

    # ------------------------------------------------------------------ #
    # capacity queries
    # ------------------------------------------------------------------ #
    def capacity(self, tier: TierKind) -> int:
        if self._offline[int(tier)]:
            return 0
        return int(self._capacity[int(tier)])

    def used(self, tier: TierKind) -> int:
        used = int(self._used[int(tier)])
        if tier == DRAM:
            used += self._page_cache_used
        return used

    def free(self, tier: TierKind) -> int:
        return self.capacity(tier) - self.used(tier)

    def free_excluding_page_cache(self, tier: TierKind) -> int:
        """Free bytes counting page-cache shadows as reclaimable."""
        return int(self._capacity[int(tier)] - self._used[int(tier)])

    def rss(self, tier: TierKind) -> int:
        """Bytes of real (non-page-cache) allocations resident in ``tier``."""
        return int(self._used[int(tier)])

    @property
    def page_cache_used(self) -> int:
        return self._page_cache_used

    def utilization(self, tier: TierKind) -> float:
        cap = self.capacity(tier)
        return self.used(tier) / cap if cap else 0.0

    # ------------------------------------------------------------------ #
    # pageset registry
    # ------------------------------------------------------------------ #
    def register(self, ps: PageSet) -> None:
        require(ps.owner not in self._pagesets, f"pageset {ps.owner!r} already registered")
        require(not ps.mapped_mask.any(), "pageset must be unmapped at registration")
        self.arena.adopt(ps)
        self._pagesets[ps.owner] = ps

    def unregister(self, ps: PageSet) -> None:
        """Remove a pageset, releasing all its backing memory."""
        require(ps.owner in self._pagesets, f"pageset {ps.owner!r} not registered")
        counts = ps.counts_by_tier()
        self._used -= counts * ps.chunk_size
        shadows = int(np.count_nonzero(ps.in_page_cache))
        self._page_cache_used -= shadows * ps.chunk_size
        ps.unmap()
        # copy the (now unmapped) state back out and zero the segment
        self.arena.release(ps)
        del self._pagesets[ps.owner]

    def pagesets(self) -> Iterable[PageSet]:
        return self._pagesets.values()

    def get_pageset(self, owner: str) -> Optional[PageSet]:
        return self._pagesets.get(owner)

    # ------------------------------------------------------------------ #
    # placement operations
    # ------------------------------------------------------------------ #
    def place(self, ps: PageSet, idx: np.ndarray, tier: TierKind) -> int:
        """Back unmapped chunks ``idx`` with ``tier``.  Returns bytes placed.

        DRAM placement automatically reclaims page-cache shadows when the
        cache is squatting on the needed space (the kernel drops clean page
        cache before failing an allocation).
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0
        require(ps.owner in self._pagesets, f"pageset {ps.owner!r} not registered")
        require(bool(np.all(ps.tier[idx] == UNMAPPED)), "place() requires unmapped chunks")
        nbytes = int(idx.size) * ps.chunk_size
        t = int(tier)
        if self._offline[t]:
            raise AllocationError(f"node {self.node_id}: tier {tier.name} is offline")
        if self._capacity[t] - self._used[t] - (self._page_cache_used if tier == DRAM else 0) < nbytes:
            if tier == DRAM and self._capacity[t] - self._used[t] >= nbytes:
                self._reclaim_page_cache(nbytes - (self._capacity[t] - self._used[t] - self._page_cache_used))
            else:
                raise AllocationError(
                    f"node {self.node_id}: tier {tier.name} cannot hold {nbytes} more bytes "
                    f"(used {self.used(tier)} of {self.capacity(tier)})"
                )
        checker = inv.active()
        before = int(self._used.sum()) if checker.enabled else 0
        ps.assign(idx, tier)
        self._used[t] += nbytes
        if checker.enabled:
            checker.conservation(
                self.node_id, before, int(self._used.sum()),
                op=f"place->{TIER_NAMES[tier]}", delta=nbytes,
            )
        return nbytes

    def migrate(self, ps: PageSet, idx: np.ndarray, dst: TierKind) -> int:
        """Move mapped chunks ``idx`` to ``dst``.  Returns bytes moved.

        No-ops (chunks already in ``dst``) are filtered out.  Shadow copies
        are invalidated when a chunk leaves swap (the authoritative copy is
        byte-addressable again).
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0
        require(ps.owner in self._pagesets, f"pageset {ps.owner!r} not registered")
        src_tiers = ps.tier[idx]
        require(bool(np.all(src_tiers != UNMAPPED)), "migrate() requires mapped chunks")
        moving = idx[src_tiers != int(dst)]
        if moving.size == 0:
            return 0
        nbytes = int(moving.size) * ps.chunk_size
        d = int(dst)
        if self._offline[d]:
            raise AllocationError(f"node {self.node_id}: tier {dst.name} is offline")
        headroom = self._capacity[d] - self._used[d] - (self._page_cache_used if dst == DRAM else 0)
        if headroom < nbytes:
            if dst == DRAM and self._capacity[d] - self._used[d] >= nbytes:
                self._reclaim_page_cache(nbytes - headroom)
            else:
                raise AllocationError(
                    f"node {self.node_id}: migrate to {dst.name} needs {nbytes} bytes, "
                    f"only {self.free(dst)} free"
                )
        checker = inv.active()
        before = int(self._used.sum()) if checker.enabled else 0
        # vectorised per-source accounting
        move_src = ps.tier[moving].astype(np.int64)
        counts = np.bincount(move_src, minlength=NUM_TIERS)
        self._used -= counts * ps.chunk_size
        self._used[d] += nbytes
        tel_on = obs.enabled()  # hoisted: label construction isn't free
        ins = _insight.active()
        for s in np.flatnonzero(counts):
            moved_bytes = int(counts[s]) * ps.chunk_size
            self.stats.record_migration(int(s), d, moved_bytes)
            if tel_on:
                obs.counter(
                    "mem.migrated_bytes",
                    moved_bytes,
                    src=TIER_NAMES[TierKind(int(s))],
                    dst=TIER_NAMES[dst],
                )
            if ins.enabled:
                ins.migration(
                    self.now(), self.node_id, ps.owner,
                    int(s), d, int(counts[s]), moved_bytes,
                )
        self.migration_bytes_window += nbytes
        if dst == DRAM:
            # the authoritative copy is DRAM again; shadows are redundant
            self._drop_shadows(ps, moving)
        ps.assign(moving, dst)
        if checker.enabled:
            # migrations move bytes between tiers; they never mint them
            checker.conservation(
                self.node_id, before, int(self._used.sum()),
                op=f"migrate->{TIER_NAMES[dst]}",
            )
        return nbytes

    def swap_out(self, ps: PageSet, idx: np.ndarray) -> int:
        """Demote chunks to disk-based swap (always has room by policy;
        raises if even swap is exhausted, the paper's failure mode)."""
        return self.migrate(ps, idx, SWAP)

    def migrate_positions(self, positions: np.ndarray, dst: TierKind) -> int:
        """Batched form of :meth:`migrate` over raw *arena* positions
        spanning any number of tasks (the arena-fast movement path).

        The accounting contract is identical — per-source migration
        counters, obs emission, shadow drops on arrival in DRAM,
        page-cache reclaim for a short DRAM allocation, conservation
        checks — but the per-chunk bookkeeping is settled by one
        :meth:`~repro.core.arena.NodeArena.migrate_batch` commit instead
        of a loop per pageset chunk range.  Returns bytes moved.
        """
        arena = self.arena
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size == 0:
            return 0
        src = arena.tier[positions]
        require(bool(np.all(src != UNMAPPED)), "migrate_positions() requires mapped chunks")
        moving = positions[src != int(dst)]
        if moving.size == 0:
            return 0
        d = int(dst)
        if self._offline[d]:
            raise AllocationError(f"node {self.node_id}: tier {dst.name} is offline")
        nbytes = int(arena.chunk_cost(moving).sum())
        headroom = self._capacity[d] - self._used[d] - (self._page_cache_used if dst == DRAM else 0)
        if headroom < nbytes:
            if dst == DRAM and self._capacity[d] - self._used[d] >= nbytes:
                self._reclaim_page_cache(nbytes - headroom)
            else:
                raise AllocationError(
                    f"node {self.node_id}: migrate to {dst.name} needs {nbytes} bytes, "
                    f"only {self.free(dst)} free"
                )
        checker = inv.active()
        before = int(self._used.sum()) if checker.enabled else 0
        bytes_per_src, sh_chunks, sh_bytes = arena.migrate_batch(moving, dst)
        self._used -= bytes_per_src
        self._used[d] += nbytes
        tel_on = obs.enabled()
        ins = _insight.active()
        for s in np.flatnonzero(bytes_per_src):
            moved_bytes = int(bytes_per_src[s])
            self.stats.record_migration(int(s), d, moved_bytes)
            if tel_on:
                obs.counter(
                    "mem.migrated_bytes",
                    moved_bytes,
                    src=TIER_NAMES[TierKind(int(s))],
                    dst=TIER_NAMES[dst],
                )
            if ins.enabled:
                # positions span tasks: the batched path attributes to "*"
                ins.migration(
                    self.now(), self.node_id, "*",
                    int(s), d, int(np.count_nonzero(src == s)), moved_bytes,
                )
        self.migration_bytes_window += nbytes
        if sh_chunks:
            self._page_cache_used -= sh_bytes
            self.stats.page_cache_drops += sh_chunks
            if ins.enabled:
                ins.ledger_event(
                    self.now(), self.node_id, "shadow-drop", "*",
                    int(DRAM), _insight.ANY_TIER, int(sh_chunks), int(sh_bytes),
                )
        if checker.enabled:
            checker.conservation(
                self.node_id, before, int(self._used.sum()),
                op=f"migrate->{TIER_NAMES[dst]}",
            )
        return nbytes

    # ------------------------------------------------------------------ #
    # page cache (shadow copies of proactively-swapped pages)
    # ------------------------------------------------------------------ #
    def add_page_cache_shadow(self, ps: PageSet, idx: np.ndarray) -> int:
        """Keep DRAM shadow copies for chunks resident in slower tiers,
        space permitting (§III-C4: proactively-swapped pages "are cached in
        the page cache if there is enough memory available").

        Returns the number of chunks actually shadowed — the cache never
        displaces real allocations, it only uses free DRAM.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size == 0:
            return 0
        tiers = ps.tier[idx]
        require(
            bool(np.all((tiers != UNMAPPED) & (tiers != int(DRAM)))),
            "shadows only cover mapped, non-DRAM chunks",
        )
        fresh = idx[~ps.in_page_cache[idx]]
        room_chunks = max(0, self.free(DRAM)) // ps.chunk_size
        take = fresh[: int(room_chunks)]
        if take.size == 0:
            return 0
        ps.in_page_cache[take] = True
        self._page_cache_used += int(take.size) * ps.chunk_size
        self.stats.page_cache_inserts += int(take.size)
        ins = _insight.active()
        if ins.enabled:
            ins.ledger_event(
                self.now(), self.node_id, "shadow", ps.owner,
                _insight.ANY_TIER, int(DRAM),
                int(take.size), int(take.size) * ps.chunk_size,
            )
        return int(take.size)

    def add_page_cache_shadows_batch(self, positions: np.ndarray) -> int:
        """Batched form of :meth:`add_page_cache_shadow` over raw arena
        positions spanning any number of tasks (the arena-fast proactive
        path).  Returns the number of chunks actually shadowed."""
        arena = self.arena
        positions = np.asarray(positions, dtype=np.intp)
        if positions.size == 0:
            return 0
        tiers = arena.tier[positions]
        require(
            bool(np.all((tiers != UNMAPPED) & (tiers != int(DRAM)))),
            "shadows only cover mapped, non-DRAM chunks",
        )
        take, nbytes = arena.shadow_batch(positions, max(0, self.free(DRAM)))
        if take.size == 0:
            return 0
        self._page_cache_used += nbytes
        self.stats.page_cache_inserts += int(take.size)
        ins = _insight.active()
        if ins.enabled:
            ins.ledger_event(
                self.now(), self.node_id, "shadow", "*",
                _insight.ANY_TIER, int(DRAM), int(take.size), int(nbytes),
            )
        return int(take.size)

    def _drop_shadows(self, ps: PageSet, idx: np.ndarray) -> None:
        shadowed = idx[ps.in_page_cache[idx]]
        if shadowed.size:
            ps.in_page_cache[shadowed] = False
            self._page_cache_used -= int(shadowed.size) * ps.chunk_size
            self.stats.page_cache_drops += int(shadowed.size)
            ins = _insight.active()
            if ins.enabled:
                ins.ledger_event(
                    self.now(), self.node_id, "shadow-drop", ps.owner,
                    int(DRAM), _insight.ANY_TIER,
                    int(shadowed.size), int(shadowed.size) * ps.chunk_size,
                )

    def _reclaim_page_cache(self, nbytes_needed: int) -> None:
        """Drop coldest shadows until ``nbytes_needed`` is reclaimed."""
        if nbytes_needed <= 0:
            return
        reclaimed = 0
        dropped_chunks = 0
        with _insight.cause("reclaim"):
            for ps in list(self._pagesets.values()):
                if reclaimed >= nbytes_needed:
                    break
                shadowed = np.flatnonzero(ps.in_page_cache)
                if shadowed.size == 0:
                    continue
                order = np.argsort(ps.temperature[shadowed], kind="stable")
                need_chunks = -(-(nbytes_needed - reclaimed) // ps.chunk_size)
                drop = shadowed[order[:need_chunks]]
                self._drop_shadows(ps, drop)
                reclaimed += int(drop.size) * ps.chunk_size
                dropped_chunks += int(drop.size)
        ins = _insight.active()
        if ins.enabled and reclaimed:
            ins.ledger_event(
                self.now(), self.node_id, "reclaim", "*",
                int(DRAM), _insight.ANY_TIER, dropped_chunks, reclaimed,
            )

    def compact(self) -> None:
        """Record a compaction pass (§III-C4).

        Placement here is set-based rather than address-based, so
        compaction has no functional effect beyond its counter — the hook
        exists so the movement policy matches the paper's description and
        the overhead model can charge for it.
        """
        self.stats.compactions += 1

    # ------------------------------------------------------------------ #
    # tier faults (device failure / link degradation)
    # ------------------------------------------------------------------ #
    def tier_online(self, tier: TierKind) -> bool:
        return not bool(self._offline[int(tier)])

    def offline_tier(self, tier: TierKind) -> tuple[int, dict[str, np.ndarray]]:
        """Take ``tier`` offline, evacuating its pages to surviving tiers.

        Models a PMem device failure or a severed CXL link: the tier stops
        accepting placements and reports zero capacity, and every resident
        chunk is migrated into whatever byte-addressable headroom survives,
        spilling to swap as the last resort (graceful degradation — the
        one sanctioned exception to "pinned chunks never migrate").

        Returns ``(evacuated_bytes, stranded)`` where ``stranded`` maps
        pageset owners to the chunk indices that fit nowhere; their tasks
        must be killed by the caller.
        """
        require(tier != SWAP, "swap cannot be taken offline")
        t = int(tier)
        if self._offline[t]:
            return 0, {}
        checker = inv.active()
        before = int(self._used.sum()) if checker.enabled else 0
        self._offline[t] = True
        if tier == DRAM:
            # shadows live in DRAM; the cache dies with the device
            for ps in self._pagesets.values():
                self._drop_shadows(ps, np.flatnonzero(ps.in_page_cache))
        survivors = [
            d for d in (*MEMORY_TIERS, SWAP)
            if d != tier and self.capacity(d) > 0
        ]
        evacuated = 0
        stranded: dict[str, np.ndarray] = {}
        with _insight.cause("evacuate"):
            for ps in list(self._pagesets.values()):
                victims = np.flatnonzero(ps.tier == t)
                for dst in survivors:
                    if victims.size == 0:
                        break
                    headroom = (
                        self.free_excluding_page_cache(dst) if dst == DRAM else self.free(dst)
                    )
                    room = max(0, headroom) // ps.chunk_size
                    take = victims[: int(room)]
                    if take.size == 0:
                        continue
                    evacuated += self.migrate(ps, take, dst)
                    victims = victims[int(room):]
                if victims.size:
                    stranded[ps.owner] = victims
        if obs.enabled():
            obs.counter("mem.evacuated_bytes", evacuated, tier=TIER_NAMES[tier])
        ins = _insight.active()
        if ins.enabled:
            ins.ledger_event(
                self.now(), self.node_id, "evacuate", "*",
                t, _insight.ANY_TIER, 0, evacuated,
            )
        if checker.enabled:
            # evacuation shuffles bytes to survivors; stranded chunks stay
            # accounted on the dead tier until their tasks are killed
            checker.conservation(
                self.node_id, before, int(self._used.sum()),
                op=f"offline->{TIER_NAMES[tier]}",
            )
            checker.memory(self)
        return evacuated, stranded

    def online_tier(self, tier: TierKind) -> None:
        """Bring a failed tier back (empty — pages are not moved back)."""
        self._offline[int(tier)] = False

    def set_tier_degraded(self, tier: TierKind, scale: float) -> None:
        """Throttle ``tier``'s bandwidth to ``scale`` of its rated value."""
        check_fraction(scale, "scale")
        self._bw_scale[int(tier)] = scale

    def clear_tier_degradation(self, tier: TierKind) -> None:
        self._bw_scale[int(tier)] = 1.0

    def tier_health(self) -> np.ndarray:
        """Per-tier bandwidth multiplier: 0 when offline, else ``_bw_scale``."""
        return np.where(self._offline, 0.0, self._bw_scale)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def meminfo(self) -> dict[str, int]:
        """A ``/proc/meminfo``-style snapshot (bytes) for dashboards/tests."""
        info: dict[str, int] = {}
        for t in TierKind:
            name = t.name.lower()
            info[f"{name}_total"] = self.capacity(t)
            info[f"{name}_used"] = self.used(t)
            info[f"{name}_free"] = self.free(t)
        info["page_cache"] = self._page_cache_used
        info["dram_rss"] = self.rss(DRAM)
        info["pagesets"] = len(self._pagesets)
        return info

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Assert accounting matches the union of registered pagesets.

        The per-tier expectation comes from one whole-arena reduction, and
        every pageset's arrays are additionally checked to still be live
        views of the arena (a detached view would let kernels and per-task
        paths silently diverge).
        """
        arena = self.arena
        for ps in self._pagesets.values():
            require(
                ps.arena is arena and ps.temperature.base is arena.temperature,
                f"{ps.owner}: pageset arrays detached from the node arena",
            )
        hi = arena.hi
        bad = arena.in_page_cache[:hi] & (
            (arena.tier[:hi] == int(DRAM)) | (arena.tier[:hi] == UNMAPPED)
        )
        if bad.any():
            slot = int(arena.task_id[int(np.flatnonzero(bad)[0])])
            owner = arena._slots[slot].owner if slot >= 0 else "<free slot>"
            require(False, f"{owner}: page-cache shadow for DRAM/unmapped chunk")
        expect = arena.used_bytes_by_tier()
        shadow_bytes = arena.shadow_bytes()
        require(bool(np.all(expect == self._used)), "per-tier used bytes drifted from pagesets")
        require(shadow_bytes == self._page_cache_used, "page-cache accounting drifted")
        total_dram = self._used[int(DRAM)] + self._page_cache_used
        require(
            bool(np.all(self._used <= self._capacity)) and total_dram <= self._capacity[int(DRAM)],
            "tier over capacity",
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = ", ".join(
            f"{TierKind(t).name.lower()}={self._used[t]}/{self._capacity[t]}"
            for t in range(NUM_TIERS)
        )
        return f"<NodeMemorySystem {self.node_id} {parts} pc={self._page_cache_used}>"
