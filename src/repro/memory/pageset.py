"""Vectorised per-task page metadata.

A :class:`PageSet` is the library's unit of memory book-keeping: one per
task (container), covering the task's whole footprint in fixed-size
*chunks*.  All per-chunk state lives in flat NumPy arrays so policy code
(temperature decay, victim selection, placement statistics) is vectorised
rather than per-page Python loops — essential at the paper's Fig. 10 scale
of 2000 concurrent workflows.

Chunk granularity defaults to 4 MiB: coarse enough that a 50 GB footprint
is ~12.8k array entries, fine enough to resolve the hot/cold splits the
policies act on (the paper's own heuristics reason about 512 MB-out-of-40 GB
hot sets, i.e. far coarser than 4 KiB pages).
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..util.units import MiB
from ..util.validation import check_positive, require
from .tiers import NUM_TIERS, TierKind

__all__ = ["PageSet", "UNMAPPED", "NO_REGION", "DEFAULT_CHUNK_SIZE"]

#: Sentinel tier index for chunks that are not yet backed by any memory.
UNMAPPED: int = -1

#: Sentinel region id for chunks not belonging to any allocation region.
NO_REGION: int = -1

DEFAULT_CHUNK_SIZE: int = MiB(4)


def _stable_top_k(keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest ``keys``, ascending, ties broken by
    position — exactly ``np.argsort(keys, kind="stable")[:k]`` but O(n)
    via ``np.partition`` instead of a full O(n log n) sort.

    The boundary needs care: everything strictly below the k-th order
    statistic is certainly selected (at most k-1 values), then boundary
    ties are admitted in position order, which is precisely the stable
    tie-break of the full sort.
    """
    if k >= keys.size:
        return np.argsort(keys, kind="stable")
    kth = np.partition(keys, k - 1)[k - 1]
    sel = np.flatnonzero(keys < kth)
    ties = np.flatnonzero(keys == kth)
    sel = np.concatenate([sel, ties[: k - sel.size]])
    return sel[np.argsort(keys[sel], kind="stable")]


#: the result of a candidate query that finds nothing (frozen so a caller
#: can never mutate it in place)
_NO_CHUNKS = np.empty(0, dtype=np.intp)
_NO_CHUNKS.setflags(write=False)

#: per-chunk array fields mirrored into the node arena, in layout order
ARRAY_FIELDS = ("tier", "temperature", "access_weight", "pinned", "in_page_cache", "region")


def _array_field(name: str) -> property:
    """A per-chunk array attribute whose assignment *writes through*:
    ``ps.temperature = ...`` copies element-wise into the current array
    instead of rebinding it.

    Once a :class:`~repro.core.arena.NodeArena` adopts the pageset, the
    current array is a view of an arena slice, so code that replaces whole
    arrays (``ps.temperature = ...`` in tests and benchmarks,
    ``set_access_weights`` each phase) can never silently detach the view
    from the node-level kernels.
    """
    priv = "_" + name

    def getter(self: "PageSet") -> np.ndarray:
        return getattr(self, priv)

    def setter(self: "PageSet", value) -> None:
        cur = getattr(self, priv)
        if value is not cur:  # in-place numpy ops hand back the same array
            cur[:] = value

    return property(getter, setter, doc=f"``{name}`` per-chunk array (see class docstring)")


class PageSet:
    """Page metadata for one task's memory footprint.

    Attributes
    ----------
    tier:
        ``int8[n]`` — tier index per chunk (:data:`UNMAPPED` before backing).
    temperature:
        ``float32[n]`` — exponentially-decayed access heat, maintained by
        :class:`~repro.core.heatmap.PageHeatmap`.
    access_weight:
        ``float32[n]`` — stationary probability that an access of the
        currently-running phase lands in this chunk.  Set by the task when
        a phase begins; sums to 1 over mapped chunks (0 when idle).
    pinned:
        ``bool[n]`` — pinned chunks may never be demoted or swapped
        (Algorithm 1 pins part of LAT/SHL allocations).
    in_page_cache:
        ``bool[n]`` — a shadow copy exists in the DRAM page cache after
        proactive swapping (§III-C4), making re-access a *minor* fault.
    region:
        ``int16[n]`` — allocation-region id; maps to the
        :class:`~repro.core.flags.MemFlag` the region was requested with.

    ``version`` counts the changes the rate kernel reads (tiers, shadows,
    access weights): :class:`~repro.memory.system.NodeMemorySystem` bumps
    it next to its node-wide ``epoch``, so the node agent re-bins only the
    pagesets whose version moved since it last binned them.

    A standalone pageset owns these arrays.  Once registered with a
    :class:`~repro.memory.system.NodeMemorySystem` they are views of its
    node-level :class:`~repro.core.arena.NodeArena`; every method works
    identically on views, and whole-array assignment writes through (see
    :func:`_array_field`).
    """

    __slots__ = (
        "owner",
        "chunk_size",
        "n_chunks",
        "_tier",
        "_temperature",
        "_access_weight",
        "_pinned",
        "_in_page_cache",
        "_region",
        "region_flags",
        "version",
        "_arena",
        "_arena_start",
    )

    tier = _array_field("tier")
    temperature = _array_field("temperature")
    access_weight = _array_field("access_weight")
    pinned = _array_field("pinned")
    in_page_cache = _array_field("in_page_cache")
    region = _array_field("region")

    def __init__(self, owner: str, total_bytes: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        check_positive(total_bytes, "total_bytes")
        check_positive(chunk_size, "chunk_size")
        self._arena = None
        self._arena_start = 0
        self.owner = owner
        self.chunk_size = int(chunk_size)
        self.n_chunks = int(-(-int(total_bytes) // self.chunk_size))  # ceil div
        n = self.n_chunks
        self._tier = np.full(n, UNMAPPED, dtype=np.int8)
        self._temperature = np.zeros(n, dtype=np.float32)
        self._access_weight = np.zeros(n, dtype=np.float32)
        self._pinned = np.zeros(n, dtype=bool)
        self._in_page_cache = np.zeros(n, dtype=bool)
        self._region = np.full(n, NO_REGION, dtype=np.int16)
        #: region id -> flag metadata (opaque to this module).
        self.region_flags: dict[int, object] = {}
        self.version = 0

    # ------------------------------------------------------------------ #
    # node arena binding (see repro.core.arena)
    # ------------------------------------------------------------------ #
    @property
    def arena(self):
        """The adopting :class:`~repro.core.arena.NodeArena`, or ``None``."""
        return self._arena

    @property
    def arena_start(self) -> int:
        """This pageset's segment offset within the adopting arena."""
        return self._arena_start

    def _bind_arena_views(self, arena, start: int) -> None:
        """Rebind every array to a view of ``arena``'s segment at ``start``
        (adoption, and re-pointing after the arena's backing arrays grow)."""
        end = start + self.n_chunks
        for name in ARRAY_FIELDS:
            setattr(self, "_" + name, getattr(arena, name)[start:end])
        self._arena = arena
        self._arena_start = start

    def _unbind_arena_views(self) -> None:
        """Detach from the arena: copy current state out to standalone
        arrays so the pageset stays usable after unregistration."""
        self._arena = None
        for name in ARRAY_FIELDS:
            setattr(self, "_" + name, getattr(self, "_" + name).copy())
        self._arena_start = 0

    # ------------------------------------------------------------------ #
    # size / residency queries
    # ------------------------------------------------------------------ #
    @property
    def total_bytes(self) -> int:
        return self.n_chunks * self.chunk_size

    @property
    def mapped_mask(self) -> np.ndarray:
        return self.tier != UNMAPPED

    @property
    def mapped_bytes(self) -> int:
        return int(np.count_nonzero(self.mapped_mask)) * self.chunk_size

    def chunks_in(self, tier: TierKind) -> np.ndarray:
        """Indices of chunks currently resident in ``tier``."""
        return np.flatnonzero(self.tier == int(tier))

    def bytes_in(self, tier: TierKind) -> int:
        return int(np.count_nonzero(self.tier == int(tier))) * self.chunk_size

    def counts_by_tier(self) -> np.ndarray:
        """``int64[NUM_TIERS]`` chunk counts per tier (unmapped excluded)."""
        mapped = self.tier[self.tier != UNMAPPED]
        return np.bincount(mapped.astype(np.int64), minlength=NUM_TIERS)

    def bytes_by_tier(self) -> np.ndarray:
        return self.counts_by_tier() * self.chunk_size

    # ------------------------------------------------------------------ #
    # placement mutation (accounting is the NodeMemorySystem's job; these
    # methods only flip metadata and are called *through* it)
    # ------------------------------------------------------------------ #
    def assign(self, idx: np.ndarray, tier: TierKind) -> None:
        """Back chunks ``idx`` with ``tier`` (placement or migration)."""
        self.tier[idx] = int(tier)

    def unmap(self, idx: Optional[np.ndarray] = None) -> None:
        """Release chunks (all of them when ``idx`` is None)."""
        if idx is None:
            self.tier[:] = UNMAPPED
            self.in_page_cache[:] = False
            self.pinned[:] = False
        else:
            self.tier[idx] = UNMAPPED
            self.in_page_cache[idx] = False
            self.pinned[idx] = False

    # ------------------------------------------------------------------ #
    # victim / candidate selection
    # ------------------------------------------------------------------ #
    def coldest_in(
        self,
        tier: TierKind,
        max_chunks: int,
        *,
        include_pinned: bool = False,
        exclude_regions: Iterable[int] = (),
        max_temperature: Optional[float] = None,
    ) -> np.ndarray:
        """Up to ``max_chunks`` chunk indices in ``tier``, coldest first.

        Pinned chunks and excluded regions are filtered out unless asked
        for, and with ``max_temperature`` every chunk above it; this is
        the primitive both the LRU baseline and Algorithm 2 build their
        victim lists from.  Filtering before the top-k gives the list the
        unfiltered top-k cut at the bar would (after the first entry past
        the bar, all are past it), with a tiny partition when only a
        sliver of the tier qualifies (the proactive-swap common case).
        """
        require(max_chunks >= 0, "max_chunks must be >= 0")
        mask = self._tier == int(tier)
        if max_chunks == 0 or not mask.any():
            return _NO_CHUNKS
        temp = self._temperature
        if not include_pinned:
            mask &= ~self._pinned
        for rid in exclude_regions:
            mask &= self._region != rid
        if max_temperature is not None:
            mask &= temp <= max_temperature
        cand = mask.nonzero()[0]
        if cand.size == 0:
            return cand
        return cand[_stable_top_k(temp[cand], max_chunks)]

    def hottest_in(
        self, tier: TierKind, max_chunks: int, *, min_temperature: Optional[float] = None
    ) -> np.ndarray:
        """Up to ``max_chunks`` chunk indices in ``tier``, hottest first;
        with ``min_temperature``, only chunks at or above it (filtered
        first, as in :meth:`coldest_in` with the order reversed)."""
        mask = self._tier == int(tier)
        if max_chunks <= 0 or not mask.any():
            return _NO_CHUNKS
        if min_temperature is not None:
            mask &= self._temperature >= min_temperature
        return self.hottest_of(mask.nonzero()[0], max_chunks)

    def hottest_of(self, cand: np.ndarray, max_chunks: int) -> np.ndarray:
        """Up to ``max_chunks`` of the chunks ``cand`` (ascending indices),
        hottest first, ties in index order: the selection :meth:`hottest_in`
        makes among the chunks its filters admit."""
        if max_chunks <= 0 or cand.size == 0:
            return cand[:0]
        return cand[_stable_top_k(-self._temperature[cand], max_chunks)]

    # ------------------------------------------------------------------ #
    # access statistics
    # ------------------------------------------------------------------ #
    def set_access_weights(self, weights: np.ndarray) -> None:
        """Install the running phase's per-chunk access distribution."""
        require(weights.shape == (self.n_chunks,), "weights must cover every chunk")
        w = np.asarray(weights, dtype=np.float32)
        require(bool(np.all(w >= 0)), "weights must be non-negative")
        self.access_weight = w

    def clear_access_weights(self) -> None:
        self.access_weight = np.zeros(self.n_chunks, dtype=np.float32)

    def weight_by_tier(self) -> np.ndarray:
        """``float64[NUM_TIERS]`` — fraction of accesses hitting each tier."""
        mask = self.mapped_mask
        if not mask.any():
            return np.zeros(NUM_TIERS, dtype=np.float64)
        out = np.bincount(
            self.tier[mask].astype(np.int64),
            weights=self.access_weight[mask],
            minlength=NUM_TIERS,
        )
        total = out.sum()
        if total > 0:
            out /= total
        return out

    def placement_summary(self) -> dict[int, dict[str, int]]:
        """An ``smaps``-style per-region report: chunk counts per tier plus
        pinned and page-cache-shadowed counts, keyed by region id."""
        out: dict[int, dict[str, int]] = {}
        for rid in np.unique(self.region):
            if rid < 0:
                continue
            idx = np.flatnonzero(self.region == rid)
            entry: dict[str, int] = {
                "chunks": int(idx.size),
                "pinned": int(np.count_nonzero(self.pinned[idx])),
                "shadowed": int(np.count_nonzero(self.in_page_cache[idx])),
            }
            mapped = idx[self.tier[idx] != UNMAPPED]
            tiers, counts = np.unique(self.tier[mapped], return_counts=True)
            for t, c in zip(tiers, counts):
                entry[TierKind(int(t)).name.lower()] = int(c)
            out[int(rid)] = entry
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        counts = self.counts_by_tier()
        return (
            f"<PageSet {self.owner!r} chunks={self.n_chunks} "
            f"dram={counts[0]} pmem={counts[1]} cxl={counts[2]} swap={counts[3]}>"
        )
