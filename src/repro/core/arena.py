"""Node-level struct-of-arrays arena: the simulator's per-chunk core.

Every :class:`~repro.memory.system.NodeMemorySystem` owns one
:class:`NodeArena`, which packs every resident task's chunks into one
contiguous arena of parallel numpy arrays::

    slot:         0 ......... hi ............. capacity
    tier          ├─ task A ─┤├─ task B ─┤ ... │ (free: UNMAPPED)
    temperature   ├─ task A ─┤├─ task B ─┤ ... │ 0.0
    access_weight ├─ task A ─┤├─ task B ─┤ ... │ 0.0
    pinned / in_page_cache / region             │ defaults
    task_id       per-slot compact task handle  │ -1
    rank          (registration_seq << 32) | local_index

and runs the hot path as whole-node kernels: one fused
decay+classification pass (:meth:`advance`), cross-task victim and
promotion selection via masked ``argpartition`` (:meth:`select_victims`,
:meth:`global_coldest`), and vectorised tier/weight reductions
(:meth:`counts_by_tier`, :meth:`evictable_bytes`), so a daemon tick pays
no Python dispatch per task per primitive.

Adopted :class:`PageSet` objects keep their full API: their arrays are
rebound to *views* of arena slices, so ``policies/``, ``core/manager``,
``core/movement`` and the fault-evacuation paths work on them directly.
Every kernel reproduces the per-pageset selection order bit-for-bit —
identical float32 arithmetic, identical tie-breaks ((protected,
temperature, registration order, chunk index)), identical RNG draws —
against the per-pageset references kept in ``tests/test_arena.py``.

Mode selection: :func:`resolve_backend` reads the ``REPRO_CORE``
environment variable (``arena`` | ``arena-fast``; default ``arena``).
The switch deliberately lives *outside*
:class:`~repro.scenarios.spec.ScenarioSpec`: digests hash every spec
field, and both modes must produce the same digest for the same
scenario.  ``object``, the name of the retired per-pageset layout, is a
deprecated alias of ``arena``.

``arena`` is the exact core.  ``arena-fast`` relaxes its bit-exact
contract: the movement daemon and replacement paths run as whole-node
batched kernels (:meth:`hot_by_tier` / :meth:`cold_by_tier` masked
scans, :meth:`migrate_batch` / :meth:`shadow_batch` commits) that select
candidates for *all* tasks from one pre-pass snapshot per tier instead
of re-reading node state after every pageset.  Results are
statistically equivalent to the exact core (tolerance bands pinned in
``tests/test_arena_fast.py``), not byte-identical — see
``docs/performance.md``.
"""

from __future__ import annotations

import os
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from .. import obs
from ..memory.pageset import NO_REGION, UNMAPPED, _stable_top_k
from ..memory.tiers import DRAM, NUM_TIERS, TierKind
from ..util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..memory.pageset import PageSet

__all__ = ["NodeArena", "BACKENDS", "resolve_backend"]

#: the exact core (the default)
BACKEND_ARENA = "arena"
#: batched movement kernels, statistically equivalent to the exact core
BACKEND_ARENA_FAST = "arena-fast"
BACKENDS = (BACKEND_ARENA, BACKEND_ARENA_FAST)
#: name of the retired per-pageset layout; a deprecated alias of "arena"
_OBJECT_ALIAS = "object"

#: env var naming the mode every new NodeMemorySystem uses by default
ENV_VAR = "REPRO_CORE"

_MIN_CAPACITY = 1024

# shared empty-result index array for the candidate kernels' fast path
# (frozen so a caller can never mutate it in place)
_EMPTY_IDX = np.empty(0, dtype=np.intp)
_EMPTY_IDX.setflags(write=False)

# slots not covered by any task keep these values, so tier/task masks
# exclude them without a separate liveness array
_FREE_TIER = UNMAPPED
_FREE_TASK = -1


def resolve_backend(explicit: Optional[str] = None) -> str:
    """The core mode to use: ``explicit`` when given, else ``$REPRO_CORE``,
    else the exact ``arena`` core.  ``object`` warns and selects ``arena``."""
    name = explicit if explicit is not None else os.environ.get(ENV_VAR, BACKEND_ARENA)
    name = str(name).strip().lower() or BACKEND_ARENA
    if name == _OBJECT_ALIAS:
        warnings.warn(
            "core backend 'object' is deprecated: the per-pageset layout was "
            "retired, and 'object' now selects the bit-identical 'arena' core",
            DeprecationWarning,
            stacklevel=2,
        )
        return BACKEND_ARENA
    require(name in BACKENDS, f"unknown core backend {name!r} (expected one of {BACKENDS})")
    return name


class _TaskEntry:
    """Bookkeeping for one adopted pageset: its arena segment and identity."""

    __slots__ = ("owner", "ps", "start", "n", "chunk_size", "slot", "seq")

    def __init__(self, owner, ps, start, n, chunk_size, slot, seq):
        self.owner = owner
        self.ps = ps
        self.start = start
        self.n = n
        self.chunk_size = chunk_size
        self.slot = slot
        self.seq = seq


def _top_k_by_temp_rank(
    temp: np.ndarray, rank: np.ndarray, cand: np.ndarray, k: int
) -> np.ndarray:
    """The ``k`` positions from ``cand`` with the smallest
    ``(temp, rank)`` key, returned in ascending key order.

    Equivalent to ``cand[np.lexsort((rank[cand], temp[cand]))][:k]`` but
    O(n + k log k): partition on temperature, then break boundary ties by
    rank — exactly a per-pageset merge's global ``sort(key=(protected,
    temperature, registration order, index))`` within one protection
    class, because ``rank`` encodes (registration seq, local index).
    """
    if k <= 0 or cand.size == 0:
        return cand[:0]
    t = temp[cand]
    if k >= t.size:
        order = np.lexsort((rank[cand], t))
        return cand[order]
    kth = np.partition(t, k - 1)[k - 1]
    below = np.flatnonzero(t < kth)
    ties = np.flatnonzero(t == kth)
    m = k - below.size
    if m < ties.size:
        # admit the m boundary ties with the smallest ranks (rank is unique)
        ties = ties[np.argpartition(rank[cand[ties]], m - 1)[:m]]
    sel = np.concatenate([below, ties])
    order = np.lexsort((rank[cand[sel]], t[sel]))
    return cand[sel[order]]


class NodeArena:
    """Packed per-chunk state for every pageset resident on one node.

    Segments are allocated first-fit from a free list and zeroed on
    release; the backing arrays double when full, re-pointing every live
    pageset's views (segment offsets never move, so only the base arrays
    change).  ``hi`` is the scan watermark — kernels touch ``[:hi]`` only.
    """

    def __init__(self, node_id: str = "node0") -> None:
        self.node_id = node_id
        self.capacity = 0
        #: end of the highest allocated segment; kernels scan [:hi]
        self.hi = 0
        self._seq = 0
        self._tasks: dict[str, _TaskEntry] = {}  # insertion order == registration order
        self._slots: list[Optional[_TaskEntry]] = []
        self._free_slots: list[int] = []
        self._free: list[list[int]] = []  # [start, length], sorted by start
        # (owners, seg_owner, seg_lens) run-length map of [0, hi); rebuilt
        # lazily after adopt/release so advance() can np.repeat the per-task
        # rate·dt gains instead of looping a segment assignment per task
        self._seg_cache: Optional[tuple[list[str], np.ndarray, np.ndarray]] = None
        # packed per-slot protection flags for the arena-fast masked scans;
        # rebuilt by refresh_protection() at the top of every fast tick and
        # invalidated whenever the slot table changes
        self._prot_slots: Optional[np.ndarray] = None
        self._alloc_arrays(0)
        #: cumulative obs rollups (cheap ints; emitted when telemetry is on)
        self.cells_advanced = 0
        self.kernel_invocations = 0

    def _alloc_arrays(self, n: int) -> None:
        self.tier = np.full(n, _FREE_TIER, dtype=np.int8)
        self.temperature = np.zeros(n, dtype=np.float32)
        self.access_weight = np.zeros(n, dtype=np.float32)
        self.pinned = np.zeros(n, dtype=bool)
        self.in_page_cache = np.zeros(n, dtype=bool)
        self.region = np.full(n, NO_REGION, dtype=np.int16)
        self.task_id = np.full(n, _FREE_TASK, dtype=np.int32)
        self.rank = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # segment allocation
    # ------------------------------------------------------------------ #
    def _recompute_hi(self) -> None:
        if self._free and self._free[-1][0] + self._free[-1][1] == self.capacity:
            self.hi = self._free[-1][0]
        else:
            self.hi = self.capacity

    def _grow(self, need: int) -> None:
        new_cap = max(self.capacity * 2, need, _MIN_CAPACITY)
        old = (
            self.tier, self.temperature, self.access_weight, self.pinned,
            self.in_page_cache, self.region, self.task_id, self.rank,
        )
        n = self.capacity
        self._alloc_arrays(new_cap)
        for dst, src in zip(
            (self.tier, self.temperature, self.access_weight, self.pinned,
             self.in_page_cache, self.region, self.task_id, self.rank),
            old,
        ):
            dst[:n] = src
        # the tail joins the free list (coalescing with a trailing hole)
        if self._free and self._free[-1][0] + self._free[-1][1] == n:
            self._free[-1][1] += new_cap - n
        else:
            self._free.append([n, new_cap - n])
        self.capacity = new_cap
        # segment offsets are stable across growth; only the base arrays
        # changed, so every live pageset's views must be re-pointed
        for entry in self._tasks.values():
            entry.ps._bind_arena_views(self, entry.start)

    def _alloc(self, n: int) -> int:
        while True:
            for i, seg in enumerate(self._free):
                if seg[1] >= n:
                    start = seg[0]
                    if seg[1] == n:
                        self._free.pop(i)
                    else:
                        seg[0] += n
                        seg[1] -= n
                    self._recompute_hi()
                    return start
            self._grow(self.capacity + n)

    def _release_segment(self, start: int, n: int) -> None:
        # insert sorted and coalesce with both neighbours
        import bisect

        starts = [s[0] for s in self._free]
        i = bisect.bisect_left(starts, start)
        self._free.insert(i, [start, n])
        if i + 1 < len(self._free) and start + n == self._free[i + 1][0]:
            self._free[i][1] += self._free[i + 1][1]
            self._free.pop(i + 1)
        if i > 0 and self._free[i - 1][0] + self._free[i - 1][1] == start:
            self._free[i - 1][1] += self._free[i][1]
            self._free.pop(i)
        self._recompute_hi()

    # ------------------------------------------------------------------ #
    # adoption lifecycle
    # ------------------------------------------------------------------ #
    def adopt(self, ps: "PageSet") -> None:
        """Move ``ps``'s per-chunk state into the arena and rebind its
        arrays to views of the allocated segment."""
        require(ps.owner not in self._tasks, f"pageset {ps.owner!r} already adopted")
        require(
            not isinstance(ps.arena, NodeArena),
            f"pageset {ps.owner!r} is adopted by another arena",
        )
        n = ps.n_chunks
        start = self._alloc(n)
        end = start + n
        self.tier[start:end] = ps.tier
        self.temperature[start:end] = ps.temperature
        self.access_weight[start:end] = ps.access_weight
        self.pinned[start:end] = ps.pinned
        self.in_page_cache[start:end] = ps.in_page_cache
        self.region[start:end] = ps.region
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._slots)
            self._slots.append(None)
        self._seq += 1
        entry = _TaskEntry(ps.owner, ps, start, n, ps.chunk_size, slot, self._seq)
        self.task_id[start:end] = slot
        # rank = (registration seq, local index) packed into one int64 so a
        # single lexsort key reproduces the per-pageset merge's tie-break
        self.rank[start:end] = (np.int64(self._seq) << np.int64(32)) + np.arange(
            n, dtype=np.int64
        )
        self._tasks[ps.owner] = entry
        self._slots[slot] = entry
        self._seg_cache = None
        self._prot_slots = None
        ps._bind_arena_views(self, start)

    def release(self, ps: "PageSet") -> None:
        """Detach ``ps`` — copy its state back out to standalone arrays and
        zero the segment so kernels never see stale chunks."""
        entry = self._tasks.pop(ps.owner, None)
        require(entry is not None and entry.ps is ps, f"pageset {ps.owner!r} not adopted here")
        start, end = entry.start, entry.start + entry.n
        ps._unbind_arena_views()
        self.tier[start:end] = _FREE_TIER
        self.temperature[start:end] = 0.0
        self.access_weight[start:end] = 0.0
        self.pinned[start:end] = False
        self.in_page_cache[start:end] = False
        self.region[start:end] = NO_REGION
        self.task_id[start:end] = _FREE_TASK
        self.rank[start:end] = 0
        self._slots[entry.slot] = None
        self._free_slots.append(entry.slot)
        self._seg_cache = None
        self._prot_slots = None
        self._release_segment(start, entry.n)

    def entries(self) -> Iterable[_TaskEntry]:
        """Adopted tasks in registration order."""
        return self._tasks.values()

    def __len__(self) -> int:
        return len(self._tasks)

    def _chunk_sizes(self) -> np.ndarray:
        """``int64[n_slots]`` chunk size per task slot (0 for free slots)."""
        out = np.zeros(max(1, len(self._slots)), dtype=np.int64)
        for entry in self._tasks.values():
            out[entry.slot] = entry.chunk_size
        return out

    def min_chunk_size(self) -> int:
        """Smallest chunk size across adopted tasks (0 with no tasks) —
        the conservative divisor for byte→chunk candidate caps on nodes
        with mixed chunk sizes."""
        return min((e.chunk_size for e in self._tasks.values()), default=0)

    def chunk_cost(self, positions: np.ndarray) -> np.ndarray:
        """``int64`` byte cost per arena position (each owner's chunk
        size), the term every byte-budgeted prefix cut integrates."""
        if positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        return self._chunk_sizes()[self.task_id[positions]]

    def owner_chunk_counts(self, positions: np.ndarray) -> list[tuple[str, int]]:
        """Per-owner chunk counts for ``positions`` (registration order) —
        how batched moves fan back out to per-task fault accounting."""
        if positions.size == 0:
            return []
        counts = np.bincount(self.task_id[positions], minlength=len(self._slots))
        return [(e.owner, int(counts[e.slot])) for e in self._tasks.values() if counts[e.slot]]

    def refresh_protection(self, classify: Callable[[str], bool]) -> None:
        """Rebuild the packed per-slot protection column the arena-fast
        masked scans honour.  Runs once per fast tick (O(tasks)), so the
        per-chunk scans never call back into Python per candidate."""
        prot = np.zeros(max(1, len(self._slots)), dtype=bool)
        for entry in self._tasks.values():
            if classify(entry.owner):
                prot[entry.slot] = True
        self._prot_slots = prot

    def _rate_segments(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Run-length map of ``[0, hi)`` for the advance kernel: ``owners``
        lists adopted tasks in segment order, ``seg_owner[i]`` indexes it
        (-1 for free runs) and ``seg_lens[i]`` is the run length.  Cached
        until the next adopt/release changes the layout."""
        cache = self._seg_cache
        if cache is not None:
            return cache
        entries = sorted(self._tasks.values(), key=lambda en: en.start)
        owners = [en.owner for en in entries]
        seg_owner: list[int] = []
        seg_lens: list[int] = []
        pos = 0
        for i, en in enumerate(entries):
            if en.start > pos:
                seg_owner.append(-1)
                seg_lens.append(en.start - pos)
            seg_owner.append(i)
            seg_lens.append(en.n)
            pos = en.start + en.n
        if pos < self.hi:
            seg_owner.append(-1)
            seg_lens.append(self.hi - pos)
        out = (
            owners,
            np.asarray(seg_owner, dtype=np.intp),
            np.asarray(seg_lens, dtype=np.int64),
        )
        self._seg_cache = out
        return out

    # ------------------------------------------------------------------ #
    # kernel: fused temperature decay + classification
    # ------------------------------------------------------------------ #
    def advance(self, dt: float, decay: float, rates: Optional[dict[str, float]]) -> int:
        """One whole-node heatmap pass: decay every resident temperature and
        add each running task's ``access_weight * rate * dt`` gain, in one
        fused float32 sweep.  Returns the number of cells touched.

        Bit-identical to the per-pageset path: the same f32 decay factor
        multiplies every element, and a per-slot f32 rate·dt array makes
        the gain term elementwise-identical to the per-task scalar
        broadcast (idle slices gain 0, and x+0.0f == x for the
        non-negative temperatures the heatmap maintains).
        """
        if not obs.enabled():
            return self._advance_kernel(dt, decay, rates)
        # telemetry-on path: per-node kernel time as a span, cells as a
        # counter — one emission pair per daemon tick, never per cell
        with obs.span("arena.advance", node=self.node_id):
            n = self._advance_kernel(dt, decay, rates)
        obs.counter("arena.cells_advanced", n, node=self.node_id)
        return n

    def _advance_kernel(
        self, dt: float, decay: float, rates: Optional[dict[str, float]]
    ) -> int:
        hi = self.hi
        if hi == 0:
            return 0
        t = self.temperature[:hi]
        owners, seg_owner, seg_lens = self._rate_segments()
        if rates is None:
            per_task = [1.0] * len(owners)
        else:
            per_task = [rates.get(o, 0.0) for o in owners]
        rdt: Optional[np.ndarray] = None
        if any(r > 0.0 for r in per_task):
            # one f32 value per task (clamped: non-running tasks gain 0)
            # plus a trailing 0 that free runs (seg_owner == -1) pick up,
            # expanded over the segment map in a single repeat — identical
            # values to the per-task scalar assignments this replaces
            vals = np.asarray(per_task, dtype=np.float64) * dt
            vals[vals < 0.0] = 0.0
            gain = np.append(vals, 0.0).astype(np.float32)
            rdt = np.repeat(gain[seg_owner], seg_lens)
        has_heat = bool(t.any())
        if not has_heat and rdt is None:
            return 0
        if has_heat:
            t *= np.float32(decay)
        if rdt is not None:
            t += self.access_weight[:hi] * rdt
        self.cells_advanced += hi
        self.kernel_invocations += 1
        return hi

    # ------------------------------------------------------------------ #
    # kernel: per-task threshold-filtered candidates
    # ------------------------------------------------------------------ #
    def cold_chunks(
        self,
        ps: "PageSet",
        tier: TierKind,
        max_chunks: int,
        *,
        max_temperature: Optional[float] = None,
        include_pinned: bool = False,
    ) -> np.ndarray:
        """``ps.coldest_in(tier, max_chunks)`` post-filtered to
        ``temperature <= max_temperature``, computed filter-first.

        Filtering before the top-k is an exact rewrite: every unfiltered
        top-k entry above the bar survives in the same stable order, and
        once one entry falls below the bar so does everything after it —
        so both orders yield the same list.  Filtering first keeps the
        partition tiny when only a sliver of the slice qualifies (the
        proactive-swap common case), instead of top-k over the full slice.
        """
        entry = self._tasks.get(ps.owner)
        if entry is None or entry.ps is not ps:
            require(False, f"{ps.owner!r} not adopted")
        s, e = entry.start, entry.start + entry.n
        mask = self.tier[s:e] == int(tier)
        if not mask.any():
            return _EMPTY_IDX
        temp = self.temperature[s:e]
        if not include_pinned:
            mask &= ~self.pinned[s:e]
        if max_temperature is not None:
            mask &= temp <= max_temperature
        cand = mask.nonzero()[0]
        if cand.size == 0 or max_chunks <= 0:
            return cand[:0]
        return cand[_stable_top_k(temp[cand], max_chunks)]

    def hot_chunks(
        self,
        ps: "PageSet",
        tier: TierKind,
        max_chunks: int,
        *,
        min_temperature: Optional[float] = None,
    ) -> np.ndarray:
        """``ps.hottest_in(tier, max_chunks)`` post-filtered to
        ``temperature >= min_temperature`` (filter-first, same argument as
        :meth:`cold_chunks` with the order reversed)."""
        entry = self._tasks.get(ps.owner)
        if entry is None or entry.ps is not ps:
            require(False, f"{ps.owner!r} not adopted")
        s, e = entry.start, entry.start + entry.n
        mask = self.tier[s:e] == int(tier)
        if not mask.any():
            return _EMPTY_IDX
        temp = self.temperature[s:e]
        if min_temperature is not None:
            mask &= temp >= min_temperature
        cand = mask.nonzero()[0]
        if cand.size == 0 or max_chunks <= 0:
            return cand[:0]
        return cand[_stable_top_k(-temp[cand], max_chunks)]

    # ------------------------------------------------------------------ #
    # kernel: cross-task victim selection (Algorithm 2's global scan)
    # ------------------------------------------------------------------ #
    def select_victims(
        self,
        tier: TierKind,
        need_chunks: int,
        classify: Callable[[str], bool],
        *,
        protect_owner: Optional[str] = None,
    ) -> list[tuple["PageSet", np.ndarray]]:
        """Globally-coldest unpinned victims in ``tier``, unprotected
        workflows first — the arena form of
        :meth:`~repro.core.replacement.PageReplacementPolicy.select_victims`.

        One masked pass over the arena replaces per-task ``coldest_in``
        calls plus a Python merge loop; the
        two-level (protected, temperature, registration, index) order is
        reproduced by selecting per protection class with
        :func:`_top_k_by_temp_rank`.  Returns ``(pageset, local_indices)``
        in first-appearance order with chunks in selection order.
        """
        return self._group_in_order(
            self.select_victim_positions(
                tier, need_chunks, classify, protect_owner=protect_owner
            )
        )

    def select_victim_positions(
        self,
        tier: TierKind,
        need_chunks: int,
        classify: Callable[[str], bool],
        *,
        protect_owner: Optional[str] = None,
    ) -> np.ndarray:
        """:meth:`select_victims` before grouping: raw arena positions in
        selection order — the form the arena-fast batched demotion path
        consumes directly."""
        hi = self.hi
        if hi == 0 or need_chunks <= 0 or not self._tasks:
            return _EMPTY_IDX
        elig = self.tier[:hi] == int(tier)
        elig &= ~self.pinned[:hi]
        n_slots = len(self._slots)
        prot_tab = np.zeros(n_slots, dtype=bool)
        for entry in self._tasks.values():
            if entry.owner == protect_owner:
                elig[entry.start : entry.start + entry.n] = False
            elif classify(entry.owner):
                prot_tab[entry.slot] = True
        cand = np.flatnonzero(elig)
        if cand.size == 0:
            return _EMPTY_IDX
        self.kernel_invocations += 1
        if obs.enabled():
            obs.counter("arena.cells_scanned", hi, node=self.node_id, kernel="select_victims")
        temp = self.temperature[:hi]
        rank = self.rank[:hi]
        prot_c = prot_tab[self.task_id[cand]]
        unprot = cand[~prot_c]
        chosen = _top_k_by_temp_rank(temp, rank, unprot, min(need_chunks, unprot.size))
        if chosen.size < need_chunks:
            prot = cand[prot_c]
            if prot.size:
                extra = _top_k_by_temp_rank(
                    temp, rank, prot, min(need_chunks - chosen.size, prot.size)
                )
                chosen = np.concatenate([chosen, extra])
        return chosen

    def _group_in_order(self, chosen: np.ndarray) -> list[tuple["PageSet", np.ndarray]]:
        """Group selected arena positions by owner (first-appearance order),
        keeping each owner's chunks in selection order as local indices."""
        if chosen.size == 0:
            return []
        tids = self.task_id[chosen]
        uniq, first = np.unique(tids, return_index=True)
        out: list[tuple["PageSet", np.ndarray]] = []
        for slot in uniq[np.argsort(first, kind="stable")]:
            entry = self._slots[slot]
            local = chosen[tids == slot] - entry.start
            out.append((entry.ps, local.astype(np.int64)))
        return out

    # ------------------------------------------------------------------ #
    # kernel: global LRU scan (the Linux baseline's victim walk)
    # ------------------------------------------------------------------ #
    def global_coldest(
        self,
        tier: TierKind,
        max_chunks: int,
        rng: np.random.Generator,
        *,
        include_pinned: bool = False,
        skip_owners: frozenset[str] = frozenset(),
        scan_noise: float = 0.0,
    ) -> list[tuple["PageSet", np.ndarray]]:
        """The arena form of :func:`repro.policies.linux.global_coldest`:
        ``max_chunks`` victims, the cold share globally coldest and the
        noise share uniform over candidate chunks, with the *identical*
        single ``rng.choice`` draw (same pool total, same pick→chunk map)
        so RNG streams match the per-pageset merge exactly.
        """
        if max_chunks <= 0 or not self._tasks:
            return []
        hi = self.hi
        if hi == 0:
            return []
        n_noise = int(round(max_chunks * scan_noise)) if scan_noise > 0 else 0
        n_cold = max_chunks - n_noise
        elig = self.tier[:hi] == int(tier)
        if not include_pinned:
            elig &= ~self.pinned[:hi]
        for owner in skip_owners:
            entry = self._tasks.get(owner)
            if entry is not None:
                elig[entry.start : entry.start + entry.n] = False
        cand = np.flatnonzero(elig)
        if cand.size == 0:
            return []
        self.kernel_invocations += 1
        if obs.enabled():
            obs.counter("arena.cells_scanned", hi, node=self.node_id, kernel="global_coldest")
        temp = self.temperature[:hi]
        tids = self.task_id[cand]
        chosen = _top_k_by_temp_rank(temp, self.rank[:hi], cand, min(n_cold, cand.size))
        picks_pos: list[np.ndarray] = [chosen]
        if n_noise:
            # per-task pools capped at max_chunks, in registration order —
            # the per-pageset merge's pool layout, so the single choice() draw
            # and its pick→(task, j-th coldest) decoding line up exactly
            counts = np.bincount(tids, minlength=len(self._slots))
            pool_entries = [e for e in self._tasks.values() if counts[e.slot] > 0]
            sizes = np.array(
                [min(int(counts[e.slot]), max_chunks) for e in pool_entries], dtype=np.int64
            )
            total = int(sizes.sum())
            if total:
                picks = rng.choice(total, size=min(n_noise, total), replace=False)
                offsets = np.concatenate(([0], np.cumsum(sizes)))
                by_task: dict[int, np.ndarray] = {}
                noise = np.empty(picks.size, dtype=np.int64)
                for j, p in enumerate(picks):
                    k = int(np.searchsorted(offsets, p, side="right")) - 1
                    entry = pool_entries[k]
                    order = by_task.get(entry.slot)
                    if order is None:
                        c = cand[tids == entry.slot]
                        order = c[np.argsort(temp[c], kind="stable")]
                        by_task[entry.slot] = order
                    noise[j] = order[int(p) - int(offsets[k])]
                picks_pos.append(noise)
        allpos = np.concatenate(picks_pos)
        # group by owner in first-appearance order; per-owner indices are
        # deduped ascending (np.unique == the per-pageset merge's sorted(set))
        all_tids = self.task_id[allpos]
        uniq, first = np.unique(all_tids, return_index=True)
        out: list[tuple["PageSet", np.ndarray]] = []
        for slot in uniq[np.argsort(first, kind="stable")]:
            entry = self._slots[slot]
            local = np.unique(allpos[all_tids == slot] - entry.start)
            out.append((entry.ps, local.astype(np.int64)))
        return out

    # ------------------------------------------------------------------ #
    # kernels: cross-task candidate scans + batch commits (arena-fast)
    #
    # The exact core must interleave candidate scans with migrations
    # (mid-pass moves feed later scans), which forces a Python loop per
    # task.  These kernels instead select candidates for *all* tasks from
    # one pre-pass snapshot per tier and commit moves in one vectorised
    # pass — the relaxed arena-fast contract.
    # ------------------------------------------------------------------ #
    def hot_by_tier(
        self,
        tier: TierKind,
        max_chunks: int,
        *,
        min_temperature: Optional[float] = None,
    ) -> np.ndarray:
        """Up to ``max_chunks`` arena positions resident in ``tier``,
        hottest first (ties by registration order then chunk index),
        across every adopted task in one masked scan."""
        hi = self.hi
        if hi == 0 or max_chunks <= 0 or not self._tasks:
            return _EMPTY_IDX
        mask = self.tier[:hi] == int(tier)
        if not mask.any():
            return _EMPTY_IDX
        temp = self.temperature[:hi]
        if min_temperature is not None:
            mask &= temp >= min_temperature
        cand = np.flatnonzero(mask)
        if cand.size == 0:
            return cand
        self.kernel_invocations += 1
        if obs.enabled():
            obs.counter("arena.cells_scanned", hi, node=self.node_id, kernel="hot_by_tier")
        return _top_k_by_temp_rank(-temp, self.rank[:hi], cand, min(max_chunks, cand.size))

    def cold_by_tier(
        self,
        tier: TierKind,
        max_chunks: int,
        *,
        max_temperature: Optional[float] = None,
        skip_protected: bool = False,
        protect_owner: Optional[str] = None,
        include_pinned: bool = False,
    ) -> np.ndarray:
        """Up to ``max_chunks`` arena positions resident in ``tier``,
        coldest first across every adopted task.  ``skip_protected``
        honours the packed per-slot protection column (which
        :meth:`refresh_protection` must have rebuilt this tick)."""
        hi = self.hi
        if hi == 0 or max_chunks <= 0 or not self._tasks:
            return _EMPTY_IDX
        mask = self.tier[:hi] == int(tier)
        if not mask.any():
            return _EMPTY_IDX
        if not include_pinned:
            mask &= ~self.pinned[:hi]
        temp = self.temperature[:hi]
        if max_temperature is not None:
            mask &= temp <= max_temperature
        if protect_owner is not None:
            entry = self._tasks.get(protect_owner)
            if entry is not None:
                mask[entry.start : entry.start + entry.n] = False
        cand = np.flatnonzero(mask)
        if skip_protected and cand.size:
            prot = self._prot_slots
            require(prot is not None, "refresh_protection() must run before protected scans")
            cand = cand[~prot[self.task_id[cand]]]
        if cand.size == 0:
            return cand
        self.kernel_invocations += 1
        if obs.enabled():
            obs.counter("arena.cells_scanned", hi, node=self.node_id, kernel="cold_by_tier")
        return _top_k_by_temp_rank(temp, self.rank[:hi], cand, min(max_chunks, cand.size))

    def migrate_batch(self, positions: np.ndarray, dst: TierKind) -> tuple[np.ndarray, int, int]:
        """Commit tier moves for ``positions`` (all mapped, none already in
        ``dst``) in one vectorised pass.  Returns ``(bytes_per_src,
        shadow_chunks_dropped, shadow_bytes_dropped)`` so the caller
        (:meth:`NodeMemorySystem.migrate_positions`) can settle the
        used/free/page-cache counters and invariant deltas without looping
        per chunk range.  Shadows drop only on arrival in DRAM (the
        authoritative copy is byte-addressable again)."""
        csizes = self._chunk_sizes()
        comp = (
            self.task_id[positions].astype(np.int64) * NUM_TIERS
            + self.tier[positions].astype(np.int64)
        )
        counts = np.bincount(comp, minlength=csizes.size * NUM_TIERS)
        bytes_per_src = (counts.reshape(csizes.size, NUM_TIERS) * csizes[:, None]).sum(axis=0)
        sh_chunks = 0
        sh_bytes = 0
        if dst == DRAM:
            shadowed = positions[self.in_page_cache[positions]]
            if shadowed.size:
                self.in_page_cache[shadowed] = False
                sh_chunks = int(shadowed.size)
                sh_bytes = int(csizes[self.task_id[shadowed]].sum())
        self.tier[positions] = np.int8(int(dst))
        self.kernel_invocations += 1
        return bytes_per_src, sh_chunks, sh_bytes

    def shadow_batch(self, positions: np.ndarray, room_bytes: int) -> tuple[np.ndarray, int]:
        """Mark page-cache shadow copies for the not-yet-shadowed prefix of
        ``positions`` that fits in ``room_bytes`` of free DRAM.  Returns
        ``(taken_positions, nbytes)``."""
        fresh = positions[~self.in_page_cache[positions]]
        if fresh.size == 0 or room_bytes <= 0:
            return fresh[:0], 0
        cum = np.cumsum(self.chunk_cost(fresh))
        take = fresh[: int(np.searchsorted(cum, room_bytes, side="right"))]
        if take.size == 0:
            return take, 0
        self.in_page_cache[take] = True
        self.kernel_invocations += 1
        return take, int(cum[take.size - 1])

    # ------------------------------------------------------------------ #
    # kernel: tier reductions
    # ------------------------------------------------------------------ #
    def counts_by_task_tier(self) -> np.ndarray:
        """``int64[n_slots, NUM_TIERS]`` mapped-chunk counts per task/tier."""
        hi = self.hi
        n_slots = max(1, len(self._slots))
        if hi == 0:
            return np.zeros((n_slots, NUM_TIERS), dtype=np.int64)
        tier = self.tier[:hi]
        mapped = tier != UNMAPPED
        comp = (
            self.task_id[:hi][mapped].astype(np.int64) * NUM_TIERS
            + tier[mapped].astype(np.int64)
        )
        return np.bincount(comp, minlength=n_slots * NUM_TIERS).reshape(n_slots, NUM_TIERS)

    def used_bytes_by_tier(self) -> np.ndarray:
        """``int64[NUM_TIERS]`` resident bytes per tier — the reduction
        ``NodeMemorySystem.validate`` checks its counters against."""
        return (self.counts_by_task_tier() * self._chunk_sizes()[:, None]).sum(axis=0)

    def shadow_bytes(self) -> int:
        """Total bytes of DRAM page-cache shadow copies."""
        hi = self.hi
        if hi == 0:
            return 0
        shadow = self.in_page_cache[:hi]
        if not shadow.any():
            return 0
        counts = np.bincount(
            self.task_id[:hi][shadow].astype(np.int64), minlength=len(self._slots)
        )
        return int((counts * self._chunk_sizes()[: counts.size]).sum())

    def evictable_bytes(
        self,
        tiers: Iterable[TierKind],
        cold_threshold: float,
        *,
        protect_owner: Optional[str] = None,
    ) -> dict[TierKind, int]:
        """Cold, unpinned, unprotected bytes per tier — Algorithm 1's
        evictable map as one composite bincount instead of a per-task loop."""
        tiers = tuple(tiers)
        hi = self.hi
        if hi == 0:
            return {t: 0 for t in tiers}
        tier = self.tier[:hi]
        elig = (tier != UNMAPPED) & ~self.pinned[:hi]
        elig &= self.temperature[:hi] <= cold_threshold
        if protect_owner is not None:
            entry = self._tasks.get(protect_owner)
            if entry is not None:
                elig[entry.start : entry.start + entry.n] = False
        if not elig.any():
            return {t: 0 for t in tiers}
        comp = (
            self.task_id[:hi][elig].astype(np.int64) * NUM_TIERS
            + tier[elig].astype(np.int64)
        )
        n_slots = max(1, len(self._slots))
        counts = np.bincount(comp, minlength=n_slots * NUM_TIERS).reshape(n_slots, NUM_TIERS)
        per_tier = (counts * self._chunk_sizes()[:, None]).sum(axis=0)
        return {t: int(per_tier[int(t)]) for t in tiers}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<NodeArena {self.node_id} tasks={len(self._tasks)} "
            f"hi={self.hi} capacity={self.capacity}>"
        )
