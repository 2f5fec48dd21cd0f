"""Intelligent page-movement tests: promotion, exchange, proactive swap."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.flags import MemFlag
from repro.core.movement import IntelligentPageMovement, MovementConfig
from repro.core.replacement import PageReplacementPolicy
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.policies.base import PolicyContext
from repro.resilience.invariants import InvariantChecker
from repro.util.units import MiB

from conftest import CHUNK, make_pageset, small_specs


def setup(flags_map=None, config=None, **spec_kw):
    flags_map = flags_map or {}
    node = NodeMemorySystem(small_specs(**spec_kw), "n")
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(0))
    owner_flags = lambda o: flags_map.get(o, MemFlag.NONE)
    replacement = PageReplacementPolicy(owner_flags)
    movement = IntelligentPageMovement(owner_flags, replacement, config)
    return node, ctx, movement


class TestConfig:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(Exception):
            MovementConfig(proactive_threshold=0.5, proactive_target=0.8)
        with pytest.raises(Exception):
            MovementConfig(high_watermark=0.5, low_watermark=0.8)


class TestSwapPromotion:
    def test_hot_swap_pages_promoted_first(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:4] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(1))
        assert (ps.tier[:4] != int(SWAP)).all()
        node.validate()

    def test_promotion_counts_minor_faults(self):
        node, ctx, movement = setup()
        minors = []
        ctx.record_minor = lambda owner, n: minors.append(n)
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:2] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(1))
        assert sum(minors) >= 2

    def test_budget_zero_promotes_nothing(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:] = 1.0
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(SWAP) == ps.total_bytes


class TestTierPromotion:
    def test_hot_cxl_pages_move_to_free_dram(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), CXL)
        ps.temperature[:4] = 1.0
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == {0, 1, 2, 3}

    def test_exchange_promotion_displaces_cold_dram(self):
        node, ctx, movement = setup()
        cold = make_pageset(node, "cold", MiB(4))  # fills DRAM
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        cold.temperature[:] = 0.0
        hot = make_pageset(node, "hot", MiB(1))
        node.place(hot, np.arange(hot.n_chunks), CXL)
        hot.temperature[:] = 5.0  # above exchange threshold
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert hot.bytes_in(DRAM) > 0
        assert cold.bytes_in(DRAM) < MiB(4)
        node.validate()

    def test_lukewarm_pages_do_not_trigger_exchange(self):
        node, ctx, movement = setup(
            config=MovementConfig(promote_threshold=0.05, exchange_threshold=10.0)
        )
        cold = make_pageset(node, "cold", MiB(4))
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        warm = make_pageset(node, "warm", MiB(1))
        node.place(warm, np.arange(warm.n_chunks), CXL)
        warm.temperature[:] = 1.0  # promotion-worthy but below exchange bar
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert warm.bytes_in(DRAM) == 0


class TestPromoteCandidateCounts:
    """The promote pass takes its candidates in one whole-node pass and
    queries only the (task, tier) pairs holding one; the set follows
    every move inside the pass that can create a candidate."""

    def test_scans_only_pairs_holding_a_candidate(self, monkeypatch):
        node, ctx, movement = setup()
        layout = {  # owner: (tier, temperatures of its 8 chunks)
            "swap-hot": (SWAP, [1.0, 1.0] + [0.0] * 6),
            "pmem-hot": (PMEM, [0.5] + [0.0] * 7),
            "cxl-hot": (CXL, [0.3] * 8),
            "dram-hot": (DRAM, [1.0] * 8),  # DRAM is never scanned
            "cxl-cold": (CXL, [0.0] * 8),
            "swap-lukewarm": (SWAP, [0.01] * 8),  # below promote_threshold
        }
        for owner, (tier, temps) in layout.items():
            ps = make_pageset(node, owner, 8 * CHUNK)
            node.place(ps, np.arange(ps.n_chunks), tier)
            ps.temperature[:] = temps
        scans = []
        real = PageSet.hottest_of

        def spy(ps, cand, max_chunks):
            # a query selects among the task's candidates in one tier
            scans.append((ps.owner, set(ps.tier[cand].tolist())))
            return real(ps, cand, max_chunks)

        monkeypatch.setattr(PageSet, "hottest_of", spy)
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert scans == [("swap-hot", {SWAP}), ("pmem-hot", {PMEM}), ("cxl-hot", {CXL})]
        for owner in ("swap-hot", "pmem-hot", "cxl-hot"):
            ps = node.get_pageset(owner)
            assert (ps.tier[ps.temperature >= 0.05] == int(DRAM)).all()
        node.validate()

    def test_exchange_demotion_of_a_warm_chunk_is_recounted(self):
        # "a" (64 KiB chunks, registered first) holds very hot CXL chunks
        # while "b" (128 KiB chunks) fills DRAM with warm ones.  The
        # exchange sizes its victim count by the first pageset's chunk
        # size, so demoting 4 of b's chunks frees twice what a needs; b's
        # demoted chunks are still above promote_threshold, so b's own
        # CXL scan later in the same pass brings 2 of them back.
        node, ctx, movement = setup()
        a = make_pageset(node, "a", 4 * CHUNK)
        node.place(a, np.arange(a.n_chunks), CXL)
        a.temperature[:] = 1.0
        b = make_pageset(node, "b", MiB(4), chunk_size=2 * CHUNK)
        node.place(b, np.arange(b.n_chunks), DRAM)
        b.temperature[:] = 0.1  # promotion-worthy, below the exchange bar
        movement._promote(ctx, MiB(4))
        assert (a.tier == int(DRAM)).all()
        assert list(np.flatnonzero(b.tier == int(CXL))) == [2, 3]
        assert b.bytes_in(DRAM) == MiB(4) - 2 * b.chunk_size
        node.validate()

    def test_pmem_spill_counts_as_a_cxl_candidate(self):
        # "hot" (64 KiB chunks) holds very hot PMem chunks; "cold"
        # (32 KiB chunks) fills DRAM.  Each exchange frees half the bytes
        # it asks for, so the PMem step promotes 4 chunks and spills 4 to
        # CXL, and the CXL step of the same task exchanges again for 2.
        node, ctx, movement = setup()
        hot = make_pageset(node, "hot", 8 * CHUNK)
        node.place(hot, np.arange(hot.n_chunks), PMEM)
        hot.temperature[:] = 1.0
        cold = make_pageset(node, "cold", MiB(4), chunk_size=CHUNK // 2)
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        movement._promote(ctx, MiB(4))
        assert list(np.flatnonzero(hot.tier == int(DRAM))) == [0, 1, 2, 3, 4, 5]
        assert list(np.flatnonzero(hot.tier == int(CXL))) == [6, 7]
        node.validate()

    def test_a_pull_up_into_cxl_is_a_candidate_in_the_same_pass(self):
        # DRAM is full of cold chunks, so pass 1 lands "hot"'s swap chunks
        # in CXL; pass 2 must see them there and exchange them into DRAM
        node, ctx, movement = setup(dram=MiB(1), pmem=MiB(1), cxl=MiB(2))
        cold = make_pageset(node, "cold", MiB(1))
        node.place(cold, np.arange(cold.n_chunks), DRAM)
        hot = make_pageset(node, "hot", 4 * CHUNK)
        node.place(hot, np.arange(hot.n_chunks), SWAP)
        hot.temperature[:] = 1.0
        movement._promote(ctx, MiB(4))
        assert (hot.tier == int(DRAM)).all()
        assert cold.bytes_in(CXL) == 4 * CHUNK
        node.validate()

    def test_a_node_without_candidates_makes_one_pass_and_no_query(self, monkeypatch):
        node, ctx, movement = setup()
        for owner, tier in (("dram", DRAM), ("cxl", CXL), ("swap", SWAP)):
            ps = make_pageset(node, owner, 8 * CHUNK)
            node.place(ps, np.arange(ps.n_chunks), tier)
            # DRAM is never a source; the rest sit just under the bar
            ps.temperature[:] = 1.0 if tier is DRAM else 0.04
        passes, queries = [], []
        real_pass = type(node.arena).promotion_candidates
        real_query = PageSet.hottest_of
        monkeypatch.setattr(
            type(node.arena), "promotion_candidates",
            lambda arena, bar: passes.append(bar) or real_pass(arena, bar),
        )
        monkeypatch.setattr(
            PageSet, "hottest_of",
            lambda ps, cand, k: queries.append(ps.owner) or real_query(ps, cand, k),
        )
        movement._promote(ctx, MiB(4))
        assert (passes, queries) == ([0.05], [])


# --------------------------------------------------------------------------- #
# the candidate set against the pass it replaced
# --------------------------------------------------------------------------- #


def reference_promote(movement, ctx, budget_bytes):
    """The promote pass with every (task, tier) pair queried from scratch
    by ``PageSet.hottest_in``: the decisions the candidate set keeps."""
    mem = ctx.memory
    cfg = movement.config
    thr = cfg.promote_threshold
    sets = list(mem.pagesets())
    room_bytes = {t: mem.free(t) for t in (DRAM, CXL, PMEM)}
    for ps in sets:
        if budget_bytes <= 0:
            return
        hot_swap = ps.hottest_in(SWAP, budget_bytes // ps.chunk_size, min_temperature=thr)
        if hot_swap.size:
            moved = movement._pull_up(ctx, ps, hot_swap, room_bytes=room_bytes)
            if moved.size:
                ctx.record_minor(ps.owner, int(moved.size))
                budget_bytes -= int(moved.size) * ps.chunk_size
    dram_free = mem.free(DRAM)
    cxl_free = mem.free(CXL)
    for ps in sets:
        if budget_bytes <= 0:
            return
        for tier in (PMEM, CXL):
            cand = ps.hottest_in(tier, budget_bytes // ps.chunk_size, min_temperature=thr)
            if cand.size == 0:
                continue
            room = max(0, dram_free) // ps.chunk_size
            if room < cand.size:
                very_hot = cand[ps.temperature[cand] >= cfg.exchange_threshold]
                want = int(very_hot.size) - int(room)
                if want > 0:
                    movement.replacement.replace(
                        ctx, want * ps.chunk_size, protect_owner=ps.owner
                    )
                    dram_free = mem.free(DRAM)
                    cxl_free = mem.free(CXL)
                    room = max(0, dram_free) // ps.chunk_size
            take = cand[: int(room)]
            if tier is PMEM and take.size < cand.size and cxl_free > 0:
                spill = cand[take.size:][: max(0, cxl_free) // ps.chunk_size]
                if spill.size:
                    mem.migrate(ps, spill, CXL)
                    cxl_free -= int(spill.size) * ps.chunk_size
                    ctx.record_minor(ps.owner, int(spill.size))
                    budget_bytes -= int(spill.size) * ps.chunk_size
            if take.size:
                shadowed = int(np.count_nonzero(ps.in_page_cache[take]))
                mem.migrate(ps, take, DRAM)
                dram_free -= (int(take.size) - shadowed) * ps.chunk_size
                if tier is CXL:
                    cxl_free += int(take.size) * ps.chunk_size
                ctx.record_minor(ps.owner, int(take.size))
                budget_bytes -= int(take.size) * ps.chunk_size
            if budget_bytes <= 0:
                return


#: temperatures on and around the promote (0.05) and exchange (0.20) bars
BAR_TEMPS = st.sampled_from([0.0, 0.01, 0.049, 0.05, 0.1, 0.2, 0.35, 1.0])
TEMPS = st.one_of(BAR_TEMPS, st.floats(min_value=0.0, max_value=1.0, width=32))
TIERS = st.sampled_from([DRAM, PMEM, CXL, SWAP, None])  # None: unmapped


@st.composite
def promote_nodes(draw):
    """A small node's state: tasks of mixed chunk sizes over all four
    tiers (some unregistered again, leaving free runs), shadows, DRAM
    optionally filled to the brim, and a promotion budget."""
    tasks = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 24))
        tasks.append({
            "chunk": draw(st.sampled_from([CHUNK // 2, CHUNK, 2 * CHUNK])),
            "tiers": draw(st.lists(TIERS, min_size=n, max_size=n)),
            "temps": draw(st.lists(TEMPS, min_size=n, max_size=n)),
            "shadow": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            "lat": draw(st.booleans()),
            "freed": draw(st.booleans()),
        })
    fill = draw(st.one_of(st.none(), st.lists(TEMPS, min_size=1, max_size=4)))
    # from nothing to above every candidate, sometimes off a chunk boundary
    budget = draw(st.integers(0, 600)) * (CHUNK // 2) + draw(st.sampled_from([0, 1000]))
    return tasks, fill, budget


def build_promote_node(state):
    tasks, fill, _ = state
    flags = {f"t{i}": MemFlag.LAT for i, td in enumerate(tasks) if td["lat"]}
    node, ctx, movement = setup(flags, dram=MiB(1), pmem=MiB(1), cxl=MiB(2))
    faults = []
    ctx.record_minor = lambda owner, n: faults.append((owner, n))
    freed = []
    for i, td in enumerate(tasks):
        ps = make_pageset(node, f"t{i}", len(td["tiers"]) * td["chunk"], td["chunk"])
        tiers = np.array([SWAP if t is None else t for t in td["tiers"]])
        for tier in (DRAM, PMEM, CXL, SWAP):
            idx = np.flatnonzero(
                (tiers == tier) & np.array([t is not None for t in td["tiers"]])
            )
            fits = idx[: max(0, node.free(tier)) // ps.chunk_size]
            node.place(ps, fits, tier)
            node.place(ps, idx[fits.size:], SWAP)  # a full tier spills to swap
        ps.temperature[:] = td["temps"]
        shadow = np.flatnonzero(np.array(td["shadow"]) & (ps.tier > int(DRAM)))
        node.add_page_cache_shadow(ps, shadow)
        if td["freed"]:
            freed.append(ps)
    for ps in freed:
        node.unregister(ps)
    if fill is not None:
        # fill DRAM to the brim, so that a promotion must exchange
        filler = make_pageset(node, "filler", max(CHUNK // 2, node.free(DRAM)), CHUNK // 2)
        idx = np.arange(node.free(DRAM) // filler.chunk_size)
        node.place(filler, idx, DRAM)
        filler.temperature[:] = np.resize(np.array(fill, dtype=np.float32), filler.n_chunks)
    return node, ctx, movement, faults


def traffic(node):
    stats = dict(vars(node.stats))
    stats["migrated_bytes"] = stats["migrated_bytes"].tolist()
    return stats


class TestCandidateSetMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(state=promote_nodes(), checked=st.booleans())
    def test_pass_equals_from_scratch_queries(self, state, checked):
        node, ctx, movement, faults = build_promote_node(state)
        ref, ref_ctx, ref_movement, ref_faults = build_promote_node(state)
        budget = state[2]
        passes, replaces = [], []
        real_pass, real_replace = node.arena.promotion_candidates, movement.replacement.replace
        node.arena.promotion_candidates = lambda bar: passes.append(bar) or real_pass(bar)
        movement.replacement.replace = (
            lambda *a, **kw: replaces.append(1) or real_replace(*a, **kw)
        )
        with obs.session(checker=InvariantChecker() if checked else None):
            movement._promote(ctx, budget)
        reference_promote(ref_movement, ref_ctx, budget)
        for ps, ps_ref in zip(node.pagesets(), ref.pagesets()):
            assert ps.owner == ps_ref.owner
            assert ps.tier.tolist() == ps_ref.tier.tolist()
            assert ps.in_page_cache.tolist() == ps_ref.in_page_cache.tolist()
        assert faults == ref_faults
        assert traffic(node) == traffic(ref)
        assert [node.used(t) for t in (DRAM, PMEM, CXL, SWAP)] == [
            ref.used(t) for t in (DRAM, PMEM, CXL, SWAP)
        ]
        # one whole-node pass per tick, and one more per exchange
        assert len(passes) == 1 + len(replaces)
        node.validate()


class TestPullUpPartialFill:
    """`_pull_up` fills DRAM→CXL→PMem in the caller's candidate order and
    reports exactly the chunks it moved, chunk for chunk."""

    def make_swapped(self, n_mib=4, **spec_kw):
        node, ctx, movement = setup(**spec_kw)
        ps = make_pageset(node, "a", MiB(n_mib))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        return node, ctx, movement, ps

    def test_spills_to_pmem_in_candidate_order(self):
        # DRAM and CXL hold 16 chunks each; the 64-chunk promotion set
        # must overflow the remainder into PMem, preserving order.
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8)
        )
        idx = np.arange(ps.n_chunks)
        moved = movement._pull_up(ctx, ps, idx)
        assert np.array_equal(moved, idx)  # everything fit somewhere
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(0, 16))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(16, 32))
        assert set(np.flatnonzero(ps.tier == int(PMEM))) == set(range(32, 64))
        node.validate()

    def test_moved_subset_is_exact_when_all_tiers_fill(self):
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(1)
        )
        idx = np.arange(ps.n_chunks)
        moved = movement._pull_up(ctx, ps, idx)
        # 48 chunks of room total: the moved array is exactly the first
        # 48 candidates, in order, and the tail stays swapped out.
        assert np.array_equal(moved, idx[:48])
        assert set(np.flatnonzero(ps.tier == int(SWAP))) == set(range(48, 64))
        node.validate()

    def test_candidate_order_wins_over_index_order(self):
        # The promotion loop hands `_pull_up` a hotness-ranked candidate
        # list; the fill must honor that ranking, not chunk index.
        node, ctx, movement, ps = self.make_swapped(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8)
        )
        idx = np.arange(ps.n_chunks)[::-1].copy()  # hottest = highest index
        moved = movement._pull_up(ctx, ps, idx)
        assert np.array_equal(moved, idx)
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(48, 64))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(32, 48))
        node.validate()

    def test_tick_spill_reaches_pmem_in_rank_order(self):
        # End-to-end: a swap-promotion tick whose hot set exceeds
        # DRAM+CXL room spills the coolest promoted chunks to PMem.
        # watermarks at 1.0 so the exactly-full DRAM this ends with does
        # not trip reactive replacement; temps sit between the promote
        # and exchange bars so pass 2 leaves the placement alone
        node, ctx, movement = setup(
            dram=MiB(1), cxl=MiB(1), pmem=MiB(8),
            config=MovementConfig(
                high_watermark=1.0, low_watermark=1.0, exchange_threshold=0.95
            ),
        )
        ps = make_pageset(node, "a", MiB(4))
        node.place(ps, np.arange(ps.n_chunks), SWAP)
        ps.temperature[:] = np.linspace(0.9, 0.5, ps.n_chunks)
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert set(np.flatnonzero(ps.tier == int(DRAM))) == set(range(0, 16))
        assert set(np.flatnonzero(ps.tier == int(CXL))) == set(range(16, 32))
        assert set(np.flatnonzero(ps.tier == int(PMEM))) == set(range(32, 64))
        assert not (ps.tier == int(SWAP)).any()
        node.validate()


class TestProactiveSwap:
    def test_cold_unprotected_pages_move_to_cxl_with_shadows(self):
        node, ctx, movement = setup(
            config=MovementConfig(proactive_threshold=0.5, proactive_target=0.25)
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)  # 75% of DRAM
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(CXL) > 0
        assert ps.bytes_in(SWAP) == 0
        assert ps.in_page_cache.sum() > 0  # shadows kept in free DRAM
        node.validate()

    def test_latency_sensitive_owners_skipped(self):
        node, ctx, movement = setup(
            flags_map={"lat": MemFlag.LAT},
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.25, high_watermark=0.99
            ),
        )
        ps = make_pageset(node, "lat", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(DRAM) == MiB(3)

    def test_below_threshold_no_movement(self):
        node, ctx, movement = setup()
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), DRAM)  # 25% of DRAM
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(DRAM) == MiB(1)

    def test_warm_pages_not_proactively_swapped(self):
        node, ctx, movement = setup(
            config=MovementConfig(proactive_threshold=0.5, proactive_target=0.25)
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        ps.temperature[:] = 1.0  # everything warm: nothing qualifies
        movement.tick(ctx, promote_budget_bytes=0)
        assert ps.bytes_in(CXL) == 0


class TestCompaction:
    def test_compaction_recorded_after_big_proactive_pass(self):
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=2 * CHUNK,
            )
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions >= 1

    def test_below_byte_threshold_no_compaction(self):
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=MiB(64),
            )
        )
        ps = make_pageset(node, "a", MiB(3))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions == 0

    def test_deprecated_chunk_alias_scales_by_default_chunk_size(self):
        """The byte threshold defaults to the 16 default-size chunks the
        removed chunk-count alias used to give.  The config accepts
        exactly its fields as keywords, and the byte threshold is the
        only compaction field left, so the alias is rejected."""
        import dataclasses

        from repro.memory.pageset import DEFAULT_CHUNK_SIZE

        assert MovementConfig().compaction_min_bytes == 16 * DEFAULT_CHUNK_SIZE
        compaction = [
            f.name for f in dataclasses.fields(MovementConfig) if f.name.startswith("compaction")
        ]
        assert compaction == ["compaction_min_bytes"]
        with pytest.raises(Exception):
            MovementConfig(compaction_min_bytes=0)

    def test_threshold_is_bytes_not_an_arbitrary_pagesets_chunks(self):
        """Mixed chunk sizes on one node: the trigger must compare bytes
        freed against bytes, not against `chunks * first-pageset-chunk`
        (which made the threshold depend on registration order)."""
        node, ctx, movement = setup(
            config=MovementConfig(
                proactive_threshold=0.5, proactive_target=0.1,
                compaction_min_bytes=MiB(2),
            )
        )
        # a tiny-chunk pageset registers first; the old trigger read ITS
        # chunk size, so `2 chunks` meant 2*16KiB even though the big
        # pageset does all the freeing
        tiny = make_pageset(node, "tiny", CHUNK, chunk_size=CHUNK // 4)
        node.place(tiny, np.arange(tiny.n_chunks), CXL)
        big = make_pageset(node, "big", MiB(3))
        node.place(big, np.arange(big.n_chunks), DRAM)
        movement.tick(ctx, promote_budget_bytes=0)
        assert node.stats.compactions >= 1
        node.validate()
