"""Intelligent page-movement tests: promotion, exchange, proactive swap."""

import numpy as np
import pytest

from repro.core.flags import MemFlag
from repro.core.movement import IntelligentPageMovement, MovementConfig
from repro.core.replacement import PageReplacementPolicy
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.policies.base import PolicyContext
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
    """The promote pass marks the (task, tier) pairs holding a candidate
    in one whole-node reduction and scans only those; the marks follow
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
        real = PageSet.hottest_in

        def spy(ps, tier, max_chunks, **kw):
            scans.append((ps.owner, tier))
            return real(ps, tier, max_chunks, **kw)

        monkeypatch.setattr(PageSet, "hottest_in", spy)
        movement.tick(ctx, promote_budget_bytes=MiB(4))
        assert scans == [("swap-hot", SWAP), ("pmem-hot", PMEM), ("cxl-hot", CXL)]
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
