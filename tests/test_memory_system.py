"""NodeMemorySystem accounting tests, including a hypothesis state-machine
style random-operation check of the accounting invariant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.util.errors import AllocationError
from repro.util.units import KiB, MiB

from conftest import CHUNK, make_pageset, small_specs


class TestRegistry:
    def test_register_and_unregister(self, node):
        ps = make_pageset(node, "a", MiB(1))
        assert node.get_pageset("a") is ps
        node.unregister(ps)
        assert node.get_pageset("a") is None

    def test_duplicate_owner_rejected(self, node):
        make_pageset(node, "a", MiB(1))
        with pytest.raises(Exception):
            make_pageset(node, "a", MiB(1))

    def test_unregister_releases_memory(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        used_before = node.used(DRAM)
        assert used_before == MiB(1)
        node.unregister(ps)
        assert node.used(DRAM) == 0

    def test_must_register_before_place(self, node):
        ps = PageSet("ghost", MiB(1), CHUNK)
        with pytest.raises(Exception):
            node.place(ps, np.arange(ps.n_chunks), DRAM)


class TestPlace:
    def test_place_updates_accounting(self, node):
        ps = make_pageset(node, "a", MiB(1))
        placed = node.place(ps, np.arange(8), DRAM)
        assert placed == 8 * CHUNK
        assert node.used(DRAM) == 8 * CHUNK
        assert node.free(DRAM) == node.capacity(DRAM) - 8 * CHUNK
        node.validate()

    def test_place_empty_is_noop(self, node):
        ps = make_pageset(node, "a", MiB(1))
        assert node.place(ps, np.array([], dtype=np.int64), DRAM) == 0

    def test_place_over_capacity_raises(self, node):
        ps = make_pageset(node, "a", MiB(16))
        with pytest.raises(AllocationError):
            node.place(ps, np.arange(ps.n_chunks), DRAM)  # DRAM is 4 MiB

    def test_place_mapped_chunk_rejected(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), DRAM)
        with pytest.raises(Exception):
            node.place(ps, np.arange(4), CXL)

    def test_place_reclaims_page_cache_for_room(self, node):
        ps = make_pageset(node, "a", MiB(4))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        # demote half to swap and shadow them: page cache fills DRAM
        half = np.arange(ps.n_chunks // 2)
        node.swap_out(ps, half)
        node.add_page_cache_shadow(ps, half)
        assert node.page_cache_used > 0
        # a fresh allocation must squeeze the cache out, not fail
        ps2 = make_pageset(node, "b", MiB(2))
        node.place(ps2, np.arange(ps2.n_chunks), DRAM)
        node.validate()


class TestMigrate:
    def test_migrate_moves_bytes(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(8), DRAM)
        moved = node.migrate(ps, np.arange(4), CXL)
        assert moved == 4 * CHUNK
        assert node.used(DRAM) == 4 * CHUNK
        assert node.used(CXL) == 4 * CHUNK
        node.validate()

    def test_migrate_same_tier_is_noop(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), DRAM)
        assert node.migrate(ps, np.arange(4), DRAM) == 0
        assert node.stats.total_migrated_bytes == 0

    def test_migrate_unmapped_rejected(self, node):
        ps = make_pageset(node, "a", MiB(1))
        with pytest.raises(Exception):
            node.migrate(ps, np.arange(2), CXL)

    def test_migrate_records_stats(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(8), DRAM)
        node.swap_out(ps, np.arange(4))
        assert node.stats.swapped_out_bytes == 4 * CHUNK
        node.migrate(ps, np.arange(4), DRAM)
        assert node.stats.swapped_in_bytes == 4 * CHUNK
        assert node.stats.migrated_bytes[int(DRAM), int(SWAP)] == 4 * CHUNK

    def test_migration_window_accumulates(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(8), DRAM)
        node.migrate(ps, np.arange(2), CXL)
        node.migrate(ps, np.arange(2, 4), CXL)
        assert node.migration_bytes_window == 4 * CHUNK

    def test_migrate_over_capacity_raises(self, node):
        ps = make_pageset(node, "a", MiB(12))
        node.place(ps, np.arange(ps.n_chunks), CXL)
        with pytest.raises(AllocationError):
            node.migrate(ps, np.arange(ps.n_chunks), DRAM)


class TestPageCache:
    def test_shadow_requires_non_dram(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), DRAM)
        with pytest.raises(Exception):
            node.add_page_cache_shadow(ps, np.arange(4))

    def test_shadow_limited_by_free_dram(self):
        node = NodeMemorySystem(small_specs(dram=4 * CHUNK), "n")
        ps = make_pageset(node, "a", 8 * CHUNK)
        node.place(ps, np.arange(8), CXL)
        n = node.add_page_cache_shadow(ps, np.arange(8))
        assert n == 4  # only free DRAM worth of shadows
        assert node.page_cache_used == 4 * CHUNK
        node.validate()

    def test_promotion_to_dram_drops_shadow(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), CXL)
        node.add_page_cache_shadow(ps, np.arange(4))
        node.migrate(ps, np.arange(4), DRAM)
        assert node.page_cache_used == 0
        assert not ps.in_page_cache.any()
        node.validate()

    def test_double_shadow_not_double_counted(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), CXL)
        node.add_page_cache_shadow(ps, np.arange(4))
        before = node.page_cache_used
        node.add_page_cache_shadow(ps, np.arange(4))
        assert node.page_cache_used == before


class TestRelease:
    def test_release_unmaps_and_drops_shadows(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), CXL)
        node.place(ps, np.arange(4, 8), DRAM)
        node.add_page_cache_shadow(ps, np.arange(4))
        assert node.release(ps, np.arange(2, 12)) == 6 * CHUNK  # 8..11 unmapped
        assert node.used(CXL) == 2 * CHUNK and node.rss(DRAM) == 0
        assert node.page_cache_used == 2 * CHUNK
        assert node.stats.page_cache_drops == 2
        node.validate()

    def test_releasing_unmapped_chunks_is_a_no_op(self, node):
        ps = make_pageset(node, "a", MiB(1))
        epoch = node.epoch
        assert node.release(ps, np.arange(4)) == 0
        assert node.epoch == epoch


#: every change the node's rate kernel reads, applied to a pageset whose
#: chunks 0-3 sit in CXL with DRAM shadows, 4-7 in DRAM and 8-9 in PMem
EPOCH_MUTATORS = {
    "place": lambda node, ps: node.place(ps, np.arange(10, 12), PMEM),
    "migrate": lambda node, ps: node.migrate(ps, np.arange(4, 6), PMEM),
    "swap_out": lambda node, ps: node.swap_out(ps, np.arange(4, 6)),
    "unregister": lambda node, ps: node.unregister(ps),
    "release": lambda node, ps: node.release(ps, np.arange(4, 6)),
    "add_page_cache_shadow": lambda node, ps: node.add_page_cache_shadow(ps, np.arange(8, 10)),
    "_drop_shadows": lambda node, ps: node._drop_shadows(ps, np.arange(2)),
    "offline_tier": lambda node, ps: node.offline_tier(PMEM),
    "online_tier": lambda node, ps: node.online_tier(PMEM),
    "set_tier_degraded": lambda node, ps: node.set_tier_degraded(CXL, 0.5),
    "clear_tier_degradation": lambda node, ps: node.clear_tier_degradation(CXL),
    "set_access_weights": lambda node, ps: node.set_access_weights(
        ps, np.full(ps.n_chunks, 1.0 / ps.n_chunks, dtype=np.float32)
    ),
    "clear_access_weights": lambda node, ps: node.set_access_weights(ps, None),
}


class TestPlacementEpoch:
    @pytest.mark.parametrize("mutator", sorted(EPOCH_MUTATORS))
    def test_each_mutator_bumps_the_epoch(self, node, mutator):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), CXL)
        node.place(ps, np.arange(4, 8), DRAM)
        node.place(ps, np.arange(8, 10), PMEM)
        node.add_page_cache_shadow(ps, np.arange(4))
        epoch = node.epoch
        EPOCH_MUTATORS[mutator](node, ps)
        assert node.epoch > epoch
        node.validate()

    def test_reads_and_no_op_moves_leave_it(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), DRAM)
        epoch = node.epoch
        node.migrate(ps, np.arange(4), DRAM)  # already there
        node.add_page_cache_shadow(ps, np.arange(0))
        node.meminfo(), node.tier_health(), node.validate(), node.compact()
        assert node.epoch == epoch


#: epoch mutators that change no pageset: tier health only
NODE_MUTATORS = {"online_tier", "set_tier_degraded", "clear_tier_degradation"}


class TestPageSetVersion:
    """``PageSet.version`` moves with every change to that pageset the rate
    kernel reads (``offline_tier`` reaches it through its evacuation)."""

    @staticmethod
    def placed(node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), CXL)
        node.place(ps, np.arange(4, 8), DRAM)
        node.place(ps, np.arange(8, 10), PMEM)
        node.add_page_cache_shadow(ps, np.arange(4))
        return ps

    @pytest.mark.parametrize("mutator", sorted(set(EPOCH_MUTATORS) - NODE_MUTATORS))
    def test_each_pageset_mutator_bumps_its_version(self, node, mutator):
        ps, other = self.placed(node), make_pageset(node, "b", MiB(1))
        version, others = ps.version, other.version
        EPOCH_MUTATORS[mutator](node, ps)
        assert ps.version > version
        assert other.version == others  # other pagesets keep theirs

    @pytest.mark.parametrize("mutator", sorted(NODE_MUTATORS))
    def test_tier_health_leaves_it(self, node, mutator):
        ps = self.placed(node)
        version = ps.version
        EPOCH_MUTATORS[mutator](node, ps)
        assert ps.version == version

    def test_reads_and_no_op_moves_leave_it(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(4), DRAM)
        version = ps.version
        node.migrate(ps, np.arange(4), DRAM)  # already there
        node.add_page_cache_shadow(ps, np.arange(0))
        node.release(ps, np.arange(4, 6))  # never mapped
        node.meminfo(), node.tier_health(), node.validate(), ps.counts_by_tier()
        assert ps.version == version


class TestRssAndUtilization:
    def test_rss_excludes_page_cache(self, node):
        ps = make_pageset(node, "a", MiB(1))
        node.place(ps, np.arange(8), CXL)
        node.add_page_cache_shadow(ps, np.arange(8))
        assert node.rss(DRAM) == 0
        assert node.used(DRAM) == 8 * CHUNK

    def test_utilization(self, node):
        ps = make_pageset(node, "a", MiB(2))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        assert node.utilization(DRAM) == pytest.approx(0.5)

    def test_compact_counts(self, node):
        node.compact()
        assert node.stats.compactions == 1


class TestAccountingInvariantProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
    def test_random_migrations_preserve_invariant(self, moves):
        """Any sequence of valid migrations keeps per-tier accounting equal
        to the union of pageset metadata."""
        node = NodeMemorySystem(small_specs(dram=MiB(8), pmem=MiB(8), cxl=MiB(8)), "n")
        ps = make_pageset(node, "a", MiB(2))
        node.place(ps, np.arange(ps.n_chunks), DRAM)
        tiers = [DRAM, PMEM, CXL, SWAP]
        for chunk_pick, tier_pick in moves:
            idx = np.array([chunk_pick % ps.n_chunks])
            try:
                node.migrate(ps, idx, tiers[tier_pick])
            except AllocationError:
                pass
            node.validate()
