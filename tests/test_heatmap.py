"""Page-heatmap tests: decay, accumulation, hot-set and idle analyses."""

import math

import numpy as np
import pytest

from repro.core.heatmap import HeatmapConfig, PageHeatmap, hot_mask, idle_fraction
from repro.memory.pageset import PageSet
from repro.memory.tiers import DRAM
from repro.util.units import KiB

from conftest import CHUNK, make_pageset

def fresh_ps(n=8):
    ps = PageSet("t", n * CHUNK, CHUNK)
    return ps


class TestAdvance:
    def test_accumulates_weighted_heat(self):
        ps = fresh_ps(4)
        ps.access_weight[:] = [0.7, 0.3, 0, 0]
        PageHeatmap(HeatmapConfig(tau=30.0)).advance(ps, dt=1.0)
        assert ps.temperature[0] > ps.temperature[1] > 0
        assert ps.temperature[2] == 0

    def test_exponential_decay(self):
        ps = fresh_ps(2)
        ps.temperature[:] = 1.0
        hm = PageHeatmap(HeatmapConfig(tau=10.0))
        hm.advance(ps, dt=10.0, access_rate=0.0)
        assert ps.temperature[0] == pytest.approx(math.exp(-1.0), rel=1e-5)

    def test_zero_dt_noop(self):
        ps = fresh_ps(2)
        ps.temperature[:] = 1.0
        PageHeatmap().advance(ps, dt=0.0)
        assert (ps.temperature == 1.0).all()

    def test_access_rate_scales_heating(self):
        fast, slow = fresh_ps(2), fresh_ps(2)
        for ps in (fast, slow):
            ps.access_weight[:] = 0.5
        hm = PageHeatmap()
        hm.advance(fast, 1.0, access_rate=1.0)
        hm.advance(slow, 1.0, access_rate=0.1)
        assert fast.temperature[0] > slow.temperature[0]

    def test_advance_node_uses_per_owner_rates(self, node):
        a = make_pageset(node, "a", 4 * CHUNK)
        b = make_pageset(node, "b", 4 * CHUNK)
        for ps in (a, b):
            ps.access_weight[:] = 0.25
        PageHeatmap().advance_node(node, 1.0, rates={"a": 1.0})  # b idle
        assert a.temperature[0] > 0
        assert b.temperature[0] == 0


class TestHotMask:
    def test_covers_requested_heat_share(self):
        ps = fresh_ps(10)
        ps.temperature[:] = [50, 30, 10, 5, 2, 1, 1, 0.5, 0.3, 0.2]
        mask = hot_mask(ps, 0.80)
        covered = ps.temperature[mask].sum() / ps.temperature.sum()
        assert covered >= 0.80
        # and is minimal: dropping the coolest member must fall below
        idx = np.flatnonzero(mask)
        reduced = ps.temperature[idx].sum() - ps.temperature[idx].min()
        assert reduced / ps.temperature.sum() < 0.80

    def test_no_heat_no_hot_set(self):
        ps = fresh_ps(4)
        assert not hot_mask(ps, 0.8).any()

    def test_zero_share(self):
        ps = fresh_ps(4)
        ps.temperature[:] = 1.0
        assert not hot_mask(ps, 0.0).any()

    def test_hot_set_bytes(self):
        ps = fresh_ps(10)
        ps.temperature[:] = 0
        ps.temperature[:2] = 100.0
        hm = PageHeatmap(HeatmapConfig(hot_quantile_share=0.8))
        assert hm.hot_set_bytes(ps) == 2 * CHUNK


class TestIdleFraction:
    def test_counts_untouched_mapped_chunks(self, node):
        ps = make_pageset(node, "a", 8 * CHUNK)
        node.place(ps, np.arange(8), DRAM)
        ps.temperature[:4] = 1.0
        assert idle_fraction(ps) == pytest.approx(0.5)

    def test_unmapped_excluded(self, node):
        ps = make_pageset(node, "a", 8 * CHUNK)
        node.place(ps, np.arange(4), DRAM)
        assert idle_fraction(ps) == pytest.approx(1.0)

    def test_empty_pageset(self):
        assert idle_fraction(fresh_ps(4)) == 0.0
