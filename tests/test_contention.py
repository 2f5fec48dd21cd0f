"""Max-min fair bandwidth-sharing tests (with hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.memory.contention import allocate_bandwidth, fair_share, kernel_allocation


class TestFairShare:
    def test_undersubscribed_everyone_satisfied(self):
        alloc = fair_share(100.0, np.array([10.0, 20.0, 30.0]))
        assert np.allclose(alloc, [10, 20, 30])

    def test_equal_demands_split_evenly(self):
        alloc = fair_share(90.0, np.array([100.0, 100.0, 100.0]))
        assert np.allclose(alloc, [30, 30, 30])

    def test_small_demand_returns_surplus(self):
        # classic max-min example: {2, 8} sharing 8 -> {2, 6}
        alloc = fair_share(8.0, np.array([2.0, 8.0]))
        assert np.allclose(alloc, [2, 6])

    def test_three_level_waterfill(self):
        alloc = fair_share(10.0, np.array([1.0, 3.0, 20.0]))
        # 1 satisfied; 3 satisfied; 20 gets remainder 6
        assert np.allclose(alloc, [1, 3, 6])

    def test_zero_capacity(self):
        alloc = fair_share(0.0, np.array([5.0, 5.0]))
        assert np.allclose(alloc, 0)

    def test_empty_demands(self):
        assert fair_share(10.0, np.array([])).size == 0

    def test_zero_demands_get_zero(self):
        alloc = fair_share(10.0, np.array([0.0, 5.0]))
        assert alloc[0] == 0
        assert alloc[1] == 5

    def test_negative_demand_rejected(self):
        with pytest.raises(Exception):
            fair_share(10.0, np.array([-1.0]))

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=32),
    )
    def test_maxmin_invariants(self, capacity, demands):
        d = np.array(demands)
        alloc = fair_share(capacity, d)
        # never exceed demand, never exceed capacity
        assert np.all(alloc <= d + 1e-9)
        assert alloc.sum() <= capacity + 1e-6
        # work-conserving: either all demand met or capacity exhausted
        if d.sum() > capacity:
            assert alloc.sum() == pytest.approx(capacity, rel=1e-6, abs=1e-6)
        else:
            assert np.allclose(alloc, d)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2, max_size=16),
    )
    def test_maxmin_fairness_property(self, capacity, demands):
        """No unsatisfied task receives less than any other task's allocation
        unless that other task is fully satisfied (the max-min criterion)."""
        d = np.array(demands)
        alloc = fair_share(capacity, d)
        unsat = alloc < d - 1e-9
        if unsat.any():
            floor = alloc[unsat].min()
            # every allocation above the floor belongs to a satisfied task
            above = alloc > floor + 1e-6
            assert np.all(~unsat[above])


class TestAllocateBandwidth:
    def test_per_tier_independence(self):
        caps = np.array([100.0, 50.0])
        demands = np.array([[80.0, 0.0], [80.0, 40.0]])
        out = allocate_bandwidth(caps, demands)
        assert np.allclose(out[:, 0], [50, 50])  # DRAM split evenly
        assert out[1, 1] == pytest.approx(40.0)  # tier 1 uncontended

    def test_multi_tier_aggregation_beats_single(self):
        """A task spreading demand over two tiers achieves more than one
        stuck on a contended single tier — the BW-flag payoff."""
        caps = np.array([100.0, 30.0])
        single = np.array([[60.0, 0.0], [60.0, 0.0], [60.0, 0.0]])
        spread = np.array([[40.0, 20.0], [60.0, 0.0], [60.0, 0.0]])
        a_single = allocate_bandwidth(caps, single).sum(axis=1)
        a_spread = allocate_bandwidth(caps, spread).sum(axis=1)
        assert a_spread[0] > a_single[0]

    def test_shape_validation(self):
        with pytest.raises(Exception):
            allocate_bandwidth(np.array([1.0]), np.array([[1.0, 2.0]]))
        with pytest.raises(Exception):
            allocate_bandwidth(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_zero_demand_matrix(self):
        out = allocate_bandwidth(np.array([10.0, 10.0]), np.zeros((3, 2)))
        assert np.allclose(out, 0)

    def test_negative_demand_rejected(self):
        with pytest.raises(Exception, match="non-negative"):
            allocate_bandwidth(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [2.0, -1.0]]))

    def test_negative_capacity_rejected_only_where_demanded(self):
        demands = np.array([[1.0, 0.0], [2.0, 0.0]])
        out = allocate_bandwidth(np.array([1.0, -1.0]), demands)  # tier 1 idle
        assert out.tolist() == [[0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(Exception, match="capacity"):
            allocate_bandwidth(np.array([-1.0, 1.0]), demands)


#: demand values with ties, zeros and magnitudes far apart, so that a
#: column's sum depends on the order numpy adds it in
DEMANDS = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 3.0, 1e-3, 7.5e9]),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
)


@st.composite
def demand_matrices(draw):
    """``(capacities, demands)``: 1 to 300 rows (numpy sums pairwise in
    blocks of 8 and 128), all-zero and all-tied columns, and per column a
    capacity that is offline, below, exactly at or above the column sum."""
    rows = draw(st.integers(1, 300))
    tiers = draw(st.integers(1, 4))
    demands = draw(hnp.arrays(np.float64, (rows, tiers), elements=DEMANDS))
    caps = []
    for t in range(tiers):
        kind = draw(st.sampled_from(["drawn", "zero", "tied"]))
        if kind == "zero":
            demands[:, t] = 0.0
        elif kind == "tied":
            demands[:, t] = draw(DEMANDS)
        total = demands[:, t].sum()  # fair_share's own d.sum()
        cap = draw(st.sampled_from(["offline", "share", "one ulp below", "sum", "above"]))
        if cap == "offline":
            caps.append(0.0)
        elif cap == "share":
            caps.append(float(total) * draw(st.floats(0.01, 0.99)))
        elif cap == "one ulp below":
            caps.append(float(np.nextafter(total, 0.0)))
        elif cap == "sum":
            caps.append(float(total))
        else:
            caps.append(float(total) * 2.0 + 1.0)
    return np.array(caps), demands


class TestKernelAllocation:
    """The rate kernel's one pass over a demand matrix, pinned to the
    public one-column reference."""

    @settings(max_examples=300, deadline=None)
    @given(case=demand_matrices())
    def test_equals_fair_share_column_by_column(self, case):
        caps, demands = case
        out = kernel_allocation(caps, demands)
        for t in range(demands.shape[1]):
            assert out[:, t].tolist() == fair_share(float(caps[t]), demands[:, t]).tolist()
        assert allocate_bandwidth(caps, demands).tolist() == out.tolist()
