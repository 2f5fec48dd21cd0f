"""TickGroup and ProgressTable tests, including a hypothesis check that
piecewise-constant rate integration conserves work."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory.system import NodeMemorySystem
from repro.metrics.timeline import UtilizationSampler
from repro.sim.engine import SimulationEngine
from repro.sim.process import NO_FINISH, ProgressTable, TickGroup
from repro.util.errors import ConfigurationError, SimulationError

from conftest import small_specs


class TestPeriodicProcess:
    """A one-member TickGroup: the periodic process of the fault injector,
    the utilization sampler and a standalone node agent."""

    def test_ticks_at_interval(self, engine):
        times = []
        g = TickGroup(engine, 2.0)
        g.add(lambda now: times.append(now))
        engine.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]
        assert g.ticks == 3

    def test_stop_ends_ticks(self, engine):
        times = []
        g = TickGroup(engine, 1.0)
        h = g.add(lambda now: times.append(now))
        engine.run(until=2.5)
        g.remove(h)
        engine.run(until=10.0)
        assert times == [1.0, 2.0]
        assert not g.running

    def test_double_start_rejected(self, engine):
        sampler = UtilizationSampler(engine, [NodeMemorySystem(small_specs(), "n0")])
        sampler.start()
        with pytest.raises(SimulationError):
            sampler.start()

    def test_callback_can_stop_self(self, engine):
        g = TickGroup(engine, 1.0)
        h = g.add(lambda now: g.remove(h))
        engine.run(until=5.0)
        assert g.ticks == 1
        assert engine.pending() == 0

    def test_invalid_interval(self, engine):
        with pytest.raises(Exception):
            TickGroup(engine, 0.0)


class TestTickGroup:
    """Coalesced periodic events: one heap entry services every member."""

    def test_members_share_one_event(self, engine):
        g = TickGroup(engine, 1.0)
        seen = []
        for name in "abc":
            g.add(lambda now, n=name: seen.append((n, now)))
        assert engine.pending() == 1  # one coalesced event, not three
        engine.run(until=2.0)
        assert seen == [
            ("a", 1.0), ("b", 1.0), ("c", 1.0),
            ("a", 2.0), ("b", 2.0), ("c", 2.0),
        ]
        assert g.ticks == 2

    def test_matches_periodic_process_cadence(self, engine):
        g_times, chain_times = [], []
        g = TickGroup(engine, 2.0)
        g.add(lambda now: g_times.append(now))

        def chained():  # an event that schedules its successor
            chain_times.append(engine.now)
            engine.schedule(2.0, chained)

        engine.schedule(2.0, chained)
        engine.run(until=7.0)
        assert g_times == chain_times == [2.0, 4.0, 6.0]

    def test_rejoin_keeps_place(self, engine):
        g = TickGroup(engine, 1.0)
        seen = []
        handles = {name: g.add(lambda now, n=name: seen.append(n)) for name in "abc"}
        g.remove(handles["a"])
        g.remove(handles["b"])
        assert g.add(lambda now: seen.append("b"), handles["b"]) == handles["b"]
        assert g.add(lambda now: seen.append("a"), handles["a"]) == handles["a"]
        engine.run(until=1.0)
        assert seen == ["a", "b", "c"]
        with pytest.raises(ConfigurationError):
            g.add(lambda now: None, handles["c"] + 1)  # never issued

    def test_remove_mid_tick_skips_callback(self, engine):
        g = TickGroup(engine, 1.0)
        fired = []

        def first(now):
            fired.append("first")
            g.remove(h2)

        g.add(first)
        h2 = g.add(lambda now: fired.append("second"))
        engine.run(until=1.0)
        assert fired == ["first"]

    def test_add_during_tick_joins_next_tick(self, engine):
        g = TickGroup(engine, 1.0)
        fired = []

        def first(now):
            fired.append(("first", now))
            if now == 1.0:
                g.add(lambda t: fired.append(("late", t)))

        g.add(first)
        engine.run(until=2.0)
        assert fired == [("first", 1.0), ("first", 2.0), ("late", 2.0)]
        assert engine.pending() == 1  # still exactly one coalesced event

    def test_last_member_leaving_cancels_event(self, engine):
        g = TickGroup(engine, 1.0)
        h = g.add(lambda now: None)
        assert engine.pending() == 1 and g.running
        g.remove(h)
        assert engine.pending() == 0
        assert not g.running

    def test_remove_is_idempotent(self, engine):
        g = TickGroup(engine, 1.0)
        h = g.add(lambda now: None)
        g.remove(h)
        g.remove(h)
        assert engine.pending() == 0
        assert engine.events_cancelled == 1  # counted exactly once

    def test_leave_and_rejoin_mid_tick_does_not_double_schedule(self, engine):
        # a member replacing itself from its own callback exercises the
        # _firing guard: add() must not schedule while the sweep runs
        g = TickGroup(engine, 1.0)
        ticks = []
        handle = [None]

        def leave_and_rejoin(now):
            ticks.append(now)
            g.remove(handle[0])
            handle[0] = g.add(leave_and_rejoin)

        handle[0] = g.add(leave_and_rejoin)
        engine.run(until=3.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert engine.pending() == 1

    def test_invalid_interval(self, engine):
        with pytest.raises(Exception):
            TickGroup(engine, 0.0)


def one_row(engine, work, on_due=None):
    """A progress table holding one row with ``work`` to drain."""
    table = ProgressTable(engine, "test", on_due or (lambda i: None))
    table.gather([0])
    table.begin(0, work)
    return table


class TestRateTracker:
    """The scalar progress behaviours of the former ``RateTracker``, pinned
    on a one-row :class:`ProgressTable`, the model that replaced it."""

    def test_drains_at_rate(self, engine):
        fired = []
        table = one_row(engine, 10.0, lambda i: fired.append((i, engine.now)))
        table.advance(np.array([2.0]))
        table.arm()
        assert table.due[0] == pytest.approx(5.0)
        engine.run()
        assert fired == [(0, pytest.approx(5.0))]
        assert table.due[0] == NO_FINISH and table.event is None

    def test_rate_change_mid_flight(self, engine):
        table = one_row(engine, 10.0)
        table.advance(np.array([1.0]))
        engine.run(until=5.0)
        table.advance(np.array([0.5]))  # 5 units done, 5 left at half speed
        assert table.left[0] == pytest.approx(5.0)
        assert table.due[0] == pytest.approx(15.0)

    def test_zero_rate_stalls(self, engine):
        table = one_row(engine, 10.0)
        table.advance(np.array([0.0]))
        table.arm()
        assert table.due[0] == NO_FINISH and table.event is None
        assert engine.pending() == 0
        engine.run(until=100.0)
        table.advance(np.array([0.0]))  # a stalled row is always re-accounted
        assert table.left[0] == 10.0 and table.last[0] == 100.0

    def test_done_flag(self, engine):
        table = one_row(engine, 1.0)
        table.advance(np.array([1.0]))
        engine.run(until=2.0)
        table.advance(np.array([2.0]))
        assert table.left[0] == 0.0
        assert table.due[0] == 2.0  # no work left projects now

    def test_time_cannot_go_backwards(self, engine):
        table = one_row(engine, 10.0)
        engine.run(until=5.0)
        table.advance(np.array([1.0]))
        engine.now = 4.0  # a rewound clock
        with pytest.raises(SimulationError, match="backwards"):
            table.advance(np.array([2.0]))
        assert table.rate[0] == 1.0 and table.left[0] == 10.0

    def test_a_new_rows_unset_clock_hides_no_rewind(self, engine):
        table = one_row(engine, 10.0)
        engine.run(until=5.0)
        table.advance(np.array([1.0]))
        table.gather([0, 1])  # row 1: a new row, no update yet (NaN ``last``)
        table.begin(1, 3.0)
        engine.now = 4.0
        with pytest.raises(SimulationError, match="backwards"):
            table.advance(np.array([2.0, 1.0]))
        assert table.rate.tolist() == [1.0, 0.0]

    def test_negative_rate_rejected(self, engine):
        table = one_row(engine, 1.0)
        for bad in (-1.0, np.nan):
            with pytest.raises(SimulationError, match=">= 0"):
                table.advance(np.array([bad]))
        assert table.rate[0] == 0.0 and table.due[0] == NO_FINISH

    def test_negative_work_rejected(self, engine):
        table = one_row(engine, 1.0)
        with pytest.raises(ConfigurationError):
            table.begin(0, -1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=5.0),   # dt
                st.floats(min_value=0.0, max_value=4.0),    # rate
            ),
            min_size=1,
            max_size=20,
        )
    )
    # a subnormal rate projects past the largest float: no projection
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    def test_work_conservation(self, segments):
        """Drained work equals the integral of rate over time."""
        engine = SimulationEngine()
        total = 1000.0
        table = one_row(engine, total)
        drained = 0.0
        for dt, rate in segments:
            table.advance(np.array([rate]))
            table.arm()
            engine.run(until=engine.now + dt)
            drained = min(total, drained + dt * rate)
        table.advance(np.zeros(1))  # account up to now
        assert table.left[0] == pytest.approx(total - drained, abs=1e-6)


class TestProgressTable:
    """Many rows, one event: the table's event sits at the earliest
    ``(due, stamp)``, and same-instant rows fire in stamp order."""

    def rows(self, engine, works, fired):
        table = ProgressTable(engine, "test", lambda i: (fired.append((i, engine.now)), table.arm()))
        for i, work in enumerate(works):
            table.gather(list(range(i + 1)))  # row i: a new, empty row
            table.begin(i, work)
        return table

    def test_one_event_at_the_earliest_projection(self, engine):
        fired = []
        table = self.rows(engine, [3.0, 1.0, 2.0], fired)
        table.advance(np.ones(3))
        table.arm()
        assert engine.pending() == 1
        assert (table.event.time, table.event.seq) == (1.0, table.stamp[1])
        engine.run()
        assert fired == [(1, 1.0), (2, 2.0), (0, 3.0)]
        assert engine.events_fired == 3 and table.event is None

    def test_same_instant_rows_fire_in_stamp_order(self, engine):
        """The row projected first fires first whatever its index, and an
        event scheduled between two projections fires between them."""
        fired = []
        table = self.rows(engine, [1.0, 2.0], fired)
        table.advance(np.array([0.0, 1.0]))  # row 1 projects to t=2 first
        engine.schedule_at(2.0, lambda: fired.append(("other", engine.now)))
        engine.run(until=1.0)
        table.advance(np.array([1.0, 1.0]))  # row 0 projects to t=2 now
        table.arm()
        assert table.due.tolist() == [2.0, 2.0] and table.stamp[1] < table.stamp[0]
        engine.run()
        assert fired == [(1, 2.0), ("other", 2.0), (0, 2.0)]

    def test_gather_carries_rows(self, engine):
        table = self.rows(engine, [1.0, 2.0, 3.0], [])
        table.advance(np.array([1.0, 2.0, 3.0]))
        table.gather([2, 0, 3])  # 3 is one past the last row: a new, empty row
        assert table.left.tolist() == [3.0, 1.0, 0.0]
        assert table.rate.tolist() == [3.0, 1.0, 0.0]
        assert table.due.tolist() == [1.0, 1.0, NO_FINISH]
        assert np.isnan(table.last[2])

    def test_arm_follows_the_earliest_row(self, engine):
        table = self.rows(engine, [1.0, 2.0], [])
        table.advance(np.ones(2))
        table.arm()
        first = table.event
        table.gather([1])  # the earliest row leaves
        table.arm()
        assert first.cancelled and table.event.time == 2.0
        assert engine.pending() == 1
        table.gather([])
        table.arm()
        assert table.event is None and engine.pending() == 0
