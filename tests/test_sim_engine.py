"""Discrete-event engine tests: ordering, cancellation, run semantics."""

import pytest

from repro import obs
from repro.envs.environments import EnvKind, make_environment
from repro.resilience import InvariantChecker
from repro.service import ServiceSpec, serve
from repro.sim.engine import SimulationEngine
from repro.util.errors import SimulationError
from repro.util.units import KiB, MiB
from repro.wms.planner import WorkflowManager
from repro.workflows.dag import chain_workflow

from conftest import simple_task


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self, engine):
        fired = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5.0]
        assert engine.now == 5.0

    def test_schedule_at_absolute(self, engine):
        engine.schedule_at(4.0, lambda: None)
        engine.run()
        assert engine.now == 4.0

    def test_cannot_schedule_in_past(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_cannot_schedule_nan_or_inf(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_at(float("inf"), lambda: None)

    def test_events_scheduled_during_run_fire(self, engine):
        fired = []

        def first():
            engine.schedule(1.0, lambda: fired.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == ["second"]
        assert engine.now == 2.0

    def test_a_stamped_event_fires_where_it_was_stamped(self, engine):
        """An event scheduled with an earlier stamp fires among same-time
        events where an event scheduled at stamping time would have."""
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        stamp = engine.stamps()
        engine.schedule(1.0, lambda: fired.append("c"))
        engine.schedule_at(1.0, lambda: fired.append("b"), seq=stamp)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_stamps_are_consecutive_and_schedule_nothing(self, engine):
        first = engine.stamps(3)
        ev = engine.schedule(1.0, lambda: None)
        assert ev.seq == first + 3
        assert engine.events_scheduled == 1 and engine.pending() == 1


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        ev = engine.schedule(1.0, lambda: fired.append("x"))
        engine.cancel(ev)
        engine.run()
        assert fired == []

    def test_cancel_none_is_noop(self, engine):
        engine.cancel(None)

    def test_cancel_counts(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.cancel(ev)
        engine.cancel(ev)  # double-cancel is harmless
        assert engine.events_cancelled == 1

    def test_pending_excludes_cancelled(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.cancel(ev)
        assert engine.pending() == 1


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        engine.run()
        assert fired == [1, 10]

    def test_run_max_events(self, engine):
        fired = []
        for i in range(5):
            engine.schedule(i + 1.0, lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_before_until_leaves_the_clock_at_the_last_event(self, engine):
        # moving the clock to ``until`` past the two pending events would
        # make the next run fire them in the past
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run(until=10.0, max_events=1)
        assert fired == [1.0] and engine.now == 1.0 and engine.pending() == 2
        engine.run()
        assert fired == [1.0, 2.0, 3.0] and engine.now == 3.0

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_run_is_not_reentrant(self, engine):
        def evil():
            engine.run()

        engine.schedule(1.0, evil)
        with pytest.raises(SimulationError, match="re-entrant"):
            engine.run()

    def test_peek_time(self, engine):
        assert engine.peek_time() is None
        engine.schedule(3.0, lambda: None)
        assert engine.peek_time() == 3.0

    def test_events_fired_counter(self, engine):
        for _ in range(3):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 3

    def test_custom_start_time(self):
        eng = SimulationEngine(start_time=100.0)
        assert eng.now == 100.0
        eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.now == 101.0


class TestRunStop:
    @staticmethod
    def three_events(engine):
        fired = []
        for t in (3.0, 1.0, 2.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        return fired

    def test_true_before_the_first_event_fires_nothing(self, engine):
        fired = self.three_events(engine)
        assert engine.run(stop=lambda: True) is True
        assert fired == [] and engine.now == 0.0 and engine.pending() == 3

    def test_checked_before_every_event_and_after_the_last(self, engine):
        fired = self.three_events(engine)
        seen = []

        def stop():
            seen.append(len(fired))
            return False

        assert engine.run(stop=stop) is False
        assert seen == [0, 1, 2, 3]

    def test_leaves_the_clock_at_the_last_fired_event(self, engine):
        fired = self.three_events(engine)
        assert engine.run(until=10.0, stop=lambda: len(fired) == 2) is True
        assert fired == [1.0, 2.0] and engine.now == 2.0 and engine.pending() == 1

    def test_without_stop_drains_as_before(self, engine):
        fired = self.three_events(engine)
        assert engine.run() is False
        assert fired == [1.0, 2.0, 3.0] and engine.now == 3.0 and engine.pending() == 0


class TestEveryRunIsChecked:
    """Batch, service and workflow runs fire their events through
    ``SimulationEngine.run``, so each ends with its heap recount and
    records its ``sim.run`` span and ``sim.events_fired`` counter."""

    @pytest.fixture
    def recounts(self, monkeypatch):
        seen = []
        real = InvariantChecker.engine

        def spy(checker, engine):
            seen.append(engine)
            real(checker, engine)

        monkeypatch.setattr(InvariantChecker, "engine", spy)
        with obs.session(checker=InvariantChecker()):
            yield seen

    @staticmethod
    def env():
        return make_environment(
            EnvKind.IMME, n_nodes=1, dram_capacity=MiB(32), chunk_size=KiB(256)
        )

    @staticmethod
    def batch(env):
        env.run_batch([simple_task(f"t{i}", base_time=1.0) for i in range(3)])

    @staticmethod
    def service(env):
        spec = ServiceSpec(rate=0.5, max_arrivals=4, window=10.0, warmup="none")
        serve(env, spec, scale=1.0 / 2048.0, seed=1)

    @pytest.mark.parametrize("drive", ["batch", "service"])
    def test_batch_and_service_runs_are_recounted(self, drive, recounts):
        env = self.env()
        getattr(self, drive)(env)
        env.stop()
        assert env.engine in recounts

    def test_workflow_run_is_recounted(self, recounts):
        env = self.env()
        mgr = WorkflowManager(env.scheduler)
        mgr.submit(chain_workflow("w", [simple_task(f"w{i}", base_time=1.0) for i in range(2)]))
        mgr.run_to_completion()
        env.stop()
        assert env.engine in recounts

    @pytest.mark.parametrize(
        "drive, parent", [("batch", "sched.run_to_completion"), ("service", "service.run")]
    )
    def test_batch_and_service_runs_record_the_drain(self, drive, parent):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            env = self.env()
            getattr(self, drive)(env)
            env.stop()
        record = tel.snapshot()
        names = {s.span_id: s.name for s in record.spans}
        runs = [s for s in record.spans if s.name == "sim.run"]
        assert len(runs) == 1 and names[runs[0].parent_id] == parent
        assert record.counters["sim.events_fired"] == env.engine.events_fired


class TestLiveEventCounter:
    """pending() is a maintained counter, not a heap scan — these pin the
    counter to the ground-truth scan through every mutation path."""

    @staticmethod
    def scan(engine):
        return sum(1 for ev in engine._heap if not ev.cancelled)

    def test_counter_matches_scan_through_lifecycle(self, engine):
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert engine.pending() == self.scan(engine) == 10
        engine.cancel(events[3])
        engine.cancel(events[7])
        assert engine.pending() == self.scan(engine) == 8
        engine.step()
        assert engine.pending() == self.scan(engine) == 7
        engine.run(until=5.0)
        assert engine.pending() == self.scan(engine)
        engine.run()
        assert engine.pending() == self.scan(engine) == 0

    def test_double_cancel_counts_once(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.cancel(ev)
        engine.cancel(ev)
        assert engine.pending() == self.scan(engine) == 0

    def test_cancel_after_fire_does_not_underflow(self, engine):
        ev = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        engine.cancel(ev)  # stale handle: already fired
        assert engine.pending() == self.scan(engine) == 1

    def test_cancel_after_fire_is_full_noop(self, engine):
        # a stale handle must not inflate events_cancelled either — the
        # event both fired *and* counted as cancelled would double-book it
        ev = engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_fired == 1
        engine.cancel(ev)
        engine.cancel(ev)
        assert engine.events_cancelled == 0
        assert not ev.cancelled  # it fired; it was never cancelled
        assert engine.pending() == self.scan(engine) == 0

    def test_counter_tracks_reschedule_churn(self, engine):
        # the rate model's pattern: cancel-and-reschedule completion events
        handle = engine.schedule(10.0, lambda: None)
        for i in range(100):
            engine.cancel(handle)
            handle = engine.schedule(10.0 + i, lambda: None)
            assert engine.pending() == self.scan(engine) == 1
