"""Direct NodeAgent tests: rate math, migration penalty, heatmap coupling,
and the workload profile helper."""

import numpy as np
import pytest

from repro.memory.system import NodeMemorySystem
from repro.metrics.collector import MetricsRegistry
from repro.policies.linux import LinuxSwapPolicy
from repro.runtime.execution import TaskExecution, TaskState
from repro.runtime.node_agent import NodeAgent
from repro.runtime.rates import RateModelConfig
from repro.sim.engine import SimulationEngine
from repro.util.units import GBps, MiB
from repro.workflows.profiles import describe, expected_touched_bytes

from conftest import CHUNK, simple_task, small_specs


def make_agent(engine, metrics, **kw):
    node = NodeMemorySystem(small_specs(dram=MiB(16), cxl=MiB(64)), "n0")
    return NodeAgent(
        engine, node, LinuxSwapPolicy(scan_noise=0.0), metrics,
        cores=8, chunk_size=CHUNK, **kw,
    )


class TestMigrationPenalty:
    def test_window_converts_to_penalty_and_resets(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.memory.migration_bytes_window = int(
            agent.memory.specs[list(agent.memory.specs)[0]].bandwidth
        )  # one second of DRAM bandwidth worth of movement
        penalty = agent._migration_penalty()
        assert penalty == pytest.approx(agent.rate_config.migration_overhead_coeff)
        assert agent.memory.migration_bytes_window == 0
        assert agent._migration_penalty() == 0.0  # window consumed

    def test_zero_window_zero_penalty(self, engine, metrics):
        agent = make_agent(engine, metrics)
        assert agent._migration_penalty() == 0.0


class TestRecomputeRates:
    def test_idle_node_clears_window(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.memory.migration_bytes_window = 12345
        agent.recompute_rates()
        assert agent.memory.migration_bytes_window == 0

    def test_rates_reflect_contention_instantly(self, engine, metrics):
        agent = make_agent(engine, metrics)
        t0 = agent.start_task(
            simple_task("t0", footprint=MiB(1), base_time=10.0,
                        lat_frac=0.0, bw_frac=0.9, demand_bandwidth=GBps(90)))
        solo_rate = t0.current_rate
        agent.start_task(
            simple_task("t1", footprint=MiB(1), base_time=10.0,
                        lat_frac=0.0, bw_frac=0.9, demand_bandwidth=GBps(90)))
        assert t0.current_rate < solo_rate

    def test_daemon_heats_only_running_tasks(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        engine.run(until=2.5)
        ps = agent.memory.get_pageset("t")
        assert ps.temperature.max() > 0

    def test_trace_hook_without_tracer_is_cheap(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.trace("task", "x", event="whatever")  # no tracer: no-op


def always_reschedule(self, rate):
    """``TaskExecution.update_rate`` without the unchanged-rate early return."""
    if self.state is not TaskState.RUNNING or self.tracker is None:
        return
    rate *= self.rate_scale
    engine = self.agent.engine
    self.tracker.set_rate(engine.now, rate)
    self.current_rate = rate
    self._cancel_completion()
    eta = self.tracker.projected_finish(engine.now)
    if eta is not None:
        self._completion = engine.schedule_at(eta, self._on_phase_complete)


def pending(event):
    return event is not None and not (event.fired or event.cancelled)


class TestUnchangedRate:
    def test_equal_rate_after_phase_change_still_schedules(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=0.5, n_phases=2))
        first, rate = te._completion, te.current_rate
        engine.run(until=first.time)
        assert te.phase_index == 1 and first.fired
        assert te.current_rate == rate  # the premise: phase 1 runs at phase 0's rate
        assert pending(te._completion) and te._completion is not first
        engine.run(until=50.0)
        assert te.state is TaskState.DONE and len(te.metrics.phase_durations) == 2

    def test_same_rate_keeps_pending_event(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        event, scheduled = te._completion, engine.events_scheduled
        agent.recompute_rates()
        assert te._completion is event and pending(event)
        assert engine.events_scheduled == scheduled

    def test_straggler_scale_reschedules(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        event, rate = te._completion, te.current_rate
        te.rate_scale = 0.5
        agent.on_task_change(te)
        assert event.cancelled and pending(te._completion)
        assert te.current_rate == pytest.approx(rate * 0.5)
        assert te._completion.time > event.time

    def test_stalled_task_is_never_skipped(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        engine.run(until=1.0)
        te.rate_scale = 0.0  # a fully throttled straggler
        agent.on_task_change(te)
        assert te._completion is None and te.current_rate == 0.0
        left = te.tracker.progress_to(engine.now)
        engine.run(until=20.5)  # daemon ticks keep re-rating it at zero
        assert te.tracker._last_update == 20.0  # the last tick ran the full update
        assert te.tracker.progress_to(engine.now) == left and te._completion is None
        te.rate_scale = 1.0
        agent.on_task_change(te)
        assert te._completion.time == pytest.approx(20.5 + left / te.current_rate)
        engine.run(until=100.0)
        assert te.state is TaskState.DONE

    def test_fewer_events_same_simulation(self, monkeypatch):
        def run():
            engine, metrics = SimulationEngine(), MetricsRegistry()
            agent = make_agent(engine, metrics)
            for i in range(2):
                agent.start_task(simple_task(
                    f"t{i}", footprint=MiB(10 + 4 * i), base_time=4.0 + i, n_phases=3,
                    lat_frac=0.5, bw_frac=0.3, demand_bandwidth=GBps(60),
                ))
            engine.run(until=500.0)
            tasks = sorted(metrics.tasks(), key=lambda t: t.owner)
            return engine, [t.phase_durations for t in tasks], max(t.finished_at for t in tasks)

        engine, durations, makespan = run()
        monkeypatch.setattr(TaskExecution, "update_rate", always_reschedule)
        ref_engine, ref_durations, ref_makespan = run()
        assert engine.events_scheduled < ref_engine.events_scheduled
        assert engine.events_fired == ref_engine.events_fired
        assert makespan == pytest.approx(ref_makespan, rel=1e-9)
        for got, want in zip(durations, ref_durations):
            assert got == pytest.approx(want, rel=1e-9)


class TestAgentBookkeeping:
    def test_active_owners_follow_lifecycle(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        assert "t" in agent.context.active_owners
        engine.run(until=50.0)
        assert "t" not in agent.context.active_owners

    def test_capacity_freed_callbacks_fire(self, engine, metrics):
        agent = make_agent(engine, metrics)
        fired = []
        agent.on_capacity_freed.append(lambda: fired.append(engine.now))
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        engine.run(until=50.0)
        assert len(fired) == 1

    def test_stop_halts_daemon(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        engine.run(until=5.0)
        agent.stop()
        pending_before = agent._daemon.ticks
        engine.run(until=50.0)
        assert agent._daemon.ticks == pending_before


class TestProfiles:
    def test_describe_renders_key_facts(self):
        from repro.workflows.library import scientific_task

        spec = scientific_task(scale=1 / 64, request_extra=True)
        text = describe(spec)
        assert "SC" in text
        assert "build-tree" in text and "bfs" in text
        assert "CAP" in text
        assert "dynamic growth" in text

    def test_expected_touched_bytes(self):
        spec = simple_task("t", footprint=MiB(4))
        assert expected_touched_bytes(spec) == MiB(4)  # touched_fraction = 1

    def test_describe_shared_and_limit(self):
        from dataclasses import replace

        from repro.workflows.library import with_shared_input

        spec = with_shared_input(simple_task("t", footprint=MiB(4)), "data", MiB(8))
        spec = replace(spec, memory_limit=MiB(6))
        text = describe(spec)
        assert "memory.max" in text
        assert "data" in text
