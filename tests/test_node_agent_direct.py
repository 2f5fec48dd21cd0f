"""Direct NodeAgent tests: rate math, migration penalty, heatmap coupling,
the rate table and its one completion event per node, the daemon tick's
re-rating skip, and the workload profile helper."""

import numpy as np
import pytest

from repro.core.flags import MemFlag
from repro.envs.environments import EnvKind, make_environment
from repro.experiments.common import build_env
from repro.faults import FaultKind, FaultSchedule, FaultSpec
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM
from repro.metrics.collector import MetricsRegistry
from repro.policies.interleave import UniformInterleavePolicy
from repro.policies.linux import LinuxSwapPolicy
from repro.resilience import InvariantViolation
from repro.runtime.execution import TaskExecution, TaskState
from repro.runtime.node_agent import NodeAgent, RateTable
from repro.runtime.rates import RateModelConfig, access_profiles, row_pass
from repro.service import ServiceSpec, serve
from repro.sim.engine import SimulationEngine
from repro.sim.process import NO_FINISH
from repro.util.rng import RngFactory
from repro.util.units import GBps, KiB, MiB
from repro.workflows.ensembles import paper_batch
from repro.workflows.patterns import HotColdPattern
from repro.workflows.profiles import describe, expected_touched_bytes
from repro.workflows.task import TaskPhase, TaskSpec, WorkloadClass

from conftest import CHUNK, ScalarProgress, simple_task, small_specs


def make_agent(engine, metrics, policy=None, **kw):
    node = NodeMemorySystem(small_specs(dram=MiB(16), cxl=MiB(64)), "n0")
    return NodeAgent(
        engine, node, policy if policy is not None else LinuxSwapPolicy(scan_noise=0.0),
        metrics, cores=8, chunk_size=CHUNK, **kw,
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
        agent.trace("task", "x", event="whatever")  # no session: a no-op


def rebin_every_row(self, latency):
    """``RateTable.rebin`` that re-derives every row, changed or not, with
    the kernel's numpy forms."""
    if self.pagesets:
        self.profile[:] = access_profiles(self.pagesets)
        self.demand[:], self.base[:] = row_pass(self.terms, self.profile, np.asarray(latency))
        self.version[:] = [ps.version for ps in self.pagesets]


advance = RateTable.advance


def advance_every_row(self, rates):
    """``RateTable.advance`` without the unchanged-rate rule: every row
    accounts its progress and re-projects on every re-rating."""
    self.due[:] = NO_FINISH
    return advance(self, rates)


def pending(event):
    return event is not None and not (event.fired or event.cancelled)


def completion_events(engine, agent):
    """The agent's completion events still queued in the engine."""
    return [
        ev for ev in engine._heap
        if pending(ev) and getattr(ev.fn, "__self__", None) is agent.table
    ]


class TestUnchangedRate:
    def test_equal_rate_after_phase_change_still_schedules(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=0.5, n_phases=2))
        first, rate = agent.table.event, te.current_rate
        engine.run(until=first.time)
        assert te.phase_index == 1 and first.fired
        assert te.current_rate == rate  # the premise: phase 1 runs at phase 0's rate
        assert pending(agent.table.event) and agent.table.event is not first
        engine.run(until=50.0)
        assert te.state is TaskState.DONE and len(te.metrics.phase_durations) == 2

    def test_same_rate_keeps_pending_event(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        event, scheduled = agent.table.event, engine.events_scheduled
        agent.recompute_rates()
        assert agent.table.event is event and pending(event)
        assert engine.events_scheduled == scheduled

    def test_straggler_scale_reschedules(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        event, rate = agent.table.event, te.current_rate
        te.rate_scale = 0.5
        agent.on_task_change(te)
        assert event.cancelled and pending(agent.table.event)
        assert te.current_rate == pytest.approx(rate * 0.5)
        assert agent.table.event.time > event.time

    def test_stalled_task_is_never_skipped(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=5.0))
        table, row = agent.table, agent.table.index["t"]
        engine.run(until=1.0)
        te.rate_scale = 0.0  # a fully throttled straggler
        agent.on_task_change(te)
        assert agent.table.event is None and te.current_rate == 0.0
        left = table.left[row]
        engine.run(until=20.5)  # daemon ticks that move nothing re-rate nothing
        agent.recompute_rates()  # a re-rating at zero still runs the full update
        assert table.last[row] == 20.5
        assert table.left[row] == left and agent.table.event is None
        te.rate_scale = 1.0
        agent.on_task_change(te)
        assert agent.table.event.time == pytest.approx(20.5 + left / te.current_rate)
        engine.run(until=100.0)
        assert te.state is TaskState.DONE

    def test_fewer_events_same_simulation(self, monkeypatch):
        """Skipping unchanged rows re-projects fewer of them and never
        schedules more events, and the simulation agrees with re-projecting
        every row."""
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

        (engine, durations, makespan), _, rows = scheduling(monkeypatch, run)
        (ref_engine, ref_durations, ref_makespan), _, ref_rows = scheduling(
            monkeypatch, run, advance=advance_every_row
        )
        assert rows < ref_rows
        assert engine.events_scheduled <= ref_engine.events_scheduled
        assert engine.events_fired == ref_engine.events_fired
        assert makespan == pytest.approx(ref_makespan, rel=1e-9)
        for got, want in zip(durations, ref_durations):
            assert got == pytest.approx(want, rel=1e-9)


class TestRateTableArithmetic:
    def test_rows_match_rate_trackers(self):
        """``RateTable.advance`` is the scalar progress arithmetic under the
        unchanged-rate rule, row by row and bit for bit."""
        from types import SimpleNamespace

        rng = np.random.default_rng(7)
        phase = simple_task(base_time=3.0).phases[0]
        tasks = [
            SimpleNamespace(spec=SimpleNamespace(name=f"t{i}"), pageset=None, phase=phase,
                            rate_scale=1.0)
            for i in range(6)
        ]
        engine = SimulationEngine()
        table = RateTable(engine)
        table.rebuild(tasks)
        trackers = [ScalarProgress(phase.base_time) for _ in tasks]
        rates, due = [0.0] * len(tasks), [None] * len(tasks)
        for step in range(300):
            engine.run(until=engine.now + float(rng.choice([0.0, 0.25, rng.random()])))
            now = engine.now
            if step % 37 == 36:  # a phase begins: all its work left, no projection
                i = int(rng.integers(len(tasks)))
                table.begin_phase(tasks[i])
                trackers[i], due[i] = ScalarProgress(phase.base_time), None
            new = rng.choice([0.0, 0.5, 1.0, 1.5], size=len(tasks))
            new = np.where(rng.random(len(tasks)) < 0.5, rates, new)
            for i, tracker in enumerate(trackers):
                if new[i] == rates[i] and due[i] is not None:
                    continue
                tracker.set_rate(now, float(new[i]))
                rates[i], due[i] = float(new[i]), tracker.projected_finish(now)
            table.advance(new)
            assert table.rate.tolist() == rates
            assert table.left.tolist() == [t.remaining for t in trackers]
            assert table.due.tolist() == [NO_FINISH if d is None else d for d in due]

    def test_gather_carries_every_column(self, engine):
        """Every column is a view of its dtype's block, so a write through
        it lands in the block, and a gather moves every column's rows."""
        table = RateTable(engine)
        table.gather([0, 0, 0])  # three new, empty rows
        assert [block.dtype for block in table._blocks] == [np.float64, np.int64]
        rng = np.random.default_rng(5)
        for name in RateTable.EMPTY_ROW:
            column = getattr(table, name)
            assert sum(np.shares_memory(column, block) for block in table._blocks) == 1
            column[...] = rng.integers(1, 1_000_000, column.shape)
        before = {name: getattr(table, name).copy() for name in RateTable.EMPTY_ROW}
        table.gather([0, 1, 2])  # copies the blocks alone
        for name, column in before.items():
            assert getattr(table, name).tolist() == column.tolist(), name
        table.gather([2, 0, 3])  # reorder, drop row 1, append an empty row
        for name, empty in RateTable.EMPTY_ROW.items():
            column = getattr(table, name)
            assert column.dtype == empty.dtype and column.shape == (3, *empty.shape[1:])
            np.testing.assert_array_equal(column[:2], before[name][[2, 0]], err_msg=name)
            np.testing.assert_array_equal(column[2], empty[0], err_msg=name)

    def test_a_rerating_derives_only_changed_rows(self, engine, metrics, monkeypatch):
        import repro.runtime.node_agent as node_agent

        derived = []
        derive = node_agent.derive_row

        def counted(ps, *args):
            derived.append(ps.owner)
            return derive(ps, *args)

        monkeypatch.setattr(node_agent, "derive_row", counted)
        agent = make_agent(engine, metrics)
        tasks = [
            agent.start_task(simple_task(f"t{i}", footprint=MiB(1), base_time=50.0))
            for i in range(3)
        ]
        derived.clear()
        agent.recompute_rates()
        assert derived == []  # no version moved, no phase began
        ps = tasks[1].pageset
        agent.memory.set_access_weights(ps, ps.access_weight.copy())
        agent.recompute_rates()
        assert derived == ["t1"]
        agent.begin_phase(tasks[2])
        assert derived == ["t1", "t2"]


class TestOneCompletionEvent:
    def test_same_instant_finishes_complete_in_start_order(self, engine, metrics):
        agent = make_agent(engine, metrics)
        finished = []
        for name in ("t0", "t1"):
            agent.start_task(
                simple_task(name, footprint=MiB(1), base_time=2.5, lat_frac=0.0, bw_frac=0.0),
                on_finish=lambda te: finished.append((te.spec.name, engine.now)),
            )
        engine.run(until=2.4)
        fired = engine.events_fired
        while (t := engine.peek_time()) is not None and t <= 2.5:
            engine.step()
            assert len(completion_events(engine, agent)) <= 1
        assert finished == [("t0", 2.5), ("t1", 2.5)]
        assert engine.events_fired - fired == 2  # one fired event per task

    def test_a_node_holds_at_most_one_completion_event(self, engine, metrics):
        agent = make_agent(engine, metrics)
        for i in range(4):
            agent.start_task(simple_task(
                f"t{i}", footprint=MiB(2 + i), base_time=3.0 + i, n_phases=2,
                lat_frac=0.5, bw_frac=0.3, demand_bandwidth=GBps(60),
            ))
        assert len(agent.table.tasks) == 4
        steps = 0
        while (t := engine.peek_time()) is not None and t <= 50.0:
            engine.step()
            steps += 1
            assert len(completion_events(engine, agent)) <= 1
            assert completion_events(engine, agent) == (
                [agent.table.event] if pending(agent.table.event) else []
            )
        assert steps > 8 and all(len(t.phase_durations) == 2 for t in metrics.tasks())


def daemon_ticks(monkeypatch):
    """``(time, node)`` of every daemon pass from now on."""
    seen = []
    tick = NodeAgent._daemon_tick

    def spy(self, now):
        seen.append((now, self.memory.node_id))
        tick(self, now)

    monkeypatch.setattr(NodeAgent, "_daemon_tick", spy)
    return seen


class TestIdleNodeLeavesTheTick:
    """A node leaves the daemon tick after one pass over its empty memory
    and rejoins at its old place in the firing order with its next task."""

    def test_standalone_run_returns_after_the_last_task(self, engine, metrics):
        agent = make_agent(engine, metrics)
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=3.0))
        engine.run(max_events=1_000)  # bounded: a node that ticks on never drains
        assert te.state is TaskState.DONE
        assert engine.peek_time() is None and engine.now == 3.0
        assert agent.ticker.ticks == 3  # the pass at t=3 found the node empty

    def test_idle_node_sits_out_until_its_next_task(self, monkeypatch):
        env = make_environment(EnvKind.CBE, n_nodes=2, dram_capacity=MiB(16), chunk_size=CHUNK)
        seen = daemon_ticks(monkeypatch)
        n0, n1 = env.agents
        n0.start_task(simple_task("short", footprint=MiB(1), base_time=2.5))
        n1.start_task(simple_task("long", footprint=MiB(1), base_time=20.0))
        env.engine.run(until=5.5)
        n0.start_task(simple_task("next", footprint=MiB(1), base_time=20.0))
        env.engine.run(until=7.0)
        env.stop()
        node0 = [t for t, node in seen if node == "node0"]
        assert node0 == [1.0, 2.0, 3.0, 6.0, 7.0]  # 3.0 is the idle pass
        assert [t for t, node in seen if node == "node1"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        for t in (1.0, 2.0, 3.0, 6.0, 7.0):
            assert [node for at, node in seen if at == t] == ["node0", "node1"]

    def test_restored_node_rejoins_at_its_place(self, monkeypatch):
        env = make_environment(EnvKind.CBE, n_nodes=2, dram_capacity=MiB(16), chunk_size=CHUNK)
        seen = daemon_ticks(monkeypatch)
        n0, n1 = env.agents
        n0.start_task(simple_task("a", footprint=MiB(1), base_time=20.0))
        n1.start_task(simple_task("b", footprint=MiB(1), base_time=20.0))
        env.engine.run(until=1.5)
        assert n0.crash() == 1
        env.engine.run(until=2.5)
        n0.restore()
        n0.start_task(simple_task("a2", footprint=MiB(1), base_time=20.0))
        env.engine.run(until=3.0)
        env.stop()
        assert seen == [(1.0, "node0"), (1.0, "node1"), (2.0, "node1"),
                        (3.0, "node0"), (3.0, "node1")]

    def test_next_task_runs_as_if_the_node_had_kept_ticking(self, monkeypatch):
        """The idle pass resets what the policy derives from occupancy:
        here, the IMME staging reserve the next task's placement reads."""

        def run():
            env = make_environment(EnvKind.IMME, n_nodes=1, dram_capacity=MiB(16),
                                   chunk_size=CHUNK)
            lat = dict(lat_frac=0.7, bw_frac=0.1)
            env.run_batch([simple_task("big", footprint=MiB(15), base_time=3.0, **lat)],
                          flags=MemFlag.LAT)
            env.engine.run(until=env.engine.now + 2.0)
            env.run_batch([simple_task("next", footprint=MiB(15) + MiB(1) // 2,
                                       base_time=4.0, **lat)], flags=MemFlag.LAT)
            env.stop()
            return simulated(env.engine, env.metrics), env.agents[0].ticker.ticks

        (got, ticks) = run()
        with monkeypatch.context() as patch:
            patch.setattr(NodeAgent, "stop", lambda self: None)  # never leaves
            (want, want_ticks) = run()
        assert got == want
        assert ticks == want_ticks  # the sampler keeps the group's cadence


def always_recompute(self, now):
    """``NodeAgent._daemon_tick`` without the unchanged-epoch skip (and an
    idle node never leaves the tick)."""
    rates = {
        owner: te.current_rate
        for owner, te in self.running.items()
        if te.state is TaskState.RUNNING
    }
    self.heatmap.advance_node(self.memory, self.daemon_interval, rates)
    self.policy.tick(self.context)
    self.recompute_rates()


def counting_rerates(monkeypatch, run, tick=None):
    """``run()``'s result and how many times it re-rated a node."""
    calls = []
    recompute = NodeAgent.recompute_rates

    def counted(self):
        calls.append(self)
        recompute(self)

    with monkeypatch.context() as patch:
        patch.setattr(NodeAgent, "recompute_rates", counted)
        if tick is not None:
            patch.setattr(NodeAgent, "_daemon_tick", tick)
        result = run()
    return result, len(calls)


def simulated(engine, metrics):
    """Everything a skipped re-rating could have moved."""
    return engine.events_fired, [
        (t.owner, tuple(t.phase_durations), t.finished_at)
        for t in sorted(metrics.tasks(), key=lambda t: t.owner)
    ]


def fault_heavy_run():
    """A straggler, a degraded tier, a tier taken offline and brought
    back, and a CXL link flap, on a two-node IMME cluster."""
    specs = paper_batch(12, scale=1 / 128, rng_factory=RngFactory(5))
    env = build_env(EnvKind.IMME, specs, dram_fraction=0.3, n_nodes=2)
    env.inject_faults(FaultSchedule([
        FaultSpec(FaultKind.TASK_STRAGGLER, time=2.0, node=0, duration=20.0, severity=0.3),
        FaultSpec(FaultKind.TIER_DEGRADED, time=4.0, node=1, tier=CXL, duration=15.0,
                  severity=0.5),
        FaultSpec(FaultKind.TIER_OFFLINE, time=6.0, node=0, tier=PMEM, duration=10.0),
        FaultSpec(FaultKind.CXL_LINK_FLAP, time=9.0, node=1, duration=5.0),
    ]), seed=3)
    metrics = env.run_batch(specs, max_time=1e7)
    env.stop()
    assert set(metrics.faults.injected) == {
        "task-straggler", "tier-degraded", "tier-offline", "cxl-link-flap",
    }
    return simulated(env.engine, metrics)


def headroom_service_run():
    env = make_environment(EnvKind.CBE, n_nodes=1, dram_capacity=MiB(4), chunk_size=KiB(256))
    spec = ServiceSpec(rate=30.0, max_arrivals=40, window=5.0, warmup="none",
                       admission="memory-headroom", headroom=1.0)
    report = serve(env, spec, scale=1.0 / 2048.0, seed=6)
    env.stop()
    assert 0 < report.admitted < report.offered
    return simulated(env.engine, env.metrics)


def scheduling(monkeypatch, run, **patches):
    """``run()``'s result, how many events it scheduled and how many rows
    its re-ratings re-projected, with ``RateTable`` methods replaced by
    ``patches``."""
    events, rows = [], []
    schedule_at = SimulationEngine.schedule_at

    def counted_events(self, *args, **kwargs):
        events.append(None)
        return schedule_at(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        for name, fn in patches.items():
            patch.setattr(RateTable, name, fn)
        table_advance = RateTable.advance

        def counted_rows(self, *args):
            moved = table_advance(self, *args)
            rows.append(moved.size)
            return moved

        patch.setattr(SimulationEngine, "schedule_at", counted_events)
        patch.setattr(RateTable, "advance", counted_rows)
        result = run()
    return result, len(events), sum(rows)


@pytest.mark.usefixtures("checked")
class TestRateTableOracles:
    """The table re-bins only changed rows and re-projects only re-rated
    ones; doing either for every row changes nothing it should not."""

    @pytest.mark.parametrize("run", [fault_heavy_run, headroom_service_run])
    def test_rebinning_every_row_is_bit_identical(self, monkeypatch, run):
        got, scheduled, _ = scheduling(monkeypatch, run)
        want, want_scheduled, _ = scheduling(monkeypatch, run, rebin=rebin_every_row)
        assert got == want and scheduled == want_scheduled

    @pytest.mark.parametrize("run", [fault_heavy_run, headroom_service_run])
    def test_reprojecting_every_row_agrees(self, monkeypatch, run):
        """Only an unchanged earliest row saves an event, so the oracle
        schedules at least as many; it always re-projects more rows."""
        (fired, tasks), scheduled, rows = scheduling(monkeypatch, run)
        (want_fired, want_tasks), want_scheduled, want_rows = scheduling(
            monkeypatch, run, rebin=rebin_every_row, advance=advance_every_row
        )
        assert scheduled <= want_scheduled and rows < want_rows
        assert fired == want_fired
        assert [t[0] for t in tasks] == [t[0] for t in want_tasks]
        for (_, durations, finished), (_, want_durations, want_finished) in zip(
            tasks, want_tasks
        ):
            assert durations == pytest.approx(want_durations, rel=1e-9)
            assert finished == pytest.approx(want_finished, rel=1e-9)


@pytest.mark.usefixtures("checked")
class TestSkippedTick:
    """A daemon tick whose placement epoch, migration penalty and moved
    bytes are all unchanged skips its re-rating — and changes nothing."""

    @pytest.mark.parametrize("run", [fault_heavy_run, headroom_service_run])
    def test_skipping_matches_always_recomputing(self, monkeypatch, run):
        got, rerates = counting_rerates(monkeypatch, run)
        want, oracle_rerates = counting_rerates(monkeypatch, run, always_recompute)
        assert got == want
        assert rerates < oracle_rerates

    def test_running_set_bumps_the_epoch(self, engine, metrics, monkeypatch):
        monkeypatch.setattr(TaskExecution, "start", lambda self: None)  # touch no memory
        agent = make_agent(engine, metrics)
        epoch = agent.memory.epoch
        te = agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        assert agent.memory.epoch == epoch + 1
        agent.task_finished(te)
        assert agent.memory.epoch == epoch + 2

    def test_a_moved_byte_forces_the_rerating(self, engine, metrics):
        agent = make_agent(engine, metrics)
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=50.0))
        engine.run(until=1.5)
        calls = []
        agent.recompute_rates = lambda: calls.append(engine.now)
        engine.run(until=2.5)
        assert calls == []  # nothing moved, nothing re-rated
        agent.memory.migration_bytes_window = 1
        engine.run(until=3.5)
        assert calls == [3.0]

    def test_checker_reports_a_change_the_epoch_missed(self, engine, metrics):
        agent = make_agent(engine, metrics, UniformInterleavePolicy())
        te = agent.start_task(simple_task(
            "t", footprint=MiB(1), base_time=50.0, lat_frac=0.8, bw_frac=0.0))
        engine.run(until=2.5)  # skipped ticks whose rates check out
        ps = te.pageset
        weight = ps.access_weight
        hot = np.flatnonzero(ps.tier == int(DRAM))[np.argmax(weight[ps.tier == int(DRAM)])]
        cold = np.flatnonzero(ps.tier == int(CXL))[np.argmin(weight[ps.tier == int(CXL)])]
        assert weight[hot] > weight[cold]
        # swap two chunks' tiers behind the memory system's back: per-tier
        # accounting still holds, but the epoch missed the change
        ps.tier[[hot, cold]] = ps.tier[[cold, hot]]
        agent.memory.validate()
        with pytest.raises(InvariantViolation, match="stale rate"):
            engine.run(until=3.5)


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
        pending_before = agent.ticker.ticks
        engine.run(until=50.0)
        assert agent.ticker.ticks == pending_before


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


def two_phase_task(name):
    """A task whose phases differ in every term, bandwidth-heavy first."""
    pattern = HotColdPattern(hot_fraction=0.25, hot_share=0.9)
    phases = (
        TaskPhase("stream", base_time=2.0, compute_frac=0.2, lat_frac=0.5, bw_frac=0.3,
                  demand_bandwidth=GBps(80), pattern=pattern),
        TaskPhase("solve", base_time=2.0, compute_frac=0.5, lat_frac=0.4, bw_frac=0.1,
                  demand_bandwidth=GBps(30), pattern=pattern),
    )
    return TaskSpec(name=name, wclass=WorkloadClass.GENERIC, footprint=MiB(2), wss=MiB(1),
                    phases=phases)


@pytest.mark.usefixtures("checked")
class TestLoadedLatency:
    """Under loaded latency the node pass re-derives every row's latency
    term at the tiers' utilisation, against the unloaded DRAM latency."""

    def test_rates_are_the_closed_form_through_a_phase_change_and_a_migration(
        self, engine, metrics, monkeypatch
    ):
        from test_rates import closed_form_slowdowns

        cfg = RateModelConfig(loaded_latency=True, loaded_latency_max_factor=3.0)
        agent = make_agent(engine, metrics, rate_config=cfg)
        seen = []
        recompute = NodeAgent.recompute_rates

        def compared(self):
            recompute(self)
            tasks = self.table.tasks
            if tasks:
                slowdowns = closed_form_slowdowns(
                    [te.phase for te in tasks], [te.pageset for te in tasks],
                    self.memory.specs, self._capacities(), self._rated_penalty, cfg,
                )
                want = [(1.0 / s) * te.rate_scale for s, te in zip(slowdowns, tasks)]
                assert self.table.rate.tolist() == pytest.approx(want, rel=1e-12)
                seen.append((engine.now, {te.phase.name for te in tasks}, len(tasks)))

        monkeypatch.setattr(NodeAgent, "recompute_rates", compared)
        tasks = [agent.start_task(two_phase_task(f"t{i}")) for i in range(3)]
        ps = tasks[0].pageset
        moved = []
        engine.schedule_at(1.0, lambda: moved.append(
            agent.memory.migrate(ps, np.flatnonzero(ps.tier == int(DRAM))[:4], CXL)
        ))
        engine.run()
        assert moved[0] > 0 and all(te.state is TaskState.DONE for te in tasks)
        # DRAM is saturated (three 80 GB/s streams), so loaded latency bites
        assert any(t > 1.0 and "stream" in names and n == 3 for t, names, n in seen)
        assert any("solve" in names for _, names, _ in seen)
