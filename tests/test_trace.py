"""Sim-time event tracing through the obs event sink and its filtered view."""

from collections import deque

from repro import obs
from repro.memory.system import NodeMemorySystem
from repro.policies.linux import LinuxSwapPolicy
from repro.runtime.node_agent import NodeAgent
from repro.util.units import MiB

from conftest import CHUNK, simple_task, small_specs


class TestTracer:
    def test_emit_and_query(self):
        tel = obs.Telemetry()
        with obs.session(tel):
            obs.event(1.0, "task", "a", event="started")
            obs.event(2.0, "task", "b", event="started")
            obs.event(3.0, "daemon", "n0", migrated_bytes=42)
        assert len(tel.events()) == 3
        assert [e["subj"] for e in tel.events("task")] == ["a", "b"]
        assert tel.events("task", subject="b")[0]["t"] == 2.0
        assert tel.events("daemon")[0]["migrated_bytes"] == 42

    def test_category_filter_drops_at_emit(self):
        # every category is recorded; the filter is applied at read time
        tel = obs.Telemetry()
        with obs.session(tel):
            obs.event(1.0, "task", "a")
            obs.event(1.0, "daemon", "n0")
        assert len(tel.events()) == 2
        assert [e["cat"] for e in tel.events("task")] == ["task"]
        assert tel.events("phase") == []

    def test_capacity_ring_buffer(self):
        tel = obs.Telemetry(max_events=2)
        with obs.session(tel):
            for i in range(5):
                obs.event(float(i), "x", f"s{i}")
        assert len(tel.events()) == 2
        assert tel.dropped_events == 3
        assert tel.events()[0]["subj"] == "s3"

    def test_capacity_eviction_is_constant_time(self):
        # the buffer must be a bounded deque: saturating it twice over must
        # not degrade (a list.pop(0) buffer turns this quadratic) and the
        # drop/eviction accounting must stay exact at any overshoot
        cap = 1000
        tel = obs.Telemetry(max_events=cap)
        with obs.session(tel):
            for i in range(3 * cap):
                obs.event(float(i), "x", f"s{i}")
        assert len(tel.events()) == cap
        assert tel.dropped_events == 2 * cap
        assert tel.events()[0]["subj"] == f"s{2 * cap}"
        assert tel.events()[-1]["subj"] == f"s{3 * cap - 1}"
        assert isinstance(tel._events, deque) and tel._events.maxlen == cap

    def test_clear(self):
        # a run's events live in its own context: once its session exits,
        # emissions go nowhere, and a fresh context starts empty
        tel = obs.Telemetry()
        with obs.session(tel):
            obs.event(1.0, "a", "b")
        obs.event(2.0, "a", "c")
        assert len(tel.events()) == 1
        assert obs.Telemetry().events() == []


class TestRuntimeTracing:
    def test_task_lifecycle_traced(self, engine, metrics):
        tel = obs.Telemetry()
        node = NodeMemorySystem(small_specs(dram=MiB(8)), "n0")
        agent = NodeAgent(
            engine, node, LinuxSwapPolicy(scan_noise=0.0), metrics,
            cores=4, chunk_size=CHUNK,
        )
        with obs.session(tel):
            agent.start_task(simple_task("t", footprint=MiB(1), base_time=3.0, n_phases=2))
            engine.run(until=100.0)
        task_events = [e["event"] for e in tel.events("task", subject="t")]
        assert task_events == ["started", "finished"]
        phases = tel.events("phase", subject="t")
        assert [e["index"] for e in phases] == [0, 1]
        assert len(tel.events("daemon")) > 0

    def test_no_tracer_is_silent(self, engine, metrics):
        assert obs.active() is obs.NULL
        node = NodeMemorySystem(small_specs(dram=MiB(8)), "n0")
        agent = NodeAgent(
            engine, node, LinuxSwapPolicy(scan_noise=0.0), metrics,
            cores=4, chunk_size=CHUNK,
        )
        agent.start_task(simple_task("t", footprint=MiB(1), base_time=1.0))
        engine.run(until=10.0)  # simply must not crash
        assert metrics.get("t").done
