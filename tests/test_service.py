"""Steady-state service mode: arrival streams, windowed metrics, warm-up
detection, admission control, and end-to-end open-loop runs.

Covers the windowed-metrics edge cases explicitly: an empty window, a
single partial window at the horizon, warm-up longer than the run, and
determinism of window boundaries under a fixed seed with jobs=1 vs
jobs=N."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from repro.cache.codec import decode, encode
from repro.cache.keys import canonicalize
from repro.envs.environments import EnvKind, make_environment
from repro.experiments.ext_steady_state import run_steady_state
from repro.metrics.collector import MetricsRegistry
from repro.scenarios import from_toml, run_service, to_toml
from repro.scenarios.registry import scenario
from repro.scenarios.build import service_sizing_tasks
from repro.scenarios.paper import ext_steady_state_family
from repro.service import (
    AcceptAll,
    ClusterView,
    MemoryHeadroomGate,
    QueueDepthCap,
    ServiceReport,
    ServiceRun,
    ServiceSpec,
    TaskStream,
    WindowAccumulator,
    arrival_process,
    build_admission,
    burst_modulator,
    detect_warmup,
    diurnal_modulator,
    load_trace,
    modulated_rate,
    mser5,
    poisson_process,
    serve,
    sliding_cv,
    trace_process,
    uniform_process,
)
from repro.util.rng import RngFactory
from repro.util.units import GiB, KiB, MiB
from repro.workflows.ensembles import paper_batch

TINY = 1.0 / 2048.0
CHUNK = KiB(256)


def tiny_env(kind=EnvKind.IMME, n_nodes=1, dram=MiB(32)):
    return make_environment(kind, n_nodes=n_nodes, dram_capacity=dram, chunk_size=CHUNK)


# --------------------------------------------------------------------------- #
# spec validation
# --------------------------------------------------------------------------- #

class TestServiceSpec:
    def test_defaults_need_stop_condition(self):
        with pytest.raises(Exception, match="stop condition"):
            ServiceSpec(max_arrivals=0, horizon=0.0)

    def test_valid_with_max_arrivals_or_horizon(self):
        assert ServiceSpec(max_arrivals=5).max_arrivals == 5
        assert ServiceSpec(horizon=100.0).horizon == 100.0

    @pytest.mark.parametrize(
        "kw",
        [
            {"arrival": "zipf"},
            {"warmup": "magic"},
            {"warmup_metric": "vibes"},
            {"admission": "bribe"},
            {"window": 0.0},
            {"rate": 0.0},
            {"cv_span": 1},
            {"classes": ()},
            {"classes": (("DM", 0),)},
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(Exception):
            ServiceSpec(max_arrivals=1, **kw)

    def test_classes_and_params_normalize_sorted(self):
        spec = ServiceSpec(
            max_arrivals=1,
            classes={"SC": 1, "DM": 3},
            params={"start": 5.0, "burst_period": 50.0},
        )
        assert spec.classes == (("DM", 3), ("SC", 1))
        assert [k for k, _ in spec.params] == ["burst_period", "start"]
        assert spec.param("start") == 5.0
        assert spec.param("missing", 7) == 7


# --------------------------------------------------------------------------- #
# arrival processes
# --------------------------------------------------------------------------- #

class TestArrivals:
    def test_poisson_deterministic_and_increasing(self):
        a = list(itertools.islice(poisson_process(0.5, rng_factory=RngFactory(3)), 50))
        b = list(itertools.islice(poisson_process(0.5, rng_factory=RngFactory(3)), 50))
        assert a == b
        assert all(y > x for x, y in zip(a, a[1:]))
        # mean gap roughly 1/rate over 50 draws
        assert 0.8 < np.mean(np.diff([0.0] + a)) * 0.5 < 1.25

    def test_poisson_seed_sensitivity(self):
        a = list(itertools.islice(poisson_process(0.5, rng_factory=RngFactory(3)), 10))
        b = list(itertools.islice(poisson_process(0.5, rng_factory=RngFactory(4)), 10))
        assert a != b

    def test_uniform_exact_spacing(self):
        times = list(itertools.islice(uniform_process(0.25, start=10.0), 4))
        assert times == [14.0, 18.0, 22.0, 26.0]

    def test_diurnal_modulator_bounds(self):
        m = diurnal_modulator(100.0, 0.5)
        probe = [m(t) for t in np.linspace(0.0, 200.0, 401)]
        assert min(probe) >= 0.5 - 1e-9 and max(probe) <= 1.5 + 1e-9

    def test_burst_modulator_square_wave(self):
        m = burst_modulator(100.0, 10.0, 4.0)
        assert m(5.0) == 4.0 and m(50.0) == 1.0 and m(105.0) == 4.0

    def test_modulated_rate_peak_bounds_rate(self):
        rate_fn, peak = modulated_rate(
            2.0, [diurnal_modulator(100.0, 0.5), burst_modulator(50.0, 5.0, 3.0)]
        )
        probe = [rate_fn(t) for t in np.linspace(0.0, 500.0, 2001)]
        assert max(probe) <= peak + 1e-9
        assert peak == pytest.approx(2.0 * 1.5 * 3.0, rel=1e-3)

    def test_thinned_poisson_concentrates_in_bursts(self):
        spec = ServiceSpec(
            rate=1.0,
            max_arrivals=400,
            params={"burst_period": 100.0, "burst_duration": 10.0, "burst_factor": 10.0},
        )
        times = [t for t, _ in itertools.islice(arrival_process(spec, 0), 400)]
        in_burst = sum(1 for t in times if (t % 100.0) < 10.0)
        # 10x rate over 10% of the cycle -> roughly half the arrivals
        assert in_burst / len(times) > 0.35

    def test_trace_csv_roundtrip(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("time,class\n# comment\n5.0,DM\n1.0,\n9.5,SC\n")
        rows = load_trace(p)
        assert rows == [(1.0, None), (5.0, "DM"), (9.5, "SC")]

    def test_trace_json_roundtrip(self, tmp_path):
        p = tmp_path / "trace.json"
        p.write_text('[3.0, {"t": 1.5, "class": "DC"}, {"t": 8.0}]')
        rows = load_trace(p)
        assert rows == [(1.5, "DC"), (3.0, None), (8.0, None)]

    def test_trace_bad_suffix_and_missing(self, tmp_path):
        with pytest.raises(Exception):
            load_trace(tmp_path / "nope.csv")
        bad = tmp_path / "trace.txt"
        bad.write_text("1.0\n")
        with pytest.raises(ValueError, match="unknown trace format"):
            load_trace(bad)

    def test_trace_process_repeat_shifts(self):
        rows = [(1.0, None), (4.0, "DM")]
        out = list(itertools.islice(trace_process(rows, repeat=10.0), 6))
        assert out == [
            (1.0, None), (4.0, "DM"),
            (11.0, None), (14.0, "DM"),
            (21.0, None), (24.0, "DM"),
        ]

    def test_trace_process_finite_without_repeat(self):
        assert list(trace_process([(2.0, None)])) == [(2.0, None)]

    def test_arrival_process_trace_needs_param(self):
        spec = ServiceSpec(arrival="trace", max_arrivals=1)
        with pytest.raises(Exception, match="trace"):
            arrival_process(spec, 0)

    def test_arrival_process_start_offset(self):
        spec = ServiceSpec(arrival="uniform", rate=1.0, max_arrivals=3,
                           params={"start": 100.0})
        times = [t for t, _ in itertools.islice(arrival_process(spec, 0), 3)]
        assert times == [101.0, 102.0, 103.0]


# --------------------------------------------------------------------------- #
# task streams
# --------------------------------------------------------------------------- #

class TestTaskStream:
    def test_per_index_determinism_and_order_independence(self):
        classes = (("DM", 3), ("DC", 1))
        a = TaskStream(classes, TINY, 7)
        b = TaskStream(classes, TINY, 7)
        ta = [a.task(i) for i in (0, 1, 2, 3)]
        tb = [b.task(i) for i in (3, 0, 2, 1)]  # build order must not matter
        by_index = {int(t.name.split("-")[1]): t for t in tb}
        for i, t in enumerate(ta):
            assert t == by_index[i]

    def test_seed_changes_stream(self):
        classes = (("DM", 1),)
        a = TaskStream(classes, TINY, 7).task(0)
        b = TaskStream(classes, TINY, 8).task(0)
        assert a != b

    def test_class_mix_respects_weights(self):
        stream = TaskStream((("DM", 3), ("DC", 1)), TINY, 0)
        drawn = [stream.wclass(i) for i in range(200)]
        assert 0.6 < drawn.count("DM") / len(drawn) < 0.9

    def test_override_and_outside_mix_class(self):
        stream = TaskStream((("DM", 1),), TINY, 0)
        assert stream.wclass(0, "SC") == "SC"
        t = stream.task(0, "SC")
        assert t.wclass.name == "SC"
        with pytest.raises(Exception, match="unknown stream class"):
            stream.wclass(0, "NOPE")
        with pytest.raises(Exception, match="unknown stream class"):
            stream.arrival(0, "NOPE")  # before admission could shed it

    def test_bases_order_matches_declaration(self):
        stream = TaskStream((("SC", 1), ("DM", 2)), TINY, 0)
        assert [b.wclass.name for b in stream.bases()] == ["SC", "DM"]

    def test_tasks_are_the_ones_jittered_before_the_split(self):
        """Digests of the tasks the undivided draw-and-build jitter made."""
        def digest(tasks):
            return hashlib.sha256(canonicalize(list(tasks)).encode()).hexdigest()

        stream = TaskStream((("DM", 5), ("SC", 3), ("DL", 1), ("DC", 1)), TINY, 11)
        assert digest(stream.task(i) for i in range(3000)) == (
            "34a5fd8b9867fa10a38cc11034079c02f50752dd609913bd9cfa58a344c1b3b9"
        )
        assert digest(paper_batch(40)) == (
            "18c82266291d69be534f6df5d947a9e63b83d2b8f97a3d5956e362098f9c3f5d"
        )

    def test_arrival_draws_once_and_builds_the_same_task(self, monkeypatch):
        stream = TaskStream((("DM", 3), ("SC", 1)), TINY, 5)
        draws = []
        real = TaskStream.draws
        monkeypatch.setattr(
            TaskStream, "draws", lambda self, *a: draws.append(a) or real(self, *a)
        )
        arrival = stream.arrival(7)
        assert draws == []  # nothing drawn until asked
        footprint = arrival.max_footprint
        task = arrival.task()
        assert len(draws) == 1
        assert task == stream.task(7) and footprint == task.max_footprint
        assert stream.arrival(2, "DL").task() == stream.task(2, "DL")


# --------------------------------------------------------------------------- #
# warm-up detection
# --------------------------------------------------------------------------- #

class TestWarmup:
    def test_mser5_cuts_transient(self):
        series = [10.0, 9.0, 8.0, 6.0, 4.0] + [1.0, 1.01, 0.99, 1.0, 1.0] * 4
        cut, converged = mser5(series)
        assert converged
        assert cut == 5  # exactly the transient batch

    def test_mser5_too_short_is_unconverged(self):
        assert mser5([1.0] * 9) == (0, False)

    def test_mser5_ignores_nan(self):
        series = [float("nan")] + [5.0] * 5 + [1.0] * 20
        cut, converged = mser5(series)
        assert converged and cut == 5

    def test_sliding_cv_finds_settle_point(self):
        series = [50.0, 20.0, 10.0, 5.0] + [2.0, 2.05, 1.95, 2.0, 2.02] * 3
        cut, converged = sliding_cv(series, threshold=0.10, span=5)
        assert converged and 3 <= cut <= 5

    def test_sliding_cv_never_settles(self):
        series = [1.0, 100.0] * 6
        assert sliding_cv(series, threshold=0.05, span=4) == (len(series), False)

    def test_detect_warmup_none_and_empty(self):
        assert detect_warmup("none", [5.0, 1.0]) == (0, True)
        assert detect_warmup("mser-5", []) == (0, True)

    def test_detect_warmup_dispatch(self):
        series = [9.0] * 5 + [1.0] * 15
        assert detect_warmup("mser-5", series)[1] is True
        assert detect_warmup("sliding-cv", series, cv_threshold=0.1, cv_span=5)[1] is True


# --------------------------------------------------------------------------- #
# the report period (engine-side windowing)
# --------------------------------------------------------------------------- #

class _WindowSink:
    """A live sink keeping each closed window's ``(index, start, end)``."""

    def __init__(self):
        self.seen = []

    def write_window(self, payload):
        self.seen.append((payload["window"], payload["start"], payload["end"]))


def _windowed_run(horizon):
    """A truncated 10-s-window service run; its engine and closed windows."""
    env = tiny_env(EnvKind.CBE)
    sink = _WindowSink()
    spec = ServiceSpec(rate=0.2, horizon=horizon, window=10.0, warmup="none", drain=False)
    ServiceRun(env, spec, scale=TINY, seed=1, live=sink).execute()
    env.stop()
    return env.engine, sink.seen


class TestReportPeriod:
    """Report windows: a service run's one-member TickGroup closes each
    window at its boundary, and the run closes a trailing partial one."""

    def test_windows_arrive_in_order_with_bounds(self):
        _, seen = _windowed_run(35.0)
        assert seen[:3] == [(0, 0.0, 10.0), (1, 10.0, 20.0), (2, 20.0, 30.0)]

    def test_close_partial_covers_trailing_window(self):
        _, seen = _windowed_run(25.0)
        assert seen[-1] == (2, 20.0, 25.0)

    def test_close_partial_noop_on_exact_boundary(self):
        _, seen = _windowed_run(20.0)
        assert seen == [(0, 0.0, 10.0), (1, 10.0, 20.0)]

    def test_removed_reporter_stops_firing(self):
        engine, seen = _windowed_run(35.0)
        assert len(seen) == 4
        assert not [ev for ev in engine._heap
                    if ev.label == "service.window" and not ev.cancelled]


# --------------------------------------------------------------------------- #
# windowed metrics edge cases
# --------------------------------------------------------------------------- #

def _assemble(acc, *, stop, metrics=None, warmup="none", offered=0, admitted=0,
              cv_threshold=0.10, cv_span=5):
    return acc.assemble(
        scenario="edge", seed=0,
        metrics=metrics if metrics is not None else MetricsRegistry(),
        start=0.0, stop=stop,
        offered=offered, admitted=admitted, rejected=offered - admitted,
        warmup_method=warmup, warmup_metric="utilization",
        cv_threshold=cv_threshold, cv_span=cv_span,
    )


class TestWindowAccumulatorEdges:
    def test_empty_window_reports_nan_turnaround_zero_util(self):
        acc = WindowAccumulator(10.0, total_cores=4)
        acc.on_boundary(0, 0)
        acc.on_boundary(0, 0)
        rep = _assemble(acc, stop=20.0)
        assert len(rep.windows) == 2
        w = rep.windows[0]
        assert w.arrivals == 0 and w.completed == 0
        assert w.utilization == 0.0
        assert math.isnan(w.mean_turnaround)
        assert rep.steady_utilization == 0.0

    def test_single_partial_window_at_horizon(self):
        acc = WindowAccumulator(50.0, total_cores=4)
        acc.on_offered(True)
        # run stopped at t=20 inside the first window; no boundary ever fired
        rep = _assemble(acc, stop=20.0, offered=1, admitted=1)
        assert len(rep.windows) == 1
        w = rep.windows[0]
        assert (w.start, w.end) == (0.0, 20.0)
        assert w.duration == 20.0 < acc.window
        assert w.arrivals == 1 and w.admitted == 1

    def test_warmup_longer_than_run_is_unconverged(self):
        acc = WindowAccumulator(10.0, total_cores=4)
        for _ in range(4):
            acc.on_boundary(3, 1)
        # oscillating utilization -> sliding-cv never settles
        metrics = MetricsRegistry()
        for i in range(4):
            tm = metrics.task(f"t{i}", "DM")
            tm.submitted_at = i * 10.0
            tm.scheduled_at = i * 10.0
            tm.started_at = i * 10.0
            tm.finished_at = i * 10.0 + (9.9 if i % 2 else 0.4)
        rep = _assemble(acc, stop=40.0, metrics=metrics, warmup="sliding-cv",
                        offered=4, admitted=4, cv_threshold=0.01, cv_span=4)
        assert not rep.converged
        assert rep.warmup_windows == len(rep.windows)
        assert rep.steady_windows == ()
        assert rep.steady_utilization == 0.0 and rep.steady_queue_depth == 0.0

    def test_busy_core_seconds_overlap_is_exact(self):
        acc = WindowAccumulator(10.0, total_cores=2)
        acc.cores_of["a"] = 2
        metrics = MetricsRegistry()
        tm = metrics.task("a", "DM")
        tm.submitted_at = 0.0
        tm.scheduled_at = 2.0
        tm.started_at = 5.0
        tm.finished_at = 15.0
        acc.on_boundary(0, 1)
        acc.on_boundary(0, 0)
        rep = _assemble(acc, stop=20.0, metrics=metrics, offered=1, admitted=1)
        # 5 busy seconds x 2 cores over a 10s window of 2 cores each window
        assert rep.windows[0].utilization == pytest.approx(0.5)
        assert rep.windows[1].utilization == pytest.approx(0.5)
        assert rep.windows[1].completed == 1
        assert rep.windows[1].mean_turnaround == pytest.approx(15.0)

    def test_running_task_counts_up_to_stop(self):
        acc = WindowAccumulator(10.0, total_cores=1)
        metrics = MetricsRegistry()
        tm = metrics.task("r", "DM")
        tm.started_at = 0.0  # never finishes
        acc.on_boundary(0, 1)
        rep = _assemble(acc, stop=10.0, metrics=metrics)
        assert rep.windows[0].utilization == pytest.approx(1.0)
        assert rep.completed == 0

    def test_latency_lookup_raises_for_missing_class(self):
        acc = WindowAccumulator(10.0, total_cores=1)
        acc.on_boundary(0, 0)
        rep = _assemble(acc, stop=10.0)
        with pytest.raises(KeyError):
            rep.latency("DM")


# --------------------------------------------------------------------------- #
# admission policies
# --------------------------------------------------------------------------- #

class _StubView:
    def __init__(self, depth=0, best_free=0):
        self.queue_depth = depth
        self._best = best_free

    def best_free_memory(self):
        return self._best


class TestAdmission:
    def test_accept_all(self):
        assert AcceptAll().admit(None, _StubView()) is True

    def test_queue_depth_cap(self):
        cap = QueueDepthCap(4)
        assert cap.admit(None, _StubView(depth=3))
        assert not cap.admit(None, _StubView(depth=4))
        with pytest.raises(Exception):
            QueueDepthCap(0)

    def test_memory_headroom_gate(self):
        stream = TaskStream((("DM", 1),), TINY, 0)
        task = stream.task(0)
        gate = MemoryHeadroomGate(headroom=2.0)
        assert gate.admit(task, _StubView(best_free=int(task.max_footprint * 2)))
        assert not gate.admit(task, _StubView(best_free=int(task.max_footprint)))

    def test_build_admission_dispatch(self):
        assert isinstance(build_admission(ServiceSpec(max_arrivals=1)), AcceptAll)
        cap = build_admission(
            ServiceSpec(max_arrivals=1, admission="queue-cap", queue_cap=9)
        )
        assert isinstance(cap, QueueDepthCap) and cap.max_depth == 9
        gate = build_admission(
            ServiceSpec(max_arrivals=1, admission="memory-headroom", headroom=1.5)
        )
        assert isinstance(gate, MemoryHeadroomGate) and gate.headroom == 1.5
        with pytest.raises(Exception, match="queue_cap"):
            build_admission(ServiceSpec(max_arrivals=1, admission="queue-cap"))

    def test_cluster_view_reads_live_cluster(self):
        env = tiny_env()
        try:
            view = ClusterView(env.scheduler, env.scheduler.agents)
            assert view.queue_depth == 0
            assert view.best_free_memory() > 0
            assert view.free_memory(0) == view.best_free_memory()
        finally:
            env.stop()


# --------------------------------------------------------------------------- #
# end-to-end service runs
# --------------------------------------------------------------------------- #

class TestServiceRun:
    def test_small_run_accounts_every_arrival(self):
        env = tiny_env()
        try:
            spec = ServiceSpec(rate=0.5, max_arrivals=6, window=10.0, warmup="none")
            rep = serve(env, spec, scale=TINY, seed=1)
        finally:
            env.stop()
        assert rep.offered == 6
        assert rep.admitted == 6 and rep.rejected == 0
        assert rep.completed == 6 and rep.failed == 0
        assert rep.duration > 0 and len(rep.windows) >= 1
        # window totals reconcile with run totals
        assert sum(w.arrivals for w in rep.windows) == rep.offered
        assert sum(w.completed for w in rep.windows) == rep.completed
        assert rep.windows[-1].end <= rep.duration + 1e-9
        dm = rep.latency("DM")
        assert dm.count == 6
        assert dm.p50 <= dm.p95 <= dm.p99
        assert "steady state" in rep.to_table()

    def test_repeat_run_is_bit_identical(self):
        def once():
            env = tiny_env()
            try:
                spec = ServiceSpec(rate=0.5, max_arrivals=6, window=10.0,
                                   warmup="none")
                return serve(env, spec, scale=TINY, seed=3)
            finally:
                env.stop()

        assert once() == once()

    def test_horizon_without_drain_truncates(self):
        env = tiny_env()
        try:
            spec = ServiceSpec(rate=0.2, horizon=45.0, window=20.0,
                               warmup="none", drain=False)
            rep = serve(env, spec, scale=TINY, seed=2)
        finally:
            env.stop()
        assert rep.duration == pytest.approx(45.0)
        # partial trailing window closed at the horizon
        assert rep.windows[-1].end == pytest.approx(45.0)
        assert rep.windows[-1].duration == pytest.approx(5.0)

    def test_queue_cap_sheds_and_counters_agree(self):
        env = tiny_env()
        try:
            spec = ServiceSpec(rate=20.0, max_arrivals=60, window=5.0,
                               warmup="none", admission="queue-cap", queue_cap=3)
            rep = serve(env, spec, scale=TINY, seed=4)
            assert env.scheduler.rejected == rep.rejected
            assert env.scheduler.admission is None  # detached after the run
        finally:
            env.stop()
        assert rep.rejected > 0
        assert rep.admitted + rep.rejected == rep.offered == 60
        assert rep.completed == rep.admitted
        assert sum(w.rejected for w in rep.windows) == rep.rejected

    @pytest.mark.parametrize("admission", [
        {"admission": "queue-cap", "queue_cap": 3},
        {"admission": "memory-headroom", "headroom": 1.0},
    ])
    def test_shed_arrivals_build_no_task(self, monkeypatch, admission):
        builds = []
        build = TaskStream.task
        monkeypatch.setattr(
            TaskStream, "task", lambda self, *a, **kw: builds.append(a) or build(self, *a, **kw)
        )
        env = make_environment(EnvKind.CBE, n_nodes=1, dram_capacity=MiB(4), chunk_size=CHUNK)
        try:
            spec = ServiceSpec(rate=30.0, max_arrivals=40, window=5.0, warmup="none", **admission)
            rep = serve(env, spec, scale=TINY, seed=6)
        finally:
            env.stop()
        assert 0 < rep.admitted < rep.offered
        assert len(builds) == rep.admitted

    def test_memory_headroom_differs_by_environment(self):
        spec = ServiceSpec(rate=30.0, max_arrivals=40, window=5.0, warmup="none",
                           admission="memory-headroom", headroom=1.0)
        admitted = {}
        for kind, dram in ((EnvKind.CBE, MiB(2)), (EnvKind.IMME, MiB(2))):
            env = make_environment(kind, n_nodes=1, dram_capacity=dram,
                                   chunk_size=CHUNK)
            try:
                admitted[kind] = serve(env, spec, scale=TINY, seed=6).admitted
            finally:
                env.stop()
        # tiered capacity admits at least as much as DRAM-only, and the
        # starved baseline must actually shed
        assert admitted[EnvKind.CBE] < 40
        assert admitted[EnvKind.IMME] >= admitted[EnvKind.CBE]

    def test_trace_driven_run_with_class_override(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("1.0,DM\n2.0,SC\n3.0,DM\n")
        env = tiny_env()
        try:
            spec = ServiceSpec(arrival="trace", max_arrivals=3, window=10.0,
                               warmup="none", params={"trace": str(p)})
            rep = serve(env, spec, scale=TINY, seed=0)
        finally:
            env.stop()
        assert rep.offered == 3 and rep.completed == 3
        assert {cl.wclass for cl in rep.class_latency} == {"DM", "SC"}
        assert rep.latency("SC").count == 1

    def test_background_tasks_tracked_alongside_stream(self):
        env = tiny_env()
        stream = TaskStream((("SC", 1),), TINY, 99)
        bg = stream.task(0)
        try:
            spec = ServiceSpec(rate=0.5, max_arrivals=3, window=10.0, warmup="none")
            rep = serve(env, spec, scale=TINY, seed=5, background=[bg])
        finally:
            env.stop()
        assert rep.completed == 4  # 3 stream + 1 background
        assert rep.latency("SC").count >= 1

    def test_report_rides_cache_codec(self):
        env = tiny_env()
        try:
            spec = ServiceSpec(rate=0.5, max_arrivals=4, window=10.0, warmup="none")
            rep = serve(env, spec, scale=TINY, seed=7)
        finally:
            env.stop()
        assert decode(encode(rep)) == rep


# --------------------------------------------------------------------------- #
# acceptance: a 10k-arrival open-loop run reaching steady state
# --------------------------------------------------------------------------- #

class TestSteadyStateAcceptance:
    def test_ten_thousand_arrivals_reach_steady_state(self):
        env = make_environment(EnvKind.IMME, n_nodes=2, dram_capacity=GiB(2),
                               chunk_size=MiB(16))
        try:
            spec = ServiceSpec(
                rate=50.0, max_arrivals=10_000, window=20.0,
                admission="queue-cap", queue_cap=32,
                classes=(("DM", 3), ("DC", 1)),
            )
            rep = serve(env, spec, scale=TINY, seed=5)
        finally:
            env.stop()
        assert rep.offered == 10_000
        assert rep.admitted > 0 and rep.rejected > 0
        assert rep.completed == rep.admitted and rep.failed == 0
        assert rep.converged, "windowed utilization never reached steady state"
        assert rep.warmup_windows < len(rep.windows)
        assert rep.steady_utilization > 0.0
        assert rep.steady_queue_depth > 0.0
        assert rep.steady_throughput > 0.0
        for cl in rep.class_latency:
            assert cl.count > 0
            assert cl.p50 <= cl.p95 <= cl.p99
            assert math.isfinite(cl.mean)
        assert {cl.wclass for cl in rep.class_latency} == {"DM", "DC"}
        # window boundaries are an exact arithmetic grid from the origin
        for w in rep.windows[:-1]:
            assert w.duration == pytest.approx(20.0)
            assert w.start == pytest.approx(w.index * 20.0)


# --------------------------------------------------------------------------- #
# scenario + experiment integration
# --------------------------------------------------------------------------- #

class TestScenarioIntegration:
    def test_service_spec_survives_toml_roundtrip(self):
        family = ext_steady_state_family(scale=TINY, rates=(0.1,), max_arrivals=4,
                                         chunk_size=CHUNK)
        spec = family.scenarios[0]
        assert spec.service is not None
        again = from_toml(to_toml(spec))
        assert again == spec and again.service == spec.service

    def test_registered_family_loads_by_name(self):
        spec = scenario("ext-steady-state/IMME:0.10")
        assert spec.service is not None
        assert spec.service.rate == pytest.approx(0.10)

    def test_sizing_provisions_for_stream_classes(self):
        family = ext_steady_state_family(scale=TINY, rates=(0.1,), max_arrivals=4,
                                         sizing_copies=3, chunk_size=CHUNK)
        tasks = service_sizing_tasks(family.scenarios[0])
        names = {t.wclass.name for t in tasks}
        assert {"DM", "DC"} <= names
        assert sum(1 for t in tasks if t.wclass.name == "DM") == 3

    def test_run_service_over_registered_scenario(self):
        family = ext_steady_state_family(scale=TINY, rates=(0.2,), max_arrivals=3,
                                         window=50.0, sizing_copies=2,
                                         chunk_size=CHUNK)
        spec = next(s for s in family.scenarios
                    if s.name.startswith("ext-steady-state/IMME"))
        rep = run_service(spec)
        assert isinstance(rep, ServiceReport)
        assert rep.offered == 3
        assert rep.scenario == spec.name

    def test_jobs_parallelism_is_bit_identical(self):
        kw = dict(scale=TINY, rates=(0.05, 0.2), max_arrivals=3, window=50.0,
                  chunk_size=CHUNK, seed=0)
        serial = run_steady_state(jobs=1, **kw)
        parallel = run_steady_state(jobs=2, **kw)
        assert serial.series == parallel.series
        assert serial.xlabels == parallel.xlabels
