"""The unified telemetry layer: core context, merge determinism under the
fork pool, exporters, the ``obs`` CLI, and the latency-percentile
aggregates it surfaces."""

import json
import math
import os
import time

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.metrics.collector import MetricsRegistry
from repro.obs.exporters import write_run_dir
from repro.obs.telemetry import add_label, metric_key, split_label
from repro.parallel import map_ordered, supports_fork
from repro.resilience import supervised_map


# --------------------------------------------------------------------------- #
# metric keys
# --------------------------------------------------------------------------- #

class TestMetricKeys:
    def test_plain_name(self):
        assert metric_key("a.b", {}) == "a.b"
        assert split_label("a.b") == ("a.b", {})

    def test_labels_sorted_and_round_trip(self):
        key = metric_key("m", {"z": 1, "a": "x"})
        assert key == "m{a=x,z=1}"
        assert split_label(key) == ("m", {"a": "x", "z": "1"})

    def test_add_label_scopes(self):
        assert add_label("m", exp="fig05") == "m{exp=fig05}"
        assert add_label("m{a=1}", exp="fig05") == "m{a=1,exp=fig05}"


# --------------------------------------------------------------------------- #
# disabled path
# --------------------------------------------------------------------------- #

class TestNullPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.active() is obs.NULL

    def test_null_emissions_are_noops(self):
        obs.counter("x", 3, label="v")
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        obs.event(1.0, "cat", "subj", k="v")
        with obs.span("s", attr=1) as sp:
            sp.set(more=2)
        assert obs.active().snapshot() is None

    def test_null_span_is_shared_singleton(self):
        assert obs.span("a") is obs.span("b")


# --------------------------------------------------------------------------- #
# the live context
# --------------------------------------------------------------------------- #

class TestTelemetry:
    def test_counters_sum_by_label(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            obs.counter("hits")
            obs.counter("hits", 2)
            obs.counter("hits", 5, tier="dram")
        rec = tel.snapshot()
        assert rec.counters == {"hits": 3, "hits{tier=dram}": 5}

    def test_gauges_overwrite_histograms_accumulate(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            obs.gauge("temp", 1.0)
            obs.gauge("temp", 2.0)
            obs.observe("lat", 1.0)
            obs.observe("lat", 3.0)
        rec = tel.snapshot()
        assert rec.gauges == {"temp": 2.0}
        assert rec.histograms == {"lat": [1.0, 3.0]}

    def test_session_restores_previous_context(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            assert obs.active() is tel
            inner = obs.Telemetry("inner")
            with obs.session(inner):
                assert obs.active() is inner
            assert obs.active() is tel
        assert obs.active() is obs.NULL

    def test_span_nesting_records_parents(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            with obs.span("outer"):
                with obs.span("inner", cell="a") as sp:
                    sp.set(extra=1)
                with obs.span("inner2"):
                    pass
        rec = tel.snapshot()
        assert rec.span_tree_shape() == [
            ("inner", "outer"), ("inner2", "outer"), ("outer", None),
        ]
        inner = next(s for s in rec.spans if s.name == "inner")
        assert inner.attrs == {"cell": "a", "extra": 1}
        assert inner.duration >= 0.0

    def test_events_carry_sim_time(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            obs.event(12.5, "fault", "node-crash", node=3)
        rec = tel.snapshot()
        assert rec.events == [{"t": 12.5, "cat": "fault", "subj": "node-crash", "node": 3}]

    def test_snapshot_is_a_copy(self):
        tel = obs.Telemetry("t")
        with obs.session(tel):
            obs.counter("c")
        rec = tel.snapshot()
        with obs.session(tel):
            obs.counter("c")
        assert rec.counters["c"] == 1
        assert tel.snapshot().counters["c"] == 2

    def test_bounds_drop_and_count(self):
        tel = obs.Telemetry("t", max_spans=1, max_events=2, max_observations=1)
        with obs.session(tel):
            for i in range(3):
                with obs.span(f"s{i}"):
                    pass
                obs.event(float(i), "c", "s")
                obs.observe("h", float(i))
        rec = tel.snapshot()
        assert len(rec.spans) == 1 and rec.dropped_spans == 2
        assert len(rec.events) == 2 and rec.dropped_events == 1
        assert rec.histograms["h"] == [0.0] and rec.dropped_observations == 2

    def test_record_json_round_trip(self):
        tel = obs.Telemetry("t", meta={"jobs": 2})
        with obs.session(tel):
            with obs.span("outer", k="v"):
                obs.counter("c", 2, a=1)
            obs.event(1.0, "cat", "s")
        rec = tel.snapshot()
        back = obs.TelemetryRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert back.counters == rec.counters
        assert back.span_tree_shape() == rec.span_tree_shape()
        assert back.events == rec.events
        assert back.meta == {"jobs": 2}


# --------------------------------------------------------------------------- #
# the one run context: telemetry, insight and the checker
# --------------------------------------------------------------------------- #

def _planes():
    from repro.obs import insight as _insight
    from repro.resilience import InvariantChecker

    return obs.Telemetry("outer"), _insight.Insight("outer"), InvariantChecker()


def _installed():
    from repro.obs import insight as _insight
    from repro.resilience import invariants

    return obs.active(), _insight.active(), invariants.active()


class TestRunSession:
    def test_nested_session_inherits_unnamed_planes(self):
        tel, ins, checker = _planes()
        child = obs.Telemetry("child")
        with obs.session(tel, insight=ins, checker=checker):
            with obs.session(child) as run:
                assert _installed() == tuple(run) == (child, ins, checker)
            assert _installed() == (tel, ins, checker)

    def test_exception_restores_every_plane(self):
        from repro.obs import insight as _insight
        from repro.resilience import NULL_CHECKER

        tel, ins, checker = _planes()
        with pytest.raises(RuntimeError, match="boom"):
            with obs.session(tel, insight=ins, checker=checker):
                raise RuntimeError("boom")
        assert _installed() == (obs.NULL, _insight.NULL, NULL_CHECKER)

    def test_worker_forks_live_planes_and_shares_the_checker(self):
        from repro.obs import insight as _insight
        from repro.resilience import NULL_CHECKER

        assert tuple(obs.current().worker()) == (obs.NULL, _insight.NULL, NULL_CHECKER)
        tel, ins, checker = _planes()
        with obs.session(tel, insight=ins, checker=checker):
            worker = obs.current().worker()
            with obs.session(worker.telemetry, insight=worker.insight):
                obs.counter("cells")
                _insight.active().migration(1.0, "n0", "t", 2, 0, 1, 64)
            obs.current().merge(worker.snapshot())
        assert worker.telemetry is not tel and worker.telemetry.enabled
        assert worker.insight is not ins and worker.insight.enabled
        assert worker.checker is checker
        assert tel.snapshot().counters == {"cells": 1}
        assert ins.ledger.bytes_by_kind() == {"promote": 64}


# --------------------------------------------------------------------------- #
# merge
# --------------------------------------------------------------------------- #

def _child_record(run_id="child", worker=""):
    tel = obs.Telemetry(run_id, meta={"worker": worker} if worker else None)
    with obs.session(tel):
        with obs.span("work"):
            obs.counter("done", policy="tpp")
            obs.event(1.0, "task", "t0")
        obs.observe("lat", 2.0)
    return tel.snapshot()


class TestMerge:
    def test_counters_sum_and_scope_labels(self):
        parent = obs.Telemetry("parent")
        parent.merge(_child_record(), scope="fig05")
        parent.merge(_child_record(), scope="fig05")
        parent.merge(_child_record(), scope="fig06")
        rec = parent.snapshot()
        assert rec.counters == {
            "done{exp=fig05,policy=tpp}": 2,
            "done{exp=fig06,policy=tpp}": 1,
        }
        assert rec.histograms["lat"] == [2.0, 2.0, 2.0]

    def test_roots_reparent_under_open_span(self):
        parent = obs.Telemetry("parent")
        with obs.session(parent):
            with obs.span("sweep"):
                parent.merge(_child_record())
        shape = parent.snapshot().span_tree_shape()
        assert ("work", "sweep") in shape

    def test_worker_annotation(self):
        parent = obs.Telemetry("parent")
        parent.merge(_child_record(worker="pid42"))
        rec = parent.snapshot()
        assert rec.workers == ["pid42"]
        assert rec.spans[0].worker == "pid42"
        assert rec.events[0]["worker"] == "pid42"

    def test_merged_span_ids_stay_unique(self):
        parent = obs.Telemetry("parent")
        parent.merge(_child_record())
        parent.merge(_child_record())
        ids = [s.span_id for s in parent.snapshot().spans]
        assert len(ids) == len(set(ids))


# --------------------------------------------------------------------------- #
# merge under the fork pool == sequential (satellite #3 of the tentpole)
# --------------------------------------------------------------------------- #

def _emitting_cell(i):
    """Top-level so the pool can run it; emits one of everything."""
    with obs.span("cell", index=i):
        obs.counter("cells.run")
        obs.counter("cells.weighted", i, parity=i % 2)
        obs.observe("cell_value", float(i))
        obs.event(float(i), "cell", f"c{i}", index=i)
    return i * i


def _run_emitting_sweep(jobs):
    tel = obs.Telemetry("sweep-test")
    with obs.session(tel), obs.span("sweep"):
        results = map_ordered(_emitting_cell, list(range(8)), jobs=jobs)
    return results, tel.snapshot()


@pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
class TestMergeUnderFork:
    def test_forked_sweep_matches_sequential(self):
        seq_results, seq = _run_emitting_sweep(jobs=1)
        par_results, par = _run_emitting_sweep(jobs=3)
        assert par_results == seq_results == [i * i for i in range(8)]
        assert par.counters == seq.counters
        assert par.histograms == seq.histograms  # merged in input order
        assert par.span_tree_shape() == seq.span_tree_shape()
        strip = lambda evs: [{k: v for k, v in e.items() if k != "worker"} for e in evs]
        assert strip(par.events) == strip(seq.events)
        assert par.workers and not seq.workers

    def test_disabled_sweep_returns_bare_results(self):
        assert not obs.enabled()
        assert map_ordered(_emitting_cell, [1, 2, 3], jobs=2) == [1, 4, 9]


# --------------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------------- #

def _sample_record():
    tel = obs.Telemetry("sample", meta={"jobs": 1})
    with obs.session(tel):
        with obs.span("sim.run", start=0.0):
            obs.counter("sim.events_fired", 10)
            obs.event(3.5, "fault", "node-crash", node=1)
        obs.observe("execution_time", 4.0)
        obs.observe("execution_time", 8.0)
        obs.gauge("env.makespan_s", 12.0)
    return tel.snapshot()


class TestExporters:
    def test_chrome_trace_is_valid(self):
        doc = obs.to_chrome_trace(_sample_record())
        assert obs.validate_chrome_trace(doc) == []
        phases = {ev["ph"] for ev in doc["traceEvents"]}
        assert {"X", "M", "C", "i"} <= phases

    def test_sim_events_live_on_their_own_pid(self):
        doc = obs.to_chrome_trace(_sample_record())
        instants = [ev for ev in doc["traceEvents"] if ev["ph"] == "i"]
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert instants[0]["ts"] == pytest.approx(3.5e6)
        assert {ev["pid"] for ev in instants}.isdisjoint({ev["pid"] for ev in spans})

    def test_validator_flags_malformed_documents(self):
        assert obs.validate_chrome_trace([]) == ["top level is not an object"]
        assert obs.validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        problems = obs.validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "a"}]})
        assert any("missing" in p for p in problems)

    def test_run_dir_round_trip(self, tmp_path):
        rec = _sample_record()
        paths = write_run_dir(rec, str(tmp_path / "run"))
        assert sorted(os.listdir(tmp_path / "run")) == ["run.json", "trace.json"]
        assert obs.load_run_dir(str(tmp_path / "run")) == rec
        assert obs.validate_chrome_trace(json.load(open(paths["trace"]))) == []

    def test_load_accepts_run_json_path(self, tmp_path):
        paths = write_run_dir(_sample_record(), str(tmp_path))
        assert obs.load_run_dir(paths["run"]).run_id == "sample"


# --------------------------------------------------------------------------- #
# the CLI
# --------------------------------------------------------------------------- #

class TestCli:
    @pytest.fixture
    def run_dir(self, tmp_path):
        parent = obs.Telemetry("cli-test", meta={"jobs": 2})
        parent.merge(_child_record(), scope="fig05")
        write_run_dir(parent.snapshot(), str(tmp_path))
        return str(tmp_path)

    def test_summary(self, run_dir, capsys):
        from repro.obs.cli import main

        assert main(["summary", run_dir]) == 0
        out = capsys.readouterr().out
        assert "run 'cli-test'" in out
        assert "fig05" in out and "done" in out
        assert "work" in out  # span rollup

    def test_trace_check(self, run_dir, capsys):
        from repro.obs.cli import main

        assert main(["trace", run_dir, "--check"]) == 0
        assert "trace OK" in capsys.readouterr().out

    def test_top(self, run_dir, capsys):
        from repro.obs.cli import main

        assert main(["top", run_dir, "-n", "3"]) == 0
        assert "work" in capsys.readouterr().out

    def test_missing_run_dir_is_a_clean_error(self, tmp_path):
        from repro.obs.cli import main

        with pytest.raises(SystemExit, match="run.json"):
            main(["trace", str(tmp_path / "nope")])

    def test_summary_carries_every_metric(self, tmp_path, capsys):
        # every counter, gauge, histogram count/p50/p95/p99 and ledger
        # total of the record reaches both the --json document and the
        # text summary printed from it
        from repro.obs.cli import main
        from repro.obs.exporters import percentile
        from repro.obs.insight import tier_label

        child = obs.Telemetry("child")
        with obs.session(child):
            obs.counter("task.completed", 3, wclass="DM")
            obs.gauge("env.makespan_s", 12.5, env="IMME")
            for v in (4.0, 8.0, 1.0, 30.0):
                obs.observe("execution_time", v)
        parent = obs.Telemetry("rich")
        parent.merge(child.snapshot(), scope="fig05")
        with obs.session(parent):
            obs.counter("cache.hits", 2)
            obs.gauge("pool.jobs", 2.0)
            obs.observe("queue_wait", 0.25)
        rec, ins = parent.snapshot(), _insight_record().snapshot()
        write_run_dir(rec, str(tmp_path), ins)

        def keyed(values):
            for key, value in values.items():
                name, labels = split_label(key)
                exp = labels.pop("exp", "-")
                label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                yield exp, name, label_str or "-", value

        counters, gauges = list(keyed(rec.counters)), list(keyed(rec.gauges))
        hists = [
            (name, len(vals), *(percentile(vals, q) for q in (50, 95, 99)))
            for name, vals in rec.histograms.items()
        ]
        ledger = [
            (kind, cause, tier_label(src), tier_label(dst), *totals)
            for (kind, cause, src, dst), totals in ins.totals.items()
        ]
        assert len(counters) == 2 and len(gauges) == 2 and len(hists) == 2

        assert main(["summary", str(tmp_path), "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        assert sorted(counters) == sorted(
            (r["experiment"], r["counter"], r["labels"], r["total"]) for r in doc["counters"]
        )
        assert sorted(gauges) == sorted(
            (r["experiment"], r["gauge"], r["labels"], r["value"]) for r in doc["gauges"]
        )
        assert sorted(hists) == sorted(
            (r["histogram"], r["count"], r["p50"], r["p95"], r["p99"])
            for r in doc["histograms"]
        )
        assert sorted(ledger) == sorted(
            tuple(r[f] for f in ("kind", "cause", "src", "dst", "entries", "chunks", "bytes"))
            for r in doc["insight"]["ledger"]
        )

        assert main(["summary", str(tmp_path)]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]

        def printed(*cells):
            return any(all(str(c) in line for c in cells) for line in lines)

        for exp, name, labels, total in counters:
            assert printed(exp, name, labels, total)
        for exp, name, labels, value in gauges:
            assert printed(exp, name, labels, f"{value:.4f}")
        for name, n, *qs in hists:
            assert printed(name, n, *(f"{q:.3f}" for q in qs))
        for row in ledger:
            assert printed(*row)

    def test_summary_percentiles_match_the_scenario_table(self, tmp_path, capsys):
        # both read the run's execution times through the one percentile
        from repro.obs.cli import main
        from repro.scenarios import run_scenario
        from repro.scenarios.registry import scenario

        tel = obs.Telemetry("fig05")
        with obs.session(tel):
            out = run_scenario(scenario("fig05/IMME"))
        write_run_dir(tel.snapshot(), str(tmp_path))
        assert main(["summary", str(tmp_path), "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        (row,) = [r for r in doc["histograms"] if r["histogram"] == "execution_time"]
        assert row["count"] == out.completed
        assert [row[f"p{q}"] for q in (50, 95, 99)] == [
            out.percentile("execution_time", q) for q in (50, 95, 99)
        ]


class TestRecordSize:
    def test_spans_do_not_grow_with_daemon_ticks(self):
        # spans wrap drains and sweep cells, not per-tick work, so a
        # telemetry-on scenario records fewer spans than daemon ticks
        from repro.scenarios import realize
        from repro.scenarios.registry import scenario

        tel = obs.Telemetry("ticks")
        with obs.session(tel):
            realized = realize(scenario("ext-colocation/containerized"))
            realized.execute()
        ticks = realized.env.ticker.ticks
        assert ticks > 0
        assert len(tel.snapshot().spans) < ticks


# --------------------------------------------------------------------------- #
# latency percentiles (MetricsRegistry satellite)
# --------------------------------------------------------------------------- #

def _registry_with_tasks():
    reg = MetricsRegistry()
    for i in range(10):
        tm = reg.task(f"t{i}", wclass="DL" if i % 2 else "SC")
        tm.submitted_at = 0.0
        tm.scheduled_at = float(i)          # queue_wait = i
        tm.container_ready_at = float(i) + 1.0  # startup_time = 1
        tm.started_at = tm.container_ready_at
        tm.finished_at = tm.started_at + 10.0 + i  # execution_time = 10 + i
    return reg


class TestLatencyPercentiles:
    def test_percentiles_per_class_and_overall(self):
        reg = _registry_with_tasks()
        p50, p95, p99 = reg.percentiles("startup_time")
        assert p50 == p95 == p99 == 1.0
        all_p50, _, all_p99 = reg.percentiles("queue_wait")
        assert all_p50 == 4.5 and all_p99 > all_p50
        dl_p50 = reg.percentiles("execution_time", "DL")[0]
        sc_p50 = reg.percentiles("execution_time", "SC")[0]
        assert dl_p50 != sc_p50

    def test_unknown_metric_rejected(self):
        with pytest.raises(Exception, match="unknown latency metric"):
            _registry_with_tasks().percentiles("nope")

    def test_percentile_rows_include_all_rollup(self):
        reg = _registry_with_tasks()
        rows = reg.percentile_rows()
        classes = {r[0] for r in rows}
        assert classes == {"DL", "SC", "ALL"}
        assert len(rows) == 3 * len(MetricsRegistry.LATENCY_METRICS)

    def test_to_table_renders(self):
        table = _registry_with_tasks().to_table()
        assert "per-class latency percentiles" in table
        assert "execution_time" in table

    def test_scenario_outcome_percentile_lookup(self):
        from repro.scenarios.build import ScenarioOutcome

        out = ScenarioOutcome(
            scenario="s", digest="d", seed=0, makespan=1.0, completed=1,
            failed=0, mean_startup=0.0,
            latency_percentiles=(("execution_time", 1.0, 2.0, 3.0),),
        )
        assert out.percentile("execution_time", 95) == 2.0
        assert math.isnan(out.percentile("queue_wait", 50))  # pre-1.4 outcomes


# --------------------------------------------------------------------------- #
# nearest-rank percentile helper (shared by exporters and the CLI)
# --------------------------------------------------------------------------- #

class TestPercentileHelper:
    def test_empty_is_zero(self):
        from repro.obs.exporters import percentile

        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_singleton_is_the_value(self):
        from repro.obs.exporters import percentile

        assert percentile([7.5], 0) == 7.5
        assert percentile([7.5], 50) == 7.5
        assert percentile([7.5], 100) == 7.5

    def test_nearest_rank(self):
        from repro.obs.exporters import percentile

        values = [5.0, 1.0, 3.0, 2.0, 4.0]  # sorts before ranking
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 75) == 4.0
        assert percentile(values, 100) == 5.0

    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_equals_numpy_linear(self, values, q):
        import numpy as np

        from repro.obs.exporters import percentile

        with np.errstate(all="ignore"):  # b - a may overflow, in both
            want = float(np.percentile(np.asarray(values, dtype=float), q))
        got = percentile(values, q)
        assert got == want or (math.isnan(got) and math.isnan(want))


# --------------------------------------------------------------------------- #
# insight plane: exporters, counter tracks, and fork-merge parity
# --------------------------------------------------------------------------- #

def _insight_record():
    import numpy as np
    from repro.obs import insight as _insight

    ins = _insight.Insight("obs-insight")
    for i in range(4):
        with ins.cause("reactive"):
            ins.migration(float(i), "n0", f"t{i}", 2, 0, 1, 4096)
        ins.sample(
            float(i), "n0",
            np.array([100 + i, 50, 25, 0], dtype=np.int64),
            np.array([900 - i, 950, 975, 1000], dtype=np.int64),
            0.1 * i, [0.1, 0.5, 0.9],
        )
    return ins


class TestInsightExport:
    def test_run_dir_includes_insight_artifacts(self, tmp_path):
        from repro.obs.exporters import load_insight_record

        ins = _insight_record()
        paths = write_run_dir(_sample_record(), str(tmp_path), ins.snapshot())
        assert sorted(paths) == ["insight", "run", "trace"]
        assert sorted(os.listdir(tmp_path)) == ["insight.json", "run.json", "trace.json"]
        assert load_insight_record(str(tmp_path)) == ins.snapshot()

    def test_run_dir_holds_what_the_stream_encoder_wrote(self, tmp_path):
        """``write_run_dir`` encodes in C, and ``to_dict`` builds no deep
        copy; the bytes are still what ``json.dump`` writes for the same
        documents (``dataclasses.asdict`` for the run record)."""
        import dataclasses
        import io

        rec, ins = _sample_record(), _insight_record().snapshot()
        paths = write_run_dir(rec, str(tmp_path), ins)
        for name, doc in (
            ("run", dataclasses.asdict(rec)),
            ("trace", obs.to_chrome_trace(rec, ins)),
            ("insight", ins.to_dict()),
        ):
            want = io.StringIO()
            json.dump(doc, want, default=str)
            with open(paths[name]) as fh:
                assert fh.read() == want.getvalue(), name

    def test_counter_tracks_are_valid_and_monotonic(self):
        doc = obs.to_chrome_trace(_sample_record(), _insight_record().snapshot())
        assert obs.validate_chrome_trace(doc) == []
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        names = {ev["name"] for ev in counters}
        assert {"tier.occupancy.n0", "tier.stall.n0", "tier.temp.n0"} <= names

    def test_validator_rejects_non_monotonic_counters(self):
        doc = obs.to_chrome_trace(_sample_record(), _insight_record().snapshot())
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        counters[-1]["ts"] = -1.0  # out of order within its track
        problems = obs.validate_chrome_trace(doc)
        assert any("monotonic" in p for p in problems)

    def test_validator_rejects_malformed_counter_args(self):
        doc = obs.to_chrome_trace(_sample_record(), _insight_record().snapshot())
        counters = [ev for ev in doc["traceEvents"] if ev["ph"] == "C"]
        counters[0]["args"] = {}
        counters[1]["args"] = {"v": "not-a-number"}
        problems = obs.validate_chrome_trace(doc)
        assert any("non-empty object" in p for p in problems)
        assert any("not numeric" in p for p in problems)


def _insight_cell(i):
    """Top-level so the pool can pickle it; one migration + one sample."""
    import numpy as np
    from repro.obs import insight as _insight

    ins = _insight.active()
    with _insight.cause("reactive"):
        ins.migration(float(i), f"n{i % 2}", f"t{i}", 2, 0, 1, 1024)
    ins.sample(
        float(i), f"n{i % 2}",
        np.array([i, 0, 0, 0], dtype=np.int64),
        np.array([100, 100, 100, 100], dtype=np.int64),
        0.0, [0.1, 0.5, 0.9],
    )
    return i * i


def _run_insight_sweep(jobs):
    from repro.obs import insight as _insight

    ins = _insight.Insight("sweep-insight")
    with obs.session(insight=ins):
        results = map_ordered(_insight_cell, list(range(8)), jobs=jobs)
    return results, ins.snapshot()


@pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
class TestInsightMergeUnderFork:
    def test_forked_sweep_matches_sequential(self):
        seq_results, seq = _run_insight_sweep(jobs=1)
        par_results, par = _run_insight_sweep(jobs=3)
        assert par_results == seq_results == [i * i for i in range(8)]
        assert par.totals == seq.totals
        assert par.entries == seq.entries  # merged in input order
        assert sorted(par.series) == sorted(seq.series) == ["n0", "n1"]
        for node in seq.series:
            for name, arr in seq.series[node].items():
                import numpy as np

                assert np.array_equal(par.series[node][name], arr)
        assert par.samples_seen == seq.samples_seen
        assert par.workers and not seq.workers

    def test_disabled_sweep_returns_bare_results(self):
        from repro.obs import insight as _insight

        assert not _insight.enabled()
        assert map_ordered(_insight_cell, [1, 2, 3], jobs=2) == [1, 4, 9]


def _staggered_cell(i):
    """Later inputs finish first; records telemetry and one ledger entry."""
    from repro.obs import insight as _insight

    time.sleep(0.05 * (5 - i))
    obs.observe("cell_value", float(i))
    obs.event(float(i), "cell", f"c{i}", index=i)
    with _insight.cause("reactive"):
        _insight.active().migration(float(i), "n0", f"t{i}", 2, 0, 1, 1024)
    return i


def _run_staggered(jobs):
    from repro.obs import insight as _insight

    tel, ins = obs.Telemetry("staggered"), _insight.Insight("staggered")
    with obs.session(tel, insight=ins):
        sup = supervised_map(_staggered_cell, list(range(6)), jobs=jobs)
    return sup.results, tel.snapshot(), ins.snapshot()


@pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
class TestForwardedRecordsInInputOrder:
    def test_completion_order_does_not_leak_into_the_merge(self):
        seq_results, seq_tel, seq_ins = _run_staggered(jobs=1)
        par_results, par_tel, par_ins = _run_staggered(jobs=3)
        assert par_results == seq_results == list(range(6))
        assert seq_tel.histograms == {"cell_value": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}
        assert par_tel.histograms == seq_tel.histograms
        strip = lambda evs: [{k: v for k, v in e.items() if k != "worker"} for e in evs]
        assert strip(par_tel.events) == strip(seq_tel.events)
        assert [e[0] for e in seq_ins.entries] == [float(i) for i in range(6)]
        assert par_ins.entries == seq_ins.entries
