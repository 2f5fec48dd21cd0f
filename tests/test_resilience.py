"""Resilience layer: retry policy, crash-safe journal, supervised map,
invariant checker, and the fault edge cases the checker guards.

The supervised-map tests exercise real fork pools with really raising,
hanging, and dying workers; timings are kept tiny (millisecond backoffs,
sub-second deadlines) so the whole file stays fast.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import obs
from repro.parallel import map_ordered, supports_fork
from repro.resilience import (
    NULL_CHECKER,
    CellFailure,
    InvariantChecker,
    InvariantViolation,
    RetryPolicy,
    RunJournal,
    SweepFailure,
    failure_table,
    invariants,
    journal_path,
    supervised_map,
)
from repro.util.errors import ConfigurationError

from conftest import CHUNK, make_pageset, simple_task, small_specs

needs_fork = pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")

#: the two places a cell runs: in this process, and on a two-worker pool
WHERE = [
    pytest.param(None, id="inline"),
    pytest.param(2, id="forked", marks=needs_fork),
]

#: fast schedule for tests: millisecond backoffs instead of the defaults
FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.005, max_delay=0.01)
ONE_SHOT = RetryPolicy(max_attempts=1)


# --------------------------------------------------------------------------- #
# cell functions (module-level: shared by fork workers and the fallback loop)
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


def _stagger(x):
    # later cells finish *earlier*: completion order is reversed
    time.sleep(0.05 * (3 - x) if x < 3 else 0)
    return x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom three")
    return x + 10


def _hang_on_two(x):
    if x == 2:
        time.sleep(60)
    return x


def _die_on_two(x):
    if x == 2:
        os._exit(13)
    return x


def _interrupt_on_two(x):
    if x == 2:
        raise KeyboardInterrupt
    return x


def _flaky(arg):
    """Fails on the first attempt (marker file absent), succeeds after."""
    path, x = arg
    if not os.path.exists(path):
        open(path, "w").close()
        raise RuntimeError("transient failure")
    return x


# --------------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        p = RetryPolicy()
        assert p.delay("fig03", 1) == p.delay("fig03", 1)
        assert p.delay("fig03", 1) != p.delay("fig04", 1)  # per-cell jitter
        assert p.delay("fig03", 1) != p.delay("fig03", 2)

    def test_delay_grows_and_caps(self):
        p = RetryPolicy(base_delay=0.1, growth=2.0, max_delay=0.5, jitter=0.0)
        assert [p.delay("k", a) for a in (1, 2, 3, 4)] == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_bounds(self):
        p = RetryPolicy(base_delay=1.0, growth=1.0, max_delay=1.0, jitter=0.5)
        for key in ("a", "b", "c", "d"):
            assert 0.5 <= p.delay(key, 1) <= 1.5

    def test_exhausted(self):
        p = RetryPolicy(max_attempts=3)
        assert not p.exhausted(2)
        assert p.exhausted(3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)


# --------------------------------------------------------------------------- #
# journal
# --------------------------------------------------------------------------- #
class TestRunJournal:
    def test_roundtrip(self, tmp_path):
        path = journal_path(tmp_path)
        with RunJournal(path) as j:
            j.run_started("demo", ["a", "b", "c"])
            j.cell_started("a")
            j.cell_committed("a")
            j.cell_failed("b", "error", 1, "boom")
            j.cell_quarantined("b", "error", 2, "boom")
            j.run_completed(failures=1)
        state = RunJournal.load_state(path)
        assert state.committed == {"a"}
        assert state.quarantined == {"b"}
        assert state.completed and not state.interrupted
        assert state.runs == 1
        assert state.is_committed("a") and not state.is_committed("c")

    def test_missing_file_is_empty_state(self, tmp_path):
        state = RunJournal.load_state(tmp_path / "nope.jsonl")
        assert state.committed == set() and state.runs == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.run_started("demo", ["a"])
            j.cell_committed("a")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"t": 1.0, "ev": "cell-comm')  # the SIGKILL'd write
        state = RunJournal.load_state(path)
        assert state.committed == {"a"}
        assert len(state.records) == 2

    def test_commit_clears_earlier_quarantine(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.cell_quarantined("a", "error", 2)
            j.cell_committed("a")  # a later run succeeded
        state = RunJournal.load_state(path)
        assert state.committed == {"a"}
        assert state.quarantined == set()

    def test_interruption_is_visible(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.run_started("demo", ["a"])
            j.run_interrupted("SIGTERM", ["a"])
        assert RunJournal.load_state(path).interrupted

    def test_every_line_is_complete_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(path) as j:
            j.run_started("demo", ["a"])
            j.cell_committed("a", cached=True)
        for line in path.read_text().splitlines():
            entry = json.loads(line)
            assert "t" in entry and "ev" in entry


# --------------------------------------------------------------------------- #
# supervised map — happy path and the three failure modes
# --------------------------------------------------------------------------- #
class TestSupervisedMap:
    @needs_fork
    def test_ordered_results_across_pool(self):
        sup = supervised_map(_stagger, [0, 1, 2, 3, 4, 5], jobs=3)
        assert sup.ok
        assert sup.results == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("jobs", WHERE)
    def test_raising_cell_quarantined_others_survive(self, jobs):
        sup = supervised_map(
            _raise_on_three, [1, 2, 3, 4],
            keys=["c1", "c2", "c3", "c4"], jobs=jobs, retry=FAST_RETRY,
        )
        assert not sup.ok
        assert sup.results == [11, 12, None, 14]
        (failure,) = sup.failures
        assert failure.key == "c3"
        assert failure.kind == "error"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.error == "ValueError: boom three"
        assert isinstance(failure.exception, ValueError)
        # elapsed runs from the first attempt, so it spans the backoff
        assert failure.elapsed >= FAST_RETRY.delay("c3", 1)

    @needs_fork
    def test_hung_cell_times_out(self):
        t0 = time.monotonic()
        sup = supervised_map(
            _hang_on_two, [1, 2, 3],
            keys=["c1", "c2", "c3"], jobs=2, deadline=0.5, retry=ONE_SHOT,
        )
        assert time.monotonic() - t0 < 30  # never waits out the hang
        assert sup.results == [1, None, 3]
        (failure,) = sup.failures
        assert failure.key == "c2" and failure.kind == "timeout"

    @needs_fork
    def test_dead_worker_detected_and_pool_replenished(self):
        sup = supervised_map(
            _die_on_two, [1, 2, 3, 4, 5],
            keys=[f"c{i}" for i in (1, 2, 3, 4, 5)], jobs=2, retry=ONE_SHOT,
        )
        assert sup.results == [1, None, 3, 4, 5]  # the pool kept going
        (failure,) = sup.failures
        assert failure.key == "c2" and failure.kind == "crash"
        assert "exit code 13" in failure.error

    @needs_fork
    def test_transient_failure_retried_to_success(self, tmp_path):
        marker = tmp_path / "attempted"
        sup = supervised_map(
            _flaky, [(str(marker), 7)], keys=["c"], jobs=2, retry=FAST_RETRY,
        )
        assert sup.ok and sup.results == [7]

    def test_inline_failure_keeps_the_raised_object(self):
        class Local(Exception):  # a local class does not pickle
            pass

        raised = Local("boom")

        def raise_it(_x):
            raise raised

        sup = supervised_map(raise_it, [7], keys=["c"], retry=ONE_SHOT)
        (failure,) = sup.failures
        assert failure.exception is raised
        assert failure.error == "Local: boom"
        with pytest.raises(Local) as info:
            map_ordered(raise_it, [7, 8])
        assert info.value is raised

    def test_inline_retries_finish_before_the_next_cell(self, tmp_path):
        jpath = tmp_path / "journal.jsonl"
        with RunJournal(jpath) as journal:
            supervised_map(
                _raise_on_three, [3, 1], keys=["c3", "c1"], jobs=None,
                retry=FAST_RETRY, journal=journal,
            )
        records = RunJournal.load_state(jpath).records
        assert [(r["ev"], r["cell"]) for r in records] == [
            ("cell-started", "c3"), ("cell-failed", "c3"),
            ("cell-started", "c3"), ("cell-failed", "c3"),
            ("cell-quarantined", "c3"),
            ("cell-started", "c1"), ("cell-committed", "c1"),
        ]

    def test_inline_interrupt_propagates_and_is_journaled(self, tmp_path):
        jpath = tmp_path / "journal.jsonl"
        with RunJournal(jpath) as journal:
            with pytest.raises(KeyboardInterrupt):
                supervised_map(
                    _interrupt_on_two, [1, 2, 3, 4],
                    keys=["c1", "c2", "c3", "c4"], jobs=None,
                    retry=FAST_RETRY, journal=journal,
                )
        records = RunJournal.load_state(jpath).records
        assert [(r["ev"], r.get("cell")) for r in records] == [
            ("cell-started", "c1"),
            ("cell-committed", "c1"),
            ("cell-started", "c2"),
            ("run-interrupted", None),
        ]
        assert records[-1]["pending"] == ["c2", "c3", "c4"]
        assert records[-1]["reason"] == "SIGINT"

    def test_in_process_fallback_retries_and_quarantines(self, tmp_path):
        marker = tmp_path / "attempted"
        sup = supervised_map(
            _flaky, [(str(marker), 7)], keys=["ok"], jobs=None, retry=FAST_RETRY,
        )
        assert sup.ok and sup.results == [7]
        sup = supervised_map(
            _raise_on_three, [3], keys=["bad"], jobs=None, retry=FAST_RETRY,
        )
        assert sup.results == [None]
        assert sup.failures[0].kind == "error"

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            supervised_map(_square, [1, 2], keys=["same", "same"])

    def test_empty_items(self):
        sup = supervised_map(_square, [])
        assert sup.ok and sup.results == []


class _DictCache:
    """Minimal cache double honouring the ResultCache get/put protocol."""

    def __init__(self):
        self.data = {}
        self.puts = []

    def get(self, key):
        if key in self.data:
            return True, self.data[key]
        return False, None

    def put(self, key, value):
        self.data[key] = value
        self.puts.append(key)
        return True


class TestSupervisedMapJournalAndCache:
    def test_cache_hits_skip_dispatch(self, tmp_path):
        cache = _DictCache()
        cache.data["k2"] = 999  # pre-committed cell
        jpath = tmp_path / "journal.jsonl"
        with RunJournal(jpath) as journal:
            sup = supervised_map(
                _square, [1, 2, 3], keys=["c1", "c2", "c3"], jobs=None,
                journal=journal, cache=cache, cache_key=lambda x: f"k{x}",
            )
        assert sup.ok
        assert sup.results == [1, 999, 9]  # the hit was served, not computed
        assert sorted(cache.puts) == ["k1", "k3"]
        records = RunJournal.load_state(jpath).records
        cached = [r["cell"] for r in records if r["ev"] == "cell-committed" and r["cached"]]
        live = [r["cell"] for r in records if r["ev"] == "cell-committed" and not r["cached"]]
        assert cached == ["c2"]
        assert sorted(live) == ["c1", "c3"]

    @pytest.mark.parametrize("jobs", WHERE)
    def test_journal_records_full_lifecycle(self, tmp_path, jobs):
        jpath = tmp_path / "journal.jsonl"
        with RunJournal(jpath) as journal:
            journal.run_started("demo", ["c1", "c3"])
            sup = supervised_map(
                _raise_on_three, [1, 3], keys=["c1", "c3"], jobs=jobs,
                retry=FAST_RETRY, journal=journal,
            )
            journal.run_completed(failures=len(sup.failures))
        state = RunJournal.load_state(jpath)
        assert state.committed == {"c1"}
        assert state.quarantined == {"c3"}
        assert state.completed
        events = [r["ev"] for r in state.records]
        assert events.count("cell-failed") == FAST_RETRY.max_attempts
        assert events[0] == "run-started" and events[-1] == "run-completed"
        # the same records wherever the cells ran (pool order may differ)
        assert sorted(
            (r["ev"], r.get("cell", ""), r.get("attempt", r.get("attempts", 0)))
            for r in state.records
        ) == sorted([
            ("run-started", "", 0),
            ("cell-started", "c1", 1),
            ("cell-committed", "c1", 0),
            ("cell-started", "c3", 1),
            ("cell-failed", "c3", 1),
            ("cell-started", "c3", 2),
            ("cell-failed", "c3", 2),
            ("cell-quarantined", "c3", 2),
            ("run-completed", "", 0),
        ])
        (failure,) = sup.failures
        assert (failure.key, failure.kind, failure.attempts, failure.error) == (
            "c3", "error", 2, "ValueError: boom three"
        )


# --------------------------------------------------------------------------- #
# failure records and the sweep() integration
# --------------------------------------------------------------------------- #
class TestFailureReporting:
    def test_describe_and_table(self):
        failures = [
            CellFailure(key="fig03", kind="timeout", attempts=3, error="too slow"),
            CellFailure(key="fig07", kind="crash", attempts=1),
        ]
        assert "fig03: timeout after 3 attempt(s) — too slow" == failures[0].describe()
        table = failure_table(failures)
        assert "fig03" in table and "fig07" in table and "quarantined" in table

    def test_sweep_failure_carries_results(self):
        exc = SweepFailure(
            [CellFailure(key="bad", kind="error", attempts=2)],
            results={"good": 1.0},
        )
        assert "bad" in str(exc)
        assert exc.results == {"good": 1.0}

    def test_sweep_without_knobs_still_raises_plainly(self):
        # one attempt per cell: the first error propagates as-is
        from repro.experiments.common import SweepSpec, sweep

        spec = SweepSpec("plain", base_seed=3)
        spec.add("bad", _raise_on_three, x=3)
        with pytest.raises(ValueError, match="boom three"):
            sweep(spec)


# --------------------------------------------------------------------------- #
# invariant checker
# --------------------------------------------------------------------------- #
class TestInvariantChecker:
    def test_null_checker_is_free_and_inert(self):
        assert not NULL_CHECKER.enabled
        NULL_CHECKER.conservation("n0", 1, 999, op="nonsense")  # no-op
        assert invariants.active() is NULL_CHECKER
        assert not invariants.enabled()

    def test_session_installs_and_restores(self):
        checker = InvariantChecker()
        with obs.session(checker=checker) as run:
            assert run.checker is checker
            assert invariants.active() is checker
            assert invariants.enabled()
        assert invariants.active() is NULL_CHECKER

    def test_conservation_violation_raises(self):
        checker = InvariantChecker()
        checker.conservation("n0", 100, 100, op="migrate")  # fine
        with pytest.raises(InvariantViolation, match="not conserved"):
            checker.conservation("n0", 100, 164, op="migrate")

    def test_non_strict_collects_instead(self):
        checker = InvariantChecker(strict=False)
        checker.conservation("n0", 100, 164, op="migrate")
        checker.conservation("n0", 100, 100, op="migrate", delta=64)
        assert len(checker.violations) == 2
        assert checker.checks == 2

    def test_engine_drift_detected(self, engine):
        engine.schedule(1.0, lambda: None)
        checker = InvariantChecker()
        checker.engine(engine)  # consistent
        engine._live += 1  # seeded accounting bug
        with pytest.raises(InvariantViolation, match="event-heap drift"):
            checker.engine(engine)

    def test_metrics_inconsistency_detected(self):
        from repro.metrics.collector import TaskMetrics

        class _Reg:
            def tasks(self):
                return [TaskMetrics(owner="t0", failed=True, finished_at=None)]

        with pytest.raises(InvariantViolation, match="no finish time"):
            InvariantChecker().metrics(_Reg())

    def test_memory_accounting_bug_detected(self, node):
        from repro.memory.tiers import PMEM

        ps = make_pageset(node, "a", CHUNK * 4)
        node.place(ps, np.arange(ps.n_chunks), PMEM)
        checker = InvariantChecker()
        checker.memory(node)  # consistent
        node._used[int(PMEM)] += CHUNK  # seeded leak: bytes with no pages
        with pytest.raises(InvariantViolation, match="memory accounting"):
            checker.memory(node)

    def test_checked_migration_is_conserving(self, node):
        from repro.memory.tiers import CXL, PMEM

        ps = make_pageset(node, "a", CHUNK * 4)
        with obs.session(checker=InvariantChecker()):
            node.place(ps, np.arange(ps.n_chunks), PMEM)
            node.migrate(ps, np.arange(2), CXL)
            evacuated, stranded = node.offline_tier(PMEM)
        assert evacuated == CHUNK * 2 and stranded == {}
        node.validate()

    def test_offline_tier_catches_seeded_leak(self, node):
        from repro.memory.tiers import CXL, PMEM

        ps = make_pageset(node, "a", CHUNK * 4)
        node.place(ps, np.arange(ps.n_chunks), PMEM)
        node._used[int(CXL)] += CHUNK  # seeded leak, invisible until checked
        with obs.session(checker=InvariantChecker()):
            with pytest.raises(InvariantViolation):
                node.offline_tier(PMEM)


# --------------------------------------------------------------------------- #
# fault edge cases under the checker (regression tests for the injector)
# --------------------------------------------------------------------------- #
class TestFaultEdgeCases:
    def test_tier_offline_same_tick_as_node_crash(self, engine, metrics):
        from test_faults import make_cluster, task_with_image

        from repro.faults import FaultInjector, FaultKind, FaultSchedule, FaultSpec
        from repro.memory.tiers import PMEM
        from repro.scheduler.job import JobState

        scheduler, agents, containers = make_cluster(engine, metrics, n_nodes=2)
        job = scheduler.submit(task_with_image("t0", base_time=30.0))
        # both faults land on the same node in the same injector tick: the
        # crash runs first, then the tier fault hits an already-down node
        schedule = FaultSchedule([
            FaultSpec(FaultKind.NODE_CRASH, time=3.0, node=0, duration=5.0),
            FaultSpec(FaultKind.TIER_OFFLINE, time=3.0, node=0, tier=PMEM,
                      duration=5.0),
        ])
        injector = FaultInjector(engine, agents, scheduler, containers,
                                 metrics, schedule)
        injector.start()
        checker = InvariantChecker()
        with obs.session(checker=checker):
            scheduler.run_to_completion(max_time=1e5)
        assert checker.violations == []
        assert checker.checks > 0
        assert job.state is JobState.DONE
        for agent in agents:
            agent.memory.validate()

    def test_oom_during_tier_evacuation(self, engine, metrics):
        from test_faults import make_agent, oom_prone_task

        from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
        from repro.policies.linux import LinuxSwapPolicy

        agent = make_agent(engine, metrics, policy=LinuxSwapPolicy())
        agent.start_task(oom_prone_task("t0"))
        checker = InvariantChecker()
        with obs.session(checker=checker):
            engine.run(until=1.0)
            # yank DRAM out from under the capped task mid-run: its pages
            # evacuate, then the dynamic growth trips the cgroup
            agent.handle_tier_offline(DRAM)
            engine.run(until=1e4)
        assert checker.violations == [] and checker.checks > 0
        tm = metrics.get("t0")
        assert tm.failed  # the cap held even with DRAM gone
        agent.memory.validate()
        assert agent.memory.rss(DRAM) == 0


# --------------------------------------------------------------------------- #
# SIGKILL, then the same command again (end-to-end, out of process)
# --------------------------------------------------------------------------- #
_KILL_SCRIPT = """\
import os, sys, time

from repro.cache.keys import cell_keys
from repro.cache.store import ResultCache
from repro.resilience import RetryPolicy, RunJournal, journal_path, supervised_map

ROOT = sys.argv[1]
FAST = os.path.join(ROOT, "fast")  # present on the re-run


def cell(x):
    if x != 1 and not os.path.exists(FAST):
        time.sleep(300)  # "mid-flight" when the parent is SIGKILL'd
    # one write per line: print() writes the text and the newline
    # separately when unbuffered, and the two workers' lines interleave
    sys.stdout.write(f"executed {x}\\n")
    sys.stdout.flush()
    return x * x


cache = ResultCache(os.path.join(ROOT, "cache"))
jpath = journal_path(cache.root)
items = [1, 2, 3]
keys = [f"c{x}" for x in items]
with RunJournal(jpath) as journal:
    journal.run_started("kill-test", keys)
    sup = supervised_map(
        cell, items, keys=keys, jobs=2,
        retry=RetryPolicy(max_attempts=1),
        journal=journal, cache=cache,
        cache_key=lambda x: cell_keys(cell, {"x": x}, seed=x),
    )
    journal.run_completed(failures=len(sup.failures))
print("results", sup.results, flush=True)
"""


@needs_fork
def test_sigkill_then_resume_executes_only_uncommitted(tmp_path):
    script = tmp_path / "kill_script.py"
    script.write_text(_KILL_SCRIPT)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"  # the condition under which print() interleaved
    jpath = tmp_path / "cache" / "journal.jsonl"

    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if jpath.exists() and "c1" in RunJournal.load_state(jpath).committed:
                break
            time.sleep(0.02)
        else:
            pytest.fail("first cell never committed")
    finally:
        # kill the whole group: the supervisor AND its sleeping workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

    state = RunJournal.load_state(jpath)
    assert state.committed == {"c1"}
    assert not state.completed  # the kill really interrupted the run

    (tmp_path / "fast").write_text("")  # let the remaining cells run quickly
    done = subprocess.run(
        [sys.executable, str(script), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    executed = sorted(
        int(line.split()[1]) for line in done.stdout.splitlines()
        if line.startswith("executed ")
    )
    assert executed == [2, 3]  # c1 came back from the cache, byte-identical
    assert "results [1, 4, 9]" in done.stdout
    state = RunJournal.load_state(jpath)
    assert state.committed == {"c1", "c2", "c3"}
    assert state.completed
