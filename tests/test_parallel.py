"""Parallel sweep layer: executor contract, SweepSpec seed derivation,
and determinism of parallel vs sequential experiment runs."""

import os
import signal
import subprocess
import sys

import pytest

import repro
from repro.experiments.common import SweepSpec, sweep
from repro.experiments.runner import run_all
from repro.parallel import (
    available_parallelism,
    map_ordered,
    resolve_jobs,
    supports_fork,
)
from repro.util.rng import derive_seed

#: fast experiments used for whole-suite determinism checks
FAST_SUBSET = ["validation", "cold-pages"]


def square(x):
    return x * x


def whoami(_):
    return os.getpid()


def boom(x):
    raise ValueError(f"cell {x} exploded")


def seeded_draw(seed: int, scale: float = 1.0):
    import numpy as np

    return float(np.random.default_rng(seed).random()) * scale


class TestExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == available_parallelism()
        assert resolve_jobs(-1) == available_parallelism()

    def test_map_ordered_sequential(self):
        assert map_ordered(square, [3, 1, 2], jobs=1) == [9, 1, 4]

    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_map_ordered_parallel_preserves_order(self):
        assert map_ordered(square, list(range(20)), jobs=4) == [i * i for i in range(20)]

    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_parallel_runs_in_worker_processes(self):
        pids = map_ordered(whoami, [0, 1, 2, 3], jobs=2)
        assert os.getpid() not in pids

    def test_single_item_stays_in_process(self):
        assert map_ordered(whoami, [0], jobs=8) == [os.getpid()]

    def test_empty_items(self):
        assert map_ordered(square, [], jobs=4) == []

    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            map_ordered(boom, [1, 2, 3], jobs=2)

    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_raising_cell_reaps_the_pool(self):
        import multiprocessing
        import time

        with pytest.raises(ValueError, match="exploded"):
            map_ordered(boom, list(range(8)), jobs=2)
        # the terminate-on-error path must leave no live workers behind
        deadline = time.monotonic() + 10
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert multiprocessing.active_children() == []


#: a cell whose worker dies, run through map_ordered or sweep at jobs=2;
#: prints the SweepFailure's (key, kind) pairs
_DYING_SCRIPT = """
import os
import sys

from repro.experiments.common import SweepSpec, sweep
from repro.parallel import map_ordered
from repro.resilience import SweepFailure


def cell(x):
    if x == 2:
        os._exit(9)
    return x


spec = SweepSpec("dying", base_seed=0)
for x in range(4):
    spec.add(f"c{x}", cell, x=x)
try:
    if sys.argv[1] == "map":
        map_ordered(cell, [0, 1, 2, 3], jobs=2)
    else:
        sweep(spec, jobs=2)
except SweepFailure as exc:
    print("failed", [(f.key, f.kind) for f in exc.failures])
"""


def _run_dying(tmp_path, mode):
    """Run the dying-worker script in its own process group; a hang reads
    as a test failure after 60 s instead of wedging the suite."""
    script = tmp_path / "dying.py"
    script.write_text(_DYING_SCRIPT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, str(script), mode], env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{mode}: a dying worker hung the map")
    assert proc.returncode == 0, err
    return out


@pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
class TestDyingWorker:
    def test_map_ordered_raises_sweep_failure(self, tmp_path):
        assert "failed [('cell2', 'crash')]" in _run_dying(tmp_path, "map")

    def test_sweep_raises_sweep_failure_naming_the_cell(self, tmp_path):
        assert "failed [('c2', 'crash')]" in _run_dying(tmp_path, "sweep")


class TestSweepSpec:
    def test_cell_seed_is_stable_and_name_scoped(self):
        spec = SweepSpec("s", base_seed=7)
        assert spec.cell_seed("a") == derive_seed(7, "s/a")
        assert spec.cell_seed("a") == SweepSpec("s", base_seed=7).cell_seed("a")
        assert spec.cell_seed("a") != spec.cell_seed("b")
        assert spec.cell_seed("a") != SweepSpec("other", base_seed=7).cell_seed("a")

    def test_duplicate_keys_rejected(self):
        spec = SweepSpec("s")
        spec.add("a", square, x=1)
        with pytest.raises(Exception, match="duplicate"):
            spec.add("a", square, x=2)

    def test_add_seeded_injects_derived_seed(self):
        spec = SweepSpec("replicates", base_seed=3)
        for i in range(4):
            spec.add_seeded(f"r{i}", seeded_draw)
        results = sweep(spec)
        assert list(results) == [f"r{i}" for i in range(4)]
        assert len(set(results.values())) == 4  # distinct streams
        assert results == sweep(spec)  # and reproducible

    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_sweep_parallel_matches_sequential(self):
        spec = SweepSpec("replicates", base_seed=11)
        for i in range(6):
            spec.add_seeded(f"r{i}", seeded_draw, scale=2.0)
        assert sweep(spec, jobs=4) == sweep(spec, jobs=1)


class TestRunAllParallel:
    @pytest.mark.skipif(not supports_fork(), reason="no fork on this platform")
    def test_jobs4_matches_jobs1(self):
        # cache off: this asserts *live* parallel-vs-sequential determinism
        # (cache-on equivalence is covered by tests/test_cache.py)
        par = run_all(FAST_SUBSET, verbose=False, jobs=4, cache_dir=None)
        seq = run_all(FAST_SUBSET, verbose=False, jobs=1, cache_dir=None)
        assert list(par) == list(seq)
        for name in seq:
            assert par[name].xlabels == seq[name].xlabels
            assert par[name].series == seq[name].series
            assert par[name].notes == seq[name].notes
            assert par[name].to_table() == seq[name].to_table()

    def test_unknown_name_rejected_before_fanout(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_all(["fig99"], verbose=False, jobs=4)
