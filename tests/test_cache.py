"""Content-addressed sweep-cell cache: key sensitivity, fingerprints,
store robustness, and end-to-end warm-run equivalence."""

import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.cache import (
    CacheKey,
    CacheKeyError,
    ResultCache,
    canonicalize,
    cell_keys,
    clear_fingerprint_caches,
    code_fingerprint,
)
from repro.experiments.common import SweepSpec, cell_cache_key, sweep
from repro.experiments.runner import run_all
from repro.util.units import KiB
from repro.workflows.task import WorkloadClass


def seeded_cell(seed: int, scale: float = 1.0):
    return float(np.random.default_rng(seed).random()) * scale


def array_cell(seed: int):
    rng = np.random.default_rng(seed)
    return {
        "f32": rng.random(5, dtype=np.float32),
        "i16": np.arange(4, dtype=np.int16),
        "scalar": np.float64(seed),
        "pair": (seed, float(seed)),
    }


class TestCanonicalize:
    def test_plain_values_are_distinct_and_stable(self):
        assert canonicalize(1) != canonicalize(1.0)
        assert canonicalize("a") != canonicalize("b")
        assert canonicalize((1, 2)) != canonicalize([1, 2])
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_enum_and_class_keyed_dicts(self):
        mix = {WorkloadClass.DL: 2, WorkloadClass.DM: 3}
        assert canonicalize(mix) == canonicalize(dict(reversed(mix.items())))
        assert "WorkloadClass.DL" in canonicalize(WorkloadClass.DL)

    def test_numpy_values(self):
        assert canonicalize(np.float64(2.5)) != canonicalize(2.5)
        a = np.arange(3, dtype=np.int32)
        assert canonicalize(a) == canonicalize(a.copy())
        assert canonicalize(a) != canonicalize(a.astype(np.int64))

    def test_unstable_values_rejected(self):
        with pytest.raises(CacheKeyError):
            canonicalize(object())
        with pytest.raises(CacheKeyError):
            canonicalize(lambda: None)


class TestKeySensitivity:
    KW = {"kind": "IMME", "scale": 1 / 64, "mix": {WorkloadClass.DL: 2}}

    def test_identical_inputs_identical_keys(self):
        a = cell_keys(seeded_cell, self.KW, seed=7)
        b = cell_keys(seeded_cell, dict(self.KW), seed=7)
        assert a == b

    def test_seed_changes_key(self):
        a = cell_keys(seeded_cell, self.KW, seed=7)
        b = cell_keys(seeded_cell, self.KW, seed=8)
        assert a.cell_id != b.cell_id

    def test_any_kwarg_changes_key(self):
        base = cell_keys(seeded_cell, self.KW, seed=7)
        for name, value in [
            ("kind", "TME"),
            ("scale", 1 / 128),
            ("mix", {WorkloadClass.DL: 3}),
        ]:
            changed = cell_keys(seeded_cell, {**self.KW, name: value}, seed=7)
            assert changed.cell_id != base.cell_id, name

    def test_function_identity_changes_key(self):
        a = cell_keys(seeded_cell, {}, seed=7)
        b = cell_keys(array_cell, {}, seed=7)
        assert a.cell_id != b.cell_id

    def test_version_changes_content_key_only(self, monkeypatch):
        a = cell_keys(seeded_cell, self.KW, seed=7)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        b = cell_keys(seeded_cell, self.KW, seed=7)
        assert a.cell_id == b.cell_id
        assert a.content_key != b.content_key

    @pytest.mark.parametrize(
        "module, name, value",
        [(np, "__version__", "0.0.1"), (sys, "version_info", (2, 7, 18, "final", 0))],
        ids=["numpy", "python"],
    )
    def test_dependency_versions_change_content_key_only(self, monkeypatch, module, name, value):
        a = cell_keys(seeded_cell, self.KW, seed=7)
        monkeypatch.setattr(module, name, value)
        b = cell_keys(seeded_cell, self.KW, seed=7)
        assert a.cell_id == b.cell_id
        assert a.content_key != b.content_key


@pytest.fixture
def fake_pkg(tmp_path, monkeypatch):
    """A throwaway package: alpha imports beta; gamma stands alone."""
    root = tmp_path / "fakepkg_cache_test"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "alpha.py").write_text(
        textwrap.dedent(
            """
            from .beta import helper

            def cell(x):
                return helper(x)
            """
        )
    )
    (root / "beta.py").write_text("def helper(x):\n    return x + 1\n")
    (root / "gamma.py").write_text("UNRELATED = True\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    clear_fingerprint_caches()
    yield root
    clear_fingerprint_caches()
    for mod in [m for m in sys.modules if m.startswith("fakepkg_cache_test")]:
        del sys.modules[mod]


#: the throwaway package's name, and the module its cell lives in
FAKE_PKG = "fakepkg_cache_test"
ALPHA = f"{FAKE_PKG}.alpha"


def fresh_fingerprint(modname: str = ALPHA, root: str = FAKE_PKG):
    clear_fingerprint_caches()
    return code_fingerprint(modname, root=root)


#: one Fig. 10 sweep cell's key, as the harness derives it
FIG10_CELL_KEY = """
from repro.experiments.common import SweepSpec, cell_cache_key
from repro.experiments.fig10_scalability import _fig10_cell
from repro.scenarios.paper import fig10_family

spec = SweepSpec("fig10", base_seed=0)
spec.add_scenario(_fig10_cell, fig10_family(total_instances=16, node_counts=(1,)).scenarios[0])
key = cell_cache_key(spec, spec.cells[0])
"""


class TestFingerprint:
    def test_editing_imported_module_changes_fingerprint(self, fake_pkg):
        before = fresh_fingerprint()
        (fake_pkg / "beta.py").write_text("def helper(x):\n    return x + 2\n")
        assert fresh_fingerprint() != before

    def test_editing_an_unimported_module_changes_fingerprint(self, fake_pkg):
        before = fresh_fingerprint()
        (fake_pkg / "gamma.py").write_text("UNRELATED = False\n")
        assert fresh_fingerprint() != before

    def test_editing_the_package_init_changes_fingerprint(self, fake_pkg):
        before = fresh_fingerprint()
        (fake_pkg / "__init__.py").write_text("LOADED = True\n")
        assert fresh_fingerprint() != before

    def test_only_package_source_files_count(self, fake_pkg):
        before = fresh_fingerprint()
        (fake_pkg / "__pycache__").mkdir()
        (fake_pkg / "__pycache__" / "alpha.cpython-311.pyc").write_bytes(b"\0" * 16)
        (fake_pkg / "__pycache__" / "stale.py").write_text("STALE = True\n")
        (fake_pkg / "notes.txt").write_text("not source\n")
        assert fresh_fingerprint() == before
        (fake_pkg / "delta.py").write_text("ADDED = True\n")
        assert fresh_fingerprint() != before

    def test_a_moved_tree_keeps_its_fingerprint(self, fake_pkg, tmp_path, monkeypatch):
        from importlib.util import find_spec

        before = fresh_fingerprint()
        moved = tmp_path / "elsewhere" / FAKE_PKG
        shutil.copytree(fake_pkg, moved)
        for path in moved.iterdir():
            os.utime(path, (0, 0))  # mtimes are no part of the digest
        for mod in [m for m in sys.modules if m.startswith(FAKE_PKG)]:
            del sys.modules[mod]
        monkeypatch.syspath_prepend(str(moved.parent))
        assert find_spec(FAKE_PKG).submodule_search_locations == [str(moved)]
        assert fresh_fingerprint() == before

    @pytest.mark.parametrize("layout", ["no-source", "missing"])
    def test_a_package_without_source_cannot_be_keyed(self, tmp_path, monkeypatch, layout):
        if layout == "no-source":
            (tmp_path / "fakepkg_nosource_test").mkdir()
            (tmp_path / "fakepkg_nosource_test" / "notes.txt").write_text("no code\n")
            monkeypatch.syspath_prepend(str(tmp_path))
        assert fresh_fingerprint("x", root="fakepkg_nosource_test") is None
        with pytest.raises(CacheKeyError, match="no readable source"):
            cell_keys(seeded_cell, {}, seed=0, root="fakepkg_nosource_test")
        clear_fingerprint_caches()

    def test_a_cell_outside_the_package_adds_its_own_source(self, fake_pkg):
        before = fresh_fingerprint(ALPHA, root="repro")
        assert before != fresh_fingerprint("repro.experiments.runner", root="repro")
        (fake_pkg / "gamma.py").write_text("UNRELATED = False\n")
        assert fresh_fingerprint(ALPHA, root="repro") == before
        (fake_pkg / "alpha.py").write_text("def cell(x):\n    return x\n")
        assert fresh_fingerprint(ALPHA, root="repro") != before
        assert fresh_fingerprint("__main__", root="repro") is not None  # no source: its name

    def test_a_fresh_process_derives_the_same_keys(self, tmp_path):
        here: dict = {}
        exec(FIG10_CELL_KEY, here)
        path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
        out = subprocess.run(
            [sys.executable, "-c", FIG10_CELL_KEY + "print(key.cell_id, key.content_key)"],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [here["key"].cell_id, here["key"].content_key]

    def test_source_edit_invalidates_only_dependent_cells(self, fake_pkg, tmp_path):
        """The acceptance shape: editing one package's source misses
        exactly the cells keyed on that package."""
        import fakepkg_cache_test.alpha as alpha

        dependent = cell_keys(alpha.cell, {"x": 1}, seed=0, root=FAKE_PKG)
        unrelated = cell_keys(seeded_cell, {}, seed=0)  # keyed on repro
        cache = ResultCache(tmp_path / "store")
        cache.put(dependent, 2)
        cache.put(unrelated, 0.5)
        (fake_pkg / "beta.py").write_text("def helper(x):\n    return x + 10\n")
        clear_fingerprint_caches()
        dependent2 = cell_keys(alpha.cell, {"x": 1}, seed=0, root=FAKE_PKG)
        assert dependent2.cell_id == dependent.cell_id
        assert dependent2.content_key != dependent.content_key
        hit, _ = cache.get(dependent2)
        assert not hit and cache.stats.invalidations == 1
        hit, value = cache.get(unrelated)
        assert hit and value == 0.5


class TestStore:
    def test_miss_then_hit_roundtrip_is_exact(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_keys(array_cell, {}, seed=3)
        hit, _ = cache.get(key)
        assert not hit and cache.stats.misses == 1
        live = array_cell(3)
        assert cache.put(key, live)
        hit, cached = cache.get(key)
        assert hit and cache.stats.hits == 1
        assert cached["f32"].dtype == np.float32
        assert cached["i16"].dtype == np.int16
        np.testing.assert_array_equal(cached["f32"], live["f32"])
        assert type(cached["scalar"]) is np.float64
        assert cached["pair"] == (3, 3.0)
        assert isinstance(cached["pair"], tuple)

    def test_none_key_is_a_miss_and_not_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(None) == (False, None)
        assert not cache.put(None, 1)
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "corruption",
        [b"", b"{", b"not json at all", b'{"codec": 999, "payload": 1}'],
        ids=["empty", "truncated", "garbage", "foreign-version"],
    )
    def test_corrupt_files_are_misses_not_errors(self, tmp_path, corruption):
        cache = ResultCache(tmp_path)
        key = cell_keys(seeded_cell, {}, seed=1)
        cache.put(key, 0.25)
        cache.path_for(key).write_bytes(corruption)
        hit, value = cache.get(key)
        assert not hit and value is None
        assert cache.stats.corrupt == 1

    def test_corrupt_file_quarantined_for_postmortem(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_keys(seeded_cell, {}, seed=9)
        cache.put(key, 0.5)
        path = cache.path_for(key)
        path.write_bytes(b"not json at all")
        assert cache.get(key) == (False, None)
        # the evidence moves aside instead of being re-read every probe
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_bytes() == b"not json at all"
        assert len(cache) == 0  # .corrupt files are not live entries
        hit, _ = cache.get(key)
        assert not hit and cache.stats.corrupt == 1  # second probe: plain miss
        assert cache.put(key, 0.5)  # and the slot is writable again
        assert cache.get(key) == (True, 0.5)

    def test_truncated_valid_prefix_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_keys(seeded_cell, {}, seed=2)
        cache.put(key, {"series": [1.0, 2.0]})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:-7])
        assert cache.get(key) == (False, None)
        assert cache.stats.corrupt == 1

    def test_stale_content_key_counts_invalidation_and_overwrites(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_keys(seeded_cell, {}, seed=4)
        stale = CacheKey(cell_id=key.cell_id, content_key="0" * 64)
        cache.put(stale, "old")
        hit, _ = cache.get(key)
        assert not hit and cache.stats.invalidations == 1
        cache.put(key, "new")
        assert len(cache) == 1  # one logical cell, one slot
        assert cache.get(key) == (True, "new")

    def test_uncacheable_result_skipped_quietly(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cell_keys(seeded_cell, {}, seed=5)
        assert not cache.put(key, object())
        assert cache.stats.uncacheable == 1
        assert len(cache) == 0

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for s in range(5):
            cache.put(cell_keys(seeded_cell, {}, seed=s), float(s))
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert leftovers == []
        assert len(cache) == 5


class TestSweepCaching:
    def test_sweep_hits_skip_execution_and_match_live(self, tmp_path):
        spec = SweepSpec("cache-sweep", base_seed=9)
        for i in range(4):
            spec.add_seeded(f"r{i}", seeded_cell, scale=2.0)
        live = sweep(spec)
        cache = ResultCache(tmp_path)
        cold = sweep(spec, cache=cache)
        assert cold == live
        assert cache.stats.misses == 4 and cache.stats.writes == 4
        warm_cache = ResultCache(tmp_path)
        warm = sweep(spec, cache=warm_cache)
        assert warm == live
        assert warm_cache.stats.hits == 4 and warm_cache.stats.misses == 0

    def test_cell_key_covers_sweep_identity(self):
        spec_a = SweepSpec("name-a", base_seed=1)
        spec_b = SweepSpec("name-b", base_seed=1)
        cell_a = spec_a.add("c", seeded_cell, seed=0)
        cell_b = spec_b.add("c", seeded_cell, seed=0)
        assert cell_cache_key(spec_a, cell_a) != cell_cache_key(spec_b, cell_b)

    def test_unkeyable_cells_run_live(self, tmp_path):
        spec = SweepSpec("unkeyable", base_seed=0)
        spec.add("bad", seeded_cell, seed=0, scale=1.0)
        spec.cells[0].kwargs["opaque"] = object()  # defeat canonicalization

        def patched(seed, scale, opaque):
            return seeded_cell(seed, scale)

        spec.cells[0] = type(spec.cells[0])("bad", patched, spec.cells[0].kwargs)
        cache = ResultCache(tmp_path)
        out = sweep(spec, cache=cache)
        assert out["bad"] == seeded_cell(0, 1.0)
        assert cache.stats.writes == 0  # never cached, never trusted


class TestRunAllCaching:
    SUBSET = ["validation", "cold-pages"]

    def test_warm_run_all_is_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "runall")
        cold = run_all(self.SUBSET, verbose=False, cache_dir=cache_dir)
        warm = run_all(self.SUBSET, verbose=False, cache_dir=cache_dir)
        for name in self.SUBSET:
            assert warm[name].to_table() == cold[name].to_table()
            assert warm[name].to_csv() == cold[name].to_csv()
            assert warm[name].notes == cold[name].notes

    def test_warm_run_matches_live_run(self, tmp_path):
        cache_dir = str(tmp_path / "runall-live")
        run_all(self.SUBSET, verbose=False, cache_dir=cache_dir)
        warm = run_all(self.SUBSET, verbose=False, cache_dir=cache_dir)
        live = run_all(self.SUBSET, verbose=False, cache_dir=None)
        for name in self.SUBSET:
            assert warm[name].to_csv() == live[name].to_csv()

    def test_cache_stats_reported(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "stats")
        run_all(["validation"], verbose=False, cache_dir=cache_dir, cache_stats=True)
        out = capsys.readouterr().out
        assert "result cache" in out
        run_all(["validation"], verbose=True, cache_dir=cache_dir)
        out = capsys.readouterr().out
        assert "cache: 1 hits, 0 misses" in out

    def test_cache_disabled_reports_nothing(self, capsys):
        run_all(["validation"], verbose=True, cache_dir=None)
        out = capsys.readouterr().out
        assert "cache:" not in out

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="no fork on this platform",
    )
    def test_parallel_and_sequential_identical_with_cache_on(self, tmp_path):
        cache_dir = str(tmp_path / "par")
        par = run_all(self.SUBSET, verbose=False, jobs=4, cache_dir=cache_dir)
        seq = run_all(self.SUBSET, verbose=False, jobs=1, cache_dir=cache_dir)
        live = run_all(self.SUBSET, verbose=False, cache_dir=None)
        for name in self.SUBSET:
            assert par[name].to_csv() == seq[name].to_csv() == live[name].to_csv()


class TestCLI:
    def test_no_cache_and_cache_stats_flags(self, tmp_path, capsys):
        from repro.experiments.runner import main

        assert main(["validation", "--quiet", "--no-cache"]) == 0
        cache_dir = str(tmp_path / "cli")
        assert main(["validation", "--quiet", "--cache-dir", cache_dir, "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "result cache" in out
        assert os.path.isdir(cache_dir)
