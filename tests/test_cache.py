"""Content-addressed sweep-cell cache: key sensitivity, fingerprints,
store robustness, and end-to-end warm-run equivalence."""

import os
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
    closure_fingerprint,
    import_closure,
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


class TestFingerprint:
    def test_closure_contains_transitive_imports_only(self, fake_pkg):
        closure = import_closure("fakepkg_cache_test.alpha", root="fakepkg_cache_test")
        assert "fakepkg_cache_test.alpha" in closure
        assert "fakepkg_cache_test.beta" in closure
        assert "fakepkg_cache_test.gamma" not in closure

    def test_editing_imported_module_changes_fingerprint(self, fake_pkg):
        before = closure_fingerprint("fakepkg_cache_test.alpha", root="fakepkg_cache_test")
        (fake_pkg / "beta.py").write_text("def helper(x):\n    return x + 2\n")
        clear_fingerprint_caches()
        after = closure_fingerprint("fakepkg_cache_test.alpha", root="fakepkg_cache_test")
        assert before != after

    def test_editing_unrelated_module_keeps_fingerprint(self, fake_pkg):
        before = closure_fingerprint("fakepkg_cache_test.alpha", root="fakepkg_cache_test")
        (fake_pkg / "gamma.py").write_text("UNRELATED = False\n")
        clear_fingerprint_caches()
        after = closure_fingerprint("fakepkg_cache_test.alpha", root="fakepkg_cache_test")
        assert before == after

    def test_repro_experiment_closure_reaches_policies(self):
        closure = import_closure("repro.experiments.fig05_exec_time")
        assert "repro.experiments.common" in closure
        assert "repro.policies.linux" in closure
        assert "repro.memory.pageset" in closure

    def test_statement_walk_finds_every_import_ast_walk_finds(self, monkeypatch):
        """Imports are statements, so scanning statement bodies alone gives
        every repro module the same direct imports and closure as a full
        ``ast.walk``."""
        import ast
        import pkgutil

        from repro.cache import fingerprint

        modules = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]

        def closures():
            clear_fingerprint_caches()
            direct = {m: fingerprint._direct_imports(m, "repro") for m in modules}
            out = {}
            for m in modules:
                seen, frontier = set(), [m]
                while frontier:
                    mod = frontier.pop()
                    if mod not in seen:
                        seen.add(mod)
                        frontier.extend(direct[mod])
                out[m] = seen
            return direct, out

        statements = closures()
        monkeypatch.setattr(
            fingerprint, "_statements", lambda body: ast.walk(ast.Module(body, []))
        )
        assert statements == closures()
        clear_fingerprint_caches()
        assert import_closure("repro.experiments.fig10_scalability") == frozenset(
            statements[1]["repro.experiments.fig10_scalability"]
        )

    def test_source_edit_invalidates_only_dependent_cells(self, fake_pkg, tmp_path):
        """The acceptance shape: editing one module misses exactly the
        cells whose import closure contains it."""
        import fakepkg_cache_test.alpha as alpha

        dependent = cell_keys(alpha.cell, {"x": 1}, seed=0, root="fakepkg_cache_test")
        unrelated = cell_keys(seeded_cell, {}, seed=0)  # closure is repro's
        cache = ResultCache(tmp_path / "store")
        cache.put(dependent, 2)
        cache.put(unrelated, 0.5)
        (fake_pkg / "beta.py").write_text("def helper(x):\n    return x + 10\n")
        clear_fingerprint_caches()
        dependent2 = cell_keys(alpha.cell, {"x": 1}, seed=0, root="fakepkg_cache_test")
        assert dependent2.cell_id == dependent.cell_id
        assert dependent2.content_key != dependent.content_key
        hit, _ = cache.get(dependent2)
        assert not hit and cache.stats.invalidations == 1
        hit, value = cache.get(unrelated)
        assert hit and value == 0.5


#: modules of a throwaway package, each holding one form of import text;
#: ``ghost*`` modules exist, but only strings and comments name them
SCAN_MODULES = {
    "docs": '''
        """Module docstring: import fakepkg_scan_test.ghost1
        from fakepkg_scan_test import ghost2
        """
        TEXT = 'import fakepkg_scan_test.ghost3'
        OTHER = "from fakepkg_scan_test import ghost4"  # import fakepkg_scan_test.ghost5
        RAW = r"""
        import fakepkg_scan_test.ghost6 \\
        """
        # from fakepkg_scan_test import ghost7
        from . import real_a
    ''',
    "typing_only": """
        from typing import TYPE_CHECKING
        if TYPE_CHECKING: import fakepkg_scan_test.real_a
        if TYPE_CHECKING:
            from . import real_b
    """,
    "semicolon": "x = 1; import fakepkg_scan_test.real_a\n",
    "parenthesized": """
        from . import (
            real_a,  # the first (of two)
            real_b,
        )
        from .real_c import (thing,
                             other)
    """,
    "local": """
        def f():
            from .real_a import thing
            return thing


        class C:
            def g(self):
                import fakepkg_scan_test.real_b
    """,
    "try_one_line": """
        try: import fakepkg_scan_test.real_a
        except ImportError: real_a = None
    """,
    "string_after_import": (
        'import fakepkg_scan_test.real_a; TEXT = """\n'
        "import fakepkg_scan_test.ghost1\n"
        '"""\n'
        'import fakepkg_scan_test.real_b; MORE = """\n"""\n'
    ),
    "continued_head": "from fakepkg_scan_test \\\n    import real_a\n",
    "continued_tail": "from .real_c import \\\n    thing\n",
}
#: the modules whose import statements do not stand alone: parsed whole
SCAN_FALLBACK = {"try_one_line", "string_after_import", "continued_head", "continued_tail"}


@pytest.fixture
def scan_pkg(tmp_path, monkeypatch):
    root = tmp_path / "fakepkg_scan_test"
    root.mkdir()
    (root / "__init__.py").write_text("")
    for name in ("real_a", "real_b", *(f"ghost{i}" for i in range(1, 8))):
        (root / f"{name}.py").write_text("VALUE = 1\n")
    (root / "real_c.py").write_text("thing = other = 1\n")
    for name, source in SCAN_MODULES.items():
        (root / f"{name}.py").write_text(textwrap.dedent(source))
    monkeypatch.syspath_prepend(str(tmp_path))
    clear_fingerprint_caches()
    yield "fakepkg_scan_test"
    clear_fingerprint_caches()
    for mod in [m for m in sys.modules if m.startswith("fakepkg_scan_test")]:
        del sys.modules[mod]


def parsed_whole(monkeypatch, modules, root):
    """Each module's direct imports from a full ``ast.parse`` + ``ast.walk``."""
    import ast

    from repro.cache import fingerprint

    with monkeypatch.context() as patch:
        patch.setattr(fingerprint, "_import_statements", lambda source: None)
        patch.setattr(fingerprint, "_statements", lambda body: ast.walk(ast.Module(body, [])))
        clear_fingerprint_caches()
        return {m: fingerprint._direct_imports(m, root) for m in modules}


class TestImportScan:
    """The lexer parses only the statements holding an ``import``, and
    finds exactly the imports a full parse does."""

    def test_every_repro_module_matches_a_full_parse(self, monkeypatch):
        import pkgutil

        from repro.cache import fingerprint

        modules = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        clear_fingerprint_caches()
        scanned = {m: fingerprint._direct_imports(m, "repro") for m in modules}
        assert scanned == parsed_whole(monkeypatch, modules, "repro")
        assert sum(map(len, scanned.values())) > 300

    def test_fixtures_match_a_full_parse(self, monkeypatch, scan_pkg):
        from repro.cache import fingerprint

        modules = [f"{scan_pkg}.{name}" for name in SCAN_MODULES]
        scanned = {m: fingerprint._direct_imports(m, scan_pkg) for m in modules}
        want = parsed_whole(monkeypatch, modules, scan_pkg)
        assert scanned == want
        assert not any(".ghost" in m for found in scanned.values() for m in found)
        pkg = lambda *names: {scan_pkg} | {f"{scan_pkg}.{m}" for m in names}  # noqa: E731
        assert want[f"{scan_pkg}.docs"] == pkg("real_a")
        assert want[f"{scan_pkg}.parenthesized"] == pkg("real_a", "real_b", "real_c")
        assert want[f"{scan_pkg}.local"] == pkg("real_a", "real_b") - {scan_pkg}
        assert want[f"{scan_pkg}.try_one_line"] == pkg("real_a") - {scan_pkg}
        assert want[f"{scan_pkg}.string_after_import"] == pkg("real_a", "real_b") - {scan_pkg}

    def test_statements_that_do_not_stand_alone_parse_the_module(self, scan_pkg):
        import ast

        from repro.cache import fingerprint

        for name in SCAN_MODULES:
            source = fingerprint._source_entry(f"{scan_pkg}.{name}")[2]
            lexed = fingerprint._import_statements(source)
            try:
                alone = lexed is not None and ast.parse(lexed) is not None
            except SyntaxError:
                alone = False
            assert alone == (name not in SCAN_FALLBACK), name
            assert lexed is None or b"ghost" not in lexed

    def test_a_plain_module_is_not_probed_for_submodules(self, monkeypatch, scan_pkg):
        from repro.cache import fingerprint

        probed = []
        find_source = fingerprint._find_source

        def recording(modname):
            probed.append(modname)
            return find_source(modname)

        monkeypatch.setattr(fingerprint, "_find_source", recording)
        found = fingerprint._direct_imports(f"{scan_pkg}.parenthesized", scan_pkg)
        assert f"{scan_pkg}.real_c" in found
        assert f"{scan_pkg}.real_a" in probed  # a package's names are probed
        assert not any(m.startswith(f"{scan_pkg}.real_c.") for m in probed)


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
