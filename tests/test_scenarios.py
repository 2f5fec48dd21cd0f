"""The declarative scenario layer: round-trip identity, digest stability,
registry resolution, cache-key sensitivity, CLI, and warm-cache replay."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.keys import cell_keys
from repro.cache.store import ResultCache
from repro.envs.environments import EnvKind
from repro.experiments import run_fig05
from repro.experiments.common import scenario_makespan
from repro.scenarios import (
    REGISTRY,
    ScenarioSpec,
    TierSizing,
    WorkloadSpec,
    from_json,
    from_mapping,
    from_toml,
    load_scenario,
    run_scenario,
    to_json,
    to_mapping,
    to_toml,
)
from repro.scenarios.cli import main as cli_main
from repro.scenarios.registry import _ensure_catalog, scenario
from repro.util.units import KiB

TINY = 1.0 / 512.0
CHUNK = KiB(256)

# --------------------------------------------------------------------------- #
# strategies: arbitrary-but-valid specs (TOML bare keys for params)
# --------------------------------------------------------------------------- #

_bare_key = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=12
)
_param_value = st.one_of(
    st.booleans(),
    st.integers(-(10**9), 10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_workloads = st.builds(
    WorkloadSpec,
    source=_bare_key,
    scale=st.floats(min_value=1e-6, max_value=2.0),
    instances_per_class=st.dictionaries(
        st.sampled_from(["DL", "DM", "DC", "SC"]), st.integers(0, 64), max_size=4
    ),
    total_instances=st.integers(0, 256),
    wclass=st.sampled_from(["", "DL", "DM", "DC", "SC"]),
    instances=st.integers(0, 64),
    params=st.dictionaries(_bare_key, _param_value, max_size=4),
)
_sizings = st.builds(
    TierSizing,
    dram_fraction=st.one_of(st.none(), st.floats(min_value=0.01, max_value=4.0)),
    dram_per_node=st.one_of(st.none(), st.integers(1, 1 << 44)),
    basis=st.sampled_from(["max-footprint", "footprint", "wss"]),
    pmem_capacity=st.integers(0, 1 << 44),
    cxl_capacity=st.integers(0, 1 << 44),
    floor_chunks=st.integers(0, 64),
)
_specs = st.builds(
    ScenarioSpec,
    name=st.text(min_size=1, max_size=40),
    env=st.sampled_from(list(EnvKind)),
    workload=_workloads,
    sizing=_sizings,
    n_nodes=st.integers(1, 64),
    cores_per_node=st.integers(1, 256),
    chunk_size=st.integers(1, 1 << 30),
    daemon_interval=st.floats(min_value=0.01, max_value=60.0),
    seed=st.integers(0, 2**31 - 1),
    cxl_fraction=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    policy=st.one_of(st.none(), _bare_key),
    stage_images=st.one_of(st.none(), st.booleans()),
    fault_schedule=st.one_of(st.none(), _bare_key),
    fault_seed=st.integers(0, 10**6),
    exclusive=st.booleans(),
    max_time=st.floats(min_value=1.0, max_value=1e12),
)


class TestRoundTripIdentity:
    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_toml(self, spec):
        back = from_toml(to_toml(spec))
        assert back == spec
        assert back.digest() == spec.digest()

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_json(self, spec):
        back = from_json(to_json(spec))
        assert back == spec
        assert back.digest() == spec.digest()

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs)
    def test_mapping(self, spec):
        assert from_mapping(to_mapping(spec)) == spec

    def test_files_dispatch_on_suffix(self, tmp_path):
        from repro.scenarios import dump_scenario

        spec = scenario("fig05/IMME")
        for suffix in (".toml", ".json"):
            path = tmp_path / f"spec{suffix}"
            dump_scenario(spec, path)
            assert load_scenario(path) == spec


class TestDigest:
    @settings(max_examples=40, deadline=None)
    @given(spec=_specs, delta=st.integers(1, 100))
    def test_any_seed_edit_moves_the_digest(self, spec, delta):
        assert spec.evolve(seed=spec.seed + delta).digest() != spec.digest()

    def test_nested_field_edits_move_the_digest(self):
        spec = scenario("fig05/IMME")
        edits = [
            spec.evolve(workload=spec.workload.__class__(
                source=spec.workload.source, scale=spec.workload.scale * 2
            )),
            spec.evolve(sizing=TierSizing(dram_fraction=0.26)),
            spec.evolve(n_nodes=spec.n_nodes + 1),
            spec.evolve(policy="pin-dram"),
            spec.evolve(exclusive=True),
        ]
        digests = {spec.digest()} | {e.digest() for e in edits}
        assert len(digests) == len(edits) + 1  # all distinct

    def test_stable_across_processes(self):
        spec = scenario("fig05/IMME")
        code = (
            "from repro.scenarios.registry import scenario;"
            "print(scenario('fig05/IMME').digest())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == spec.digest()


class TestRegistry:
    def test_catalog_names_every_paper_experiment(self):
        _ensure_catalog()
        expected = {
            "fig01", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
            "fig11", "cold-pages", "validation", "ablations",
            "ext-colocation", "ext-decomposition", "ext-failures",
            "ext-open-system", "ext-predictor", "ext-resilience",
            "ext-shared-inputs", "ext-utilization",
        }
        assert expected <= set(REGISTRY.family_names())

    def test_family_resolution(self):
        specs = REGISTRY.resolve("fig05")
        assert [s.member for s in specs] == ["IE", "CBE", "TME", "IMME"]

    def test_member_resolution(self):
        spec = scenario("fig05/IMME")
        assert spec.env is EnvKind.IMME
        assert REGISTRY.resolve("fig05/IMME") == [spec]

    def test_single_member_family_resolves_bare(self):
        assert scenario("cold-pages").env is EnvKind.IE

    def test_multi_member_family_requires_member(self):
        with pytest.raises(KeyError, match="pick a member"):
            REGISTRY.scenario("fig05")

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario("fig99/IMME")

    def test_verify_round_trips_everything(self):
        names = REGISTRY.verify()
        assert len(names) == len(set(names)) >= len(REGISTRY)


class TestCacheKeys:
    def test_scenario_digest_folds_into_content_key_only(self):
        a = scenario("fig05/IE")
        b = a.evolve(seed=a.seed + 1)
        key_a = cell_keys(scenario_makespan, {}, seed=0, scenario=a)
        key_b = cell_keys(scenario_makespan, {}, seed=0, scenario=b)
        assert key_a == cell_keys(scenario_makespan, {}, seed=0, scenario=a)
        assert key_a.cell_id == key_b.cell_id  # same question asked...
        assert key_a.content_key != key_b.content_key  # ...different world

    def test_spec_kwargs_are_canonicalizable(self):
        spec = scenario("fig05/IE")
        key = cell_keys(scenario_makespan, {"scenario": spec}, seed=0, scenario=spec)
        assert key.cell_id and key.content_key


class TestHarnessDiscipline:
    def test_no_direct_environment_config_in_harnesses(self):
        """Every harness must build environments through ScenarioSpecs."""
        import repro.experiments as exp

        pkg = Path(exp.__file__).parent
        offenders = [
            p.name
            for p in sorted(pkg.glob("*.py"))
            if "EnvironmentConfig(" in p.read_text(encoding="utf-8")
        ]
        assert offenders == []


_TINY_TOML = f"""\
name = "t/tiny"
env = "IMME"
chunk_size = {CHUNK}

[workload]
source = "class-ensemble"
scale = {TINY!r}
wclass = "DM"
instances = 2

[sizing]
dram_fraction = 0.5
"""


class TestRunScenario:
    def test_outcome_carries_digest_and_seed(self):
        spec = from_toml(_TINY_TOML).evolve(seed=3)
        out = run_scenario(spec)
        assert out.completed == 2 and out.failed == 0
        assert out.makespan > 0.0
        assert out.digest == spec.digest()
        assert out.seed == 3

    def test_no_completed_task_reads_nan(self, monkeypatch, tmp_path, capsys):
        # a scenario whose every task fails prints a row of NaN, not a
        # crash that is retried and quarantined
        from repro.metrics.collector import MetricsRegistry
        from repro.scenarios.build import RealizedScenario

        def all_failed(self):
            reg = MetricsRegistry()
            for i in range(2):
                reg.task(f"t{i}", "DM").failed = True
            return reg

        monkeypatch.setattr(RealizedScenario, "execute", all_failed)
        out = run_scenario(from_toml(_TINY_TOML))
        assert (out.completed, out.failed) == (0, 2)
        assert math.isnan(out.makespan) and math.isnan(out.mean_startup)
        assert all(math.isnan(out.percentile("execution_time", q)) for q in (50, 95, 99))

        path = tmp_path / "tiny.toml"
        path.write_text(_TINY_TOML, encoding="utf-8")
        assert cli_main(["run", str(path), "--no-cache"]) == 0
        row = next(ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("t/tiny"))
        assert row.split()[1:] == ["nan", "0.00", "2.00", "nan", "nan", "nan", "nan"]


class TestCli:
    def test_list_names_families_and_digests(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "digest=" in out

    def test_show_emits_toml(self, capsys):
        assert cli_main(["show", "fig05/IMME"]) == 0
        out = capsys.readouterr().out
        assert 'name = "fig05/IMME"' in out
        assert from_toml(out) == scenario("fig05/IMME")

    def test_verify(self, capsys):
        assert cli_main(["verify"]) == 0
        assert "verified" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["run", "nosuch"], ["serve", "nosuch"], ["show", "nosuch"],
        ["show", "fig05"],  # a family of four: show needs one member
    ])
    def test_bad_name_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "registered families" in err or "pick a member" in err
        assert "fig05" in err

    def test_resume_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli_main(["run", "cold-pages", "--resume"])
        assert info.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--service"], ["--windows"], ["--live", "live"]])
    def test_run_takes_no_service_options(self, extra, tmp_path, monkeypatch, capsys):
        import repro.scenarios.cli as cli

        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        monkeypatch.setattr(cli, "run_service", must_not_run)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli_main(["run", "ext-open-system/IMME:0.10", "--no-cache", *extra])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("ref", ["ext-open-system", "ext-open-system/IMME:0.10"])
    def test_run_refuses_a_service_scenario(self, ref, tmp_path, monkeypatch, capsys):
        import repro.scenarios.cli as cli

        def must_not_run(*_args, **_kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(cli, "run_scenario", must_not_run)
        monkeypatch.setattr(cli, "run_service", must_not_run)
        cache = tmp_path / "cache"
        cache.mkdir()
        with pytest.raises(SystemExit) as info:
            cli_main(["run", ref, "--cache-dir", str(cache)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "ext-open-system/IMME:0.10" in err and "scenarios serve" in err
        assert list(cache.iterdir()) == []

    def test_serve_takes_windows_and_live(self, tmp_path, capsys):
        live = tmp_path / "live"
        argv = ["serve", "ext-open-system/IMME:0.10", "--no-cache",
                "--windows", "--live", str(live)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "1 service scenario(s)" in out
        assert "ext-open-system/IMME:0.10: 4 windows (0 warm-up)" in out  # --windows
        assert f"live: ext-open-system/IMME:0.10 -> {live} (4 windows)" in out
        assert (live / "live.ndjson").read_text(encoding="utf-8").strip()
        assert (live / "metrics.prom").is_file()

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.toml"
        path.write_text(_TINY_TOML, encoding="utf-8")
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t/tiny" in out and "digest=" in out


class TestWarmCacheReplay:
    def test_fig05_replays_identically_with_zero_cells_executed(self, tmp_path):
        kwargs = dict(
            scale=TINY, instances_per_class=1, chunk_size=CHUNK, seed=0
        )
        cold = ResultCache(tmp_path)
        first = run_fig05(cache=cold, **kwargs)
        assert cold.stats.hits == 0 and cold.stats.misses == 4

        warm = ResultCache(tmp_path)
        second = run_fig05(cache=warm, **kwargs)
        assert warm.stats.hits == 4 and warm.stats.misses == 0
        assert second.series == first.series
        assert second.provenance == first.provenance
        assert second.to_csv() == first.to_csv()
