"""Experiment-runner CLI tests and report rendering."""

import os
import sys

import pytest

from repro.experiments.common import FigureResult
from repro.experiments.runner import ALL_EXPERIMENTS, main, run_all, to_markdown
from repro.metrics.report import render_gantt
from repro.resilience import SweepFailure

#: set per test: the file whose existence lets ``_flaky_experiment`` pass
FLAKY_MARKER = ""
#: experiment name -> times its body ran
EXECUTED = {}


def _figure(name):
    EXECUTED[name] = EXECUTED.get(name, 0) + 1
    result = FigureResult(name, "test experiment", ["x"])
    result.add_series("y", [1.0])
    return result


def _flaky_experiment(jobs=1, cache=None):
    if not os.path.exists(FLAKY_MARKER):
        EXECUTED["test-flaky"] = EXECUTED.get("test-flaky", 0) + 1
        raise RuntimeError("marker file missing")
    return _figure("test-flaky")


def _steady_experiment(jobs=1, cache=None):
    return _figure("test-steady")


def _lookup_experiment(jobs=1, cache=None):
    return {}["missing key"]


class TestRunnerRegistry:
    def test_every_paper_figure_registered(self):
        for name in (
            "fig01", "fig05", "fig06", "fig07", "fig08", "fig09",
            "fig10", "fig11", "cold-pages",
        ):
            assert name in ALL_EXPERIMENTS

    def test_extensions_registered(self):
        for name in ("ext-shared-inputs", "ext-failures", "ext-open-system"):
            assert name in ALL_EXPERIMENTS

    def test_unknown_experiment_rejected(self, capsys, monkeypatch):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_all(["fig99"], verbose=False)
        # the CLI rejects it as a usage error before anything runs
        with pytest.raises(SystemExit) as info:
            main(["cold-pages", "fig99"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "unknown experiment(s): fig99" in captured.err
        assert "cold-pages" in captured.err and "Traceback" not in captured.err
        assert "regenerated" not in captured.out
        # a KeyError raised inside a running experiment is its own failure
        monkeypatch.setitem(ALL_EXPERIMENTS, "test-lookup", _lookup_experiment)
        assert main(["test-lookup", "--retries", "1", "--no-cache"]) == 1
        assert "KeyError: 'missing key'" in capsys.readouterr().err

    def test_resume_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["cold-pages", "--resume"])
        assert info.value.code == 2
        assert "unrecognized arguments: --resume" in capsys.readouterr().err


class TestRunnerExecution:
    def test_run_selected(self, capsys):
        results = run_all(["cold-pages"], verbose=True)
        assert set(results) == {"cold-pages"}
        out = capsys.readouterr().out
        assert "idle-fraction" in out
        assert "regenerated in" in out

    def test_markdown_report(self):
        results = run_all(["cold-pages"], verbose=False)
        md = to_markdown(results)
        assert md.startswith("# Experiment report")
        assert "## cold-pages" in md
        assert "```" in md

    def test_main_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        rc = main(["cold-pages", "--quiet", "--out", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "cold-pages" in out_file.read_text()

    def test_rerun_executes_only_what_did_not_commit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            sys.modules[__name__], "FLAKY_MARKER", str(tmp_path / "marker")
        )
        monkeypatch.setitem(ALL_EXPERIMENTS, "test-steady", _steady_experiment)
        monkeypatch.setitem(ALL_EXPERIMENTS, "test-flaky", _flaky_experiment)
        EXECUTED.clear()
        names = ["cold-pages", "test-steady", "test-flaky"]
        cache_dir = str(tmp_path / "cache")

        with pytest.raises(SweepFailure) as info:
            run_all(names, cache_dir=cache_dir)
        assert [f.key for f in info.value.failures] == ["test-flaky"]
        assert set(info.value.results) == {"cold-pages", "test-steady"}
        assert EXECUTED == {"test-steady": 1, "test-flaky": 2}  # two attempts
        capsys.readouterr()

        (tmp_path / "marker").write_text("")
        results = run_all(names, cache_dir=cache_dir)  # the same call again
        assert list(results) == names
        assert EXECUTED == {"test-steady": 1, "test-flaky": 3}
        out = capsys.readouterr().out
        for name in ("cold-pages", "test-steady"):
            assert f"[{name} regenerated in" in out
            line = next(ln for ln in out.splitlines() if f"[{name} " in ln)
            assert "cache: 1 hits, 0 misses" in line
        flaky = next(ln for ln in out.splitlines() if "[test-flaky " in ln)
        assert "cache: 0 hits, 1 misses" in flaky


class TestGantt:
    def test_bars_scale_to_horizon(self):
        out = render_gantt([("a", 0.0, 5.0), ("bb", 5.0, 10.0)], width=10)
        lines = out.splitlines()
        assert lines[0].startswith("a  |#####")
        assert lines[1].endswith("5.0-10.0")
        # second bar starts at the midpoint
        assert lines[1].split("|")[1][:5] == "     "

    def test_empty(self):
        assert render_gantt([]) == "(no tasks)"

    def test_minimum_one_cell(self):
        out = render_gantt([("x", 0.0, 0.001), ("y", 0.0, 100.0)], width=10)
        assert "#" in out.splitlines()[0]
