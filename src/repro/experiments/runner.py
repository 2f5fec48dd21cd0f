"""Run every paper experiment and emit a combined report.

``python -m repro.experiments`` regenerates all figures at laptop scale
and prints their tables; ``--out FILE`` also writes a markdown report
(the source of EXPERIMENTS.md's measured numbers).  ``--jobs N`` fans
independent experiments out across ``N`` worker processes (0 = all
cores) — tables are byte-identical to the sequential run because results
are collected in registry order and every experiment is hermetic.

Hermeticity also makes results cacheable: by default every run consults
the content-addressed result cache (:mod:`repro.cache`), at two levels —
whole experiments here, and individual sweep cells inside the harnesses
that accept ``cache=``.  A warm re-run serves everything from disk with
byte-identical tables; editing any module in an experiment's import
closure (or bumping the repro version) invalidates exactly the entries
that depend on it.  ``--no-cache`` restores pure live execution,
``--cache-dir`` relocates the store, ``--cache-stats`` prints the
per-experiment hit/miss/invalidation counts.

Execution is supervised (:mod:`repro.resilience`): failing experiments
are retried with deterministic backoff (``--retries``), optionally
deadline-bounded (``--cell-timeout``), and quarantined instead of
killing the run — the process then exits non-zero with a per-experiment
failure table.  Progress is journaled durably next to the cache.  A
killed run resumes by running the same command again: the cache serves
every experiment that committed, and only the rest execute.
``--check-invariants`` turns the simulator's conservation laws into hard
runtime assertions.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .. import obs
from ..resilience import (
    InvariantChecker,
    RetryPolicy,
    RunJournal,
    SweepFailure,
    failure_table,
    journal_path,
    supervised_map,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cache.store import ResultCache

from .cold_pages import run_cold_pages
from .common import FigureResult
from .fig01_motivation import run_fig01
from .fig05_exec_time import run_fig05
from .fig06_cxl_fraction import run_fig06
from .fig07_alloc_policy import run_fig07
from .fig08_dram_fraction import run_fig08
from .fig09_page_faults import run_fig09
from .ext_colocation import run_colocation
from .ext_decomposition import run_decomposition
from .ext_failures import run_failures
from .ext_open_system import run_open_system
from .ext_predictor import run_predictor_learning
from .ext_resilience import run_resilience
from .ext_shared_inputs import run_shared_inputs
from .ext_steady_state import run_steady_state
from .ext_utilization import run_utilization
from .fig10_scalability import run_fig10
from .ablations import run_ablations
from .validation import run_validation
from .fig11_concurrency import run_fig11

__all__ = ["ALL_EXPERIMENTS", "run_all", "main"]

ALL_EXPERIMENTS: dict[str, Callable[[], FigureResult]] = {
    "validation": run_validation,
    "fig01": run_fig01,
    "cold-pages": run_cold_pages,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig07": run_fig07,
    "fig08": run_fig08,
    "fig09": run_fig09,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "ext-shared-inputs": run_shared_inputs,
    "ext-failures": run_failures,
    "ext-resilience": run_resilience,
    "ext-open-system": run_open_system,
    "ext-steady-state": run_steady_state,
    "ext-colocation": run_colocation,
    "ext-predictor": run_predictor_learning,
    "ext-decomposition": run_decomposition,
    "ext-utilization": run_utilization,
    "ablations": run_ablations,
}


#: ``cache_dir`` sentinel: open the default store (REPRO_CACHE_DIR or
#: ``~/.cache/repro/cells``); pass ``None`` to disable caching entirely.
DEFAULT_CACHE = "auto"


def _open_cache(cache_dir: Optional[str]) -> "Optional[ResultCache]":
    if cache_dir is None:
        return None
    from ..cache.store import ResultCache, default_cache_dir

    return ResultCache(default_cache_dir() if cache_dir == DEFAULT_CACHE else cache_dir)


def _experiment_key(name: str, fn: Callable[..., FigureResult]):
    """Whole-experiment cache key (kwargs-free: ``jobs``/``cache`` never
    change the result), or ``None`` when no stable key exists."""
    from ..cache.keys import CacheKeyError, cell_keys

    try:
        return cell_keys(fn, {}, seed=0, extra={"experiment": name})
    except CacheKeyError:  # pragma: no cover - registry fns are plain
        return None


def _run_one(
    name: str, jobs: int = 1, cache_dir: Optional[str] = None
) -> tuple[FigureResult, float, Optional[dict[str, int]]]:
    """Run one experiment, forwarding ``jobs`` to its inner sweep.
    Top-level and picklable, so it can be a pool task.

    With a cache, the whole experiment's :class:`FigureResult` is served
    from disk when still valid; on a miss the harness runs (with per-cell
    caching through its ``cache=``) and the result is written back.
    Returns ``(result, elapsed, cache stats or None)`` — stats come from
    this process's cache instance, so pool workers report their own.
    """
    fn = ALL_EXPERIMENTS[name]
    cache = _open_cache(cache_dir)
    t0 = time.perf_counter()

    def execute() -> FigureResult:
        if cache is None:
            return fn(jobs=jobs)
        key = _experiment_key(name, fn)
        hit, result = cache.get(key)
        if not hit:
            result = fn(jobs=jobs, cache=cache)
            cache.put(key, result)
        return result

    # Each experiment runs under its own child telemetry context, merged
    # back with ``scope=name`` so counters carry an ``exp=`` label.  The
    # same path runs inline (merging into the run context) and in pool
    # workers (merging into the worker context, which the supervisor then
    # forwards), so ``obs summary`` rollups match for any ``jobs``.
    parent = obs.active()
    if parent.enabled:
        child = obs.Telemetry(run_id=name)
        with obs.session(child), obs.span("experiment", experiment=name):
            result = execute()
        parent.merge(child.snapshot(), scope=name)
    else:
        result = execute()
    elapsed = time.perf_counter() - t0
    stats = cache.stats.as_dict() if cache is not None else None
    return result, elapsed, stats


def _run_one_cell(item: "tuple[str, int, Optional[str]]") -> tuple[FigureResult, float, Optional[dict[str, int]]]:
    name, jobs, cache_dir = item
    return _run_one(name, jobs=jobs, cache_dir=cache_dir)


def _format_cache_stats(per_experiment: "dict[str, Optional[dict[str, int]]]") -> str:
    lines = ["result cache (hits / misses / invalidated / corrupt / written):"]
    total = {k: 0 for k in ("hits", "misses", "invalidations", "corrupt", "writes")}
    for name, stats in per_experiment.items():
        if stats is None:
            lines.append(f"  {name:<18} (cache disabled)")
            continue
        lines.append(
            f"  {name:<18} {stats['hits']:>4} / {stats['misses']:>4} / "
            f"{stats['invalidations']:>4} / {stats['corrupt']:>4} / {stats['writes']:>4}"
        )
        for k in total:
            total[k] += stats[k]
    lines.append(
        f"  {'total':<18} {total['hits']:>4} / {total['misses']:>4} / "
        f"{total['invalidations']:>4} / {total['corrupt']:>4} / {total['writes']:>4}"
    )
    return "\n".join(lines)


def run_all(
    names: Optional[Sequence[str]] = None,
    *,
    verbose: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = DEFAULT_CACHE,
    cache_stats: bool = False,
    telemetry_dir: Optional[str] = None,
    retries: int = 2,
    cell_timeout: Optional[float] = None,
    check_invariants: bool = False,
) -> dict[str, FigureResult]:
    """Run the selected experiments (all by default), returning results.

    With ``jobs != 1`` and several experiments selected, whole experiments
    fan out across a process pool; a single selected experiment instead
    forwards ``jobs`` to its internal sweep.  Results (and printed tables)
    keep selection order either way.

    ``cache_dir`` controls the result cache: the default sentinel opens
    the standard store, a path opens that store, and ``None`` disables
    caching (pure live execution, zero cache overhead).  Cached re-runs
    produce byte-identical tables; ``cache_stats=True`` prints the
    per-experiment hit/miss/invalidation summary.

    ``telemetry_dir`` turns on the :mod:`repro.obs` layer for the run and
    writes the merged record (run.json, plus trace.json for Perfetto)
    under that directory.

    Execution is *supervised* (:mod:`repro.resilience`): each experiment
    gets up to ``retries`` attempts (deterministic backoff between them),
    optionally bounded by ``cell_timeout`` seconds of wall clock, and a
    failing experiment is quarantined instead of killing the run — the
    others complete, then a :class:`~repro.resilience.SweepFailure`
    carrying the per-experiment failures (and the partial results) is
    raised.  When caching is on, every run is recorded in the fsync'd
    ``journal.jsonl`` next to the cache entries.  A run killed mid-sweep
    (even by SIGKILL) resumes by calling ``run_all`` again with the same
    arguments: every experiment that committed is a cache hit, and the
    output is byte-identical.  ``check_invariants=True`` installs the
    runtime :class:`~repro.resilience.InvariantChecker` for the run
    (inherited by forked workers), turning the simulator's conservation
    laws into hard assertions.
    """
    selected = list(names) if names else list(ALL_EXPERIMENTS)
    for name in selected:
        if name not in ALL_EXPERIMENTS:
            raise KeyError(f"unknown experiment {name!r}; choose from {list(ALL_EXPERIMENTS)}")
    cache = _open_cache(cache_dir)
    telemetry = (
        obs.Telemetry("experiments", {"jobs": jobs, "selected": list(selected)})
        if telemetry_dir
        else obs.NULL
    )
    inner_jobs = jobs if (jobs != 1 and len(selected) == 1) else 1
    outer_jobs = 1 if inner_jobs != 1 else jobs
    with contextlib.ExitStack() as stack:
        # installed before the pool forks, so workers inherit every plane
        stack.enter_context(obs.session(
            telemetry, checker=InvariantChecker() if check_invariants else None
        ))
        stack.enter_context(obs.span("experiments", count=len(selected)))
        journal: Optional[RunJournal] = None
        if cache is not None:
            journal = stack.enter_context(RunJournal(journal_path(cache.root)))
            journal.run_started("experiments", selected, jobs=jobs)
        sup = supervised_map(
            _run_one_cell,
            [(name, inner_jobs, cache_dir) for name in selected],
            keys=selected,
            jobs=outer_jobs,
            deadline=cell_timeout,
            retry=RetryPolicy(max_attempts=max(1, retries)),
            journal=journal,
        )
        if journal is not None:
            journal.run_completed(failures=len(sup.failures))
    if telemetry_dir:
        paths = obs.write_run_dir(telemetry.snapshot(), telemetry_dir)
        print(f"telemetry: {paths['run']} (trace: {paths['trace']})")
    failed = {f.key for f in sup.failures}
    results: dict[str, FigureResult] = {}
    per_experiment: dict[str, Optional[dict[str, int]]] = {}
    for name, outcome in zip(selected, sup.results):
        if name in failed:
            continue
        result, elapsed, stats = outcome
        results[name] = result
        per_experiment[name] = stats
        if verbose:
            line = f"  [{name} regenerated in {elapsed:.1f}s"
            if stats is not None:
                line += (
                    f"; cache: {stats['hits']} hits, {stats['misses']} misses"
                    + (f", {stats['invalidations']} invalidated" if stats["invalidations"] else "")
                )
            print(result.to_table())
            print(line + "]\n")
    if cache_stats:
        print(_format_cache_stats(per_experiment))
    if sup.failures:
        raise SweepFailure(sup.failures, results=results)
    return results


def to_markdown(results: dict[str, FigureResult]) -> str:
    lines = ["# Experiment report (auto-generated)", ""]
    for name, result in results.items():
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(result.to_table())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures at laptop scale.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="NAME",
        help=f"experiments to run (default: all of {', '.join(ALL_EXPERIMENTS)})",
    )
    parser.add_argument("--out", help="also write a markdown report to this path")
    parser.add_argument("--quiet", action="store_true", help="suppress per-figure tables")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiments (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro/cells)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache: recompute everything live",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print per-experiment cache hit/miss/invalidation counts",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record spans/counters/events for the whole run and write "
             "run.json and trace.json (Perfetto) under DIR",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="attempts per experiment before quarantine (default 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock deadline; a hung experiment is "
             "killed and retried instead of hanging the run",
    )
    parser.add_argument(
        "--check-invariants",
        action="store_true",
        help="assert runtime conservation invariants (bytes conserved, no "
             "task lost, event heap consistent) during the run",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(ALL_EXPERIMENTS)})"
        )
    cache_dir = None if args.no_cache else (args.cache_dir or DEFAULT_CACHE)
    try:
        results = run_all(
            args.experiments or None,
            verbose=not args.quiet,
            jobs=args.jobs,
            cache_dir=cache_dir,
            cache_stats=args.cache_stats,
            telemetry_dir=args.telemetry,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            check_invariants=args.check_invariants,
        )
    except SweepFailure as exc:
        print(failure_table(exc.failures), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted: progress is journaled; re-run the same command", file=sys.stderr)
        return 130
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_markdown(results))
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
