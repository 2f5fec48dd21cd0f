"""``python -m repro scenarios ...`` — the scenario layer's command line.

Subcommands:

* ``list`` — every registered family and member, with digests,
* ``show <ref>`` — one scenario as TOML (what ``run`` would execute),
* ``run <name-or-file> [--jobs N]`` — run a registered family/member or a
  ``.toml``/``.json`` spec file and print the outcome table.  Runs are
  supervised (:mod:`repro.resilience`): cached by default, journaled to
  ``journal.jsonl`` next to the cache, retried/quarantined via
  ``--retries``/``--cell-timeout``, and checkable with
  ``--check-invariants``.  A killed run resumes by running the same
  command again: the cache serves every scenario that committed,
* ``serve <name-or-file> [--windows] [--live DIR]`` — drive *service*
  scenarios (those with a ``[service]`` section) open-loop through
  :mod:`repro.service` and print their windowed reports.  Shares the
  whole supervised-run machinery with ``run``; ``run`` executes the same
  scenarios as closed batches of their background workload,
* ``verify`` — round-trip every registered scenario through both
  interchange forms (the CI gate).

An unknown scenario name exits with status 2 and a usage message naming
the registered families, before anything runs.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional, Sequence

from ..metrics.report import format_table
from ..service.metrics import ServiceReport
from .build import ScenarioOutcome, run_scenario, run_service
from .registry import REGISTRY, _ensure_catalog
from .serialization import load_scenario, to_toml
from .spec import ScenarioSpec

__all__ = ["main"]


def _resolve(ref: str) -> List[ScenarioSpec]:
    """A registry name (family or member) or a spec-file path, as specs."""
    if ref.endswith((".toml", ".json")) or Path(ref).is_file():
        return [load_scenario(ref)]
    return REGISTRY.resolve(ref)


def _resolve_one(ref: str) -> List[ScenarioSpec]:
    """A registry member (or single-member family) or a spec file."""
    if Path(ref).is_file():
        return [load_scenario(ref)]
    return [REGISTRY.scenario(ref)]


def _cmd_list(_args: argparse.Namespace) -> int:
    for fam in REGISTRY:
        print(f"{fam.name}  [{len(fam)} scenario{'s' if len(fam) != 1 else ''}]")
        print(f"  {fam.description}")
        for spec in fam:
            print(f"    {spec.name:<40} {spec.env.name:<5} digest={spec.digest()[:12]}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(to_toml(args.specs[0]), end="")
    return 0


def _run_one(spec: ScenarioSpec) -> ScenarioOutcome:
    return run_scenario(spec)


def _serve_one(
    spec: ScenarioSpec,
    live_root: Optional[str] = None,
    live_solo: bool = True,
) -> ServiceReport:
    live = None
    if live_root is not None:
        # one spec streams straight into the directory; a family fans out
        # into per-member subdirectories so streams don't clobber each other
        live = (
            live_root
            if live_solo
            else str(Path(live_root) / spec.name.replace("/", "__"))
        )
    return run_service(spec, live=live)


def _scenario_cell_key(spec: ScenarioSpec):
    """Cache key for one scenario run (``None`` → always live)."""
    from ..cache.keys import CacheKeyError, cell_keys

    try:
        return cell_keys(
            _run_one, {}, seed=spec.seed,
            extra={"scenario_run": spec.name}, scenario=spec,
        )
    except CacheKeyError:  # pragma: no cover - specs are canonical
        return None


def _service_cell_key(spec: ScenarioSpec):
    """Cache key for one service run (``None`` → always live)."""
    from ..cache.keys import CacheKeyError, cell_keys

    try:
        return cell_keys(
            _serve_one, {}, seed=spec.seed,
            extra={"scenario_serve": spec.name}, scenario=spec,
        )
    except CacheKeyError:  # pragma: no cover - specs are canonical
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    import contextlib
    import functools

    from .. import obs
    from ..obs import insight as _insight
    from ..resilience import (
        InvariantChecker,
        RetryPolicy,
        RunJournal,
        failure_table,
        journal_path,
        supervised_map,
    )

    service_mode = bool(getattr(args, "service", False))
    live_root = getattr(args, "live", None)
    specs = args.specs
    if service_mode:
        missing = [s.name for s in specs if s.service is None]
        if missing:
            raise SystemExit(
                f"error: not service scenarios (no [service] section): {missing}"
            )
        cell_fn, cell_key = _serve_one, _service_cell_key
        if live_root:
            cell_fn = functools.partial(
                _serve_one, live_root=live_root, live_solo=len(specs) == 1
            )
    else:
        cell_fn, cell_key = _run_one, _scenario_cell_key
    keys = [spec.name for spec in specs]
    cache = None
    if not args.no_cache:
        from ..cache.store import ResultCache, default_cache_dir

        cache = ResultCache(args.cache_dir or default_cache_dir())
    telemetry = (
        obs.Telemetry(f"scenarios/{args.ref}", {"jobs": args.jobs})
        if args.telemetry
        else obs.NULL
    )
    # the insight plane (ledger + tier series) rides along whenever the
    # run records telemetry or streams live windows
    ins = (
        _insight.Insight(f"scenarios/{args.ref}", {"jobs": args.jobs})
        if (args.telemetry or live_root)
        else _insight.NULL
    )
    with contextlib.ExitStack() as stack:
        stack.enter_context(obs.session(
            telemetry,
            insight=ins,
            checker=InvariantChecker() if args.check_invariants else None,
        ))
        journal = None
        if cache is not None:
            journal = stack.enter_context(RunJournal(journal_path(cache.root)))
            journal.run_started(f"scenarios/{args.ref}", keys)
        sup = supervised_map(
            cell_fn,
            specs,
            keys=keys,
            jobs=args.jobs,
            deadline=args.cell_timeout,
            retry=RetryPolicy(max_attempts=max(1, args.retries)),
            journal=journal,
            cache=cache,
            cache_key=cell_key,
        )
        if journal is not None:
            journal.run_completed(failures=len(sup.failures))
    failed = {f.key for f in sup.failures}
    outcomes = [
        outcome for key, outcome in zip(keys, sup.results) if key not in failed
    ]
    if service_mode:
        _print_service_reports(args, specs, outcomes)
    else:
        rows = []
        for out in outcomes:
            rows.append(
                [out.scenario, out.makespan, float(out.completed), float(out.failed),
                 out.mean_startup, out.percentile("execution_time", 50),
                 out.percentile("execution_time", 95), out.percentile("execution_time", 99)]
            )
        print(
            format_table(
                ["scenario", "makespan (s)", "completed", "failed", "mean startup (s)",
                 "exec p50", "exec p95", "exec p99"],
                rows,
                title=f"{args.ref}: {len(specs)} scenario(s)",
            )
        )
        for out in outcomes:
            print(f"  {out.scenario}: digest={out.digest[:12]} seed={out.seed}")
    if live_root:
        _print_live_tail(live_root, specs)
    if args.telemetry:
        paths = obs.write_run_dir(
            telemetry.snapshot(), args.telemetry, ins.snapshot()
        )
        print(f"telemetry: {paths['run']} (trace: {paths['trace']})")
        if "insight" in paths:
            print(f"insight: {paths['insight']}")
    if sup.failures:
        print(failure_table(sup.failures))
        print(f"error: {len(sup.failures)} scenario(s) quarantined")
        return 1
    return 0


def _print_live_tail(live_root: str, specs: Sequence[ScenarioSpec]) -> None:
    """After a ``--live`` run, echo where each stream landed and render its
    last windows (the same view ``obs tail`` gives while the run is hot)."""
    import json

    from ..obs import insight as _insight

    dirs = (
        [(specs[0].name, Path(live_root))]
        if len(specs) == 1
        else [(s.name, Path(live_root) / s.name.replace("/", "__")) for s in specs]
    )
    for name, directory in dirs:
        path = directory / _insight.LIVE_FILE
        if not path.is_file():
            continue
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln]
        print(f"live: {name} -> {directory} ({len(lines)} windows)")
        for ln in lines[-3:]:
            print(_insight.format_live_window(json.loads(ln)))


def _print_service_reports(
    args: argparse.Namespace,
    specs: Sequence[ScenarioSpec],
    reports: Sequence[ServiceReport],
) -> None:
    rows = []
    for rep in reports:
        rows.append(
            [rep.scenario, float(len(rep.windows)), float(rep.warmup_windows),
             float(rep.offered), float(rep.rejected), float(rep.completed),
             rep.steady_utilization, rep.steady_queue_depth,
             rep.steady_throughput * 3600.0]
        )
    print(
        format_table(
            ["scenario", "windows", "warmup", "offered", "rejected", "completed",
             "util", "queue", "done/h"],
            rows,
            title=f"{args.ref}: {len(specs)} service scenario(s)",
        )
    )
    for rep in reports:
        conv = "converged" if rep.converged else "NOT converged"
        print(f"  {rep.scenario}: seed={rep.seed} {conv}")
        for cl in rep.class_latency:
            print(
                f"    {cl.wclass}: n={cl.count} turnaround mean={cl.mean:.2f} "
                f"p50={cl.p50:.2f} p95={cl.p95:.2f} p99={cl.p99:.2f}"
            )
    if args.windows:
        for rep in reports:
            print()
            print(rep.to_table())


def _cmd_verify(_args: argparse.Namespace) -> int:
    names = REGISTRY.verify()
    print(f"verified {len(names)} scenarios across {len(REGISTRY)} families")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description="List, inspect, and run declarative experiment scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenario families").set_defaults(
        fn=_cmd_list
    )

    p_show = sub.add_parser("show", help="print one scenario as TOML")
    p_show.add_argument("ref", help="scenario name (family/member) or spec file")
    p_show.set_defaults(fn=_cmd_show, resolve=_resolve_one)

    def _add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("ref", help="family name, family/member, or .toml/.json path")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes (1 = in-process, 0 = all cores)",
        )
        p.add_argument(
            "--telemetry", metavar="DIR", default=None,
            help="record spans/counters/events and the insight plane and write "
                 "run.json, insight.json and trace.json (Perfetto) under DIR",
        )
        p.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="result-cache location (default: $REPRO_CACHE_DIR or "
                 "~/.cache/repro/cells)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="run every scenario live, without the result cache",
        )
        p.add_argument(
            "--retries", type=int, default=2, metavar="N",
            help="attempts per scenario before quarantine (default 2)",
        )
        p.add_argument(
            "--cell-timeout", type=float, default=None, metavar="SECONDS",
            help="per-scenario wall-clock deadline; hung scenarios are killed "
                 "and retried",
        )
        p.add_argument(
            "--check-invariants", action="store_true",
            help="assert runtime conservation invariants during the run",
        )
        p.set_defaults(resolve=_resolve)

    p_run = sub.add_parser("run", help="run a family, member, or spec file")
    _add_run_options(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="run service scenarios as open-loop steady-state runs"
    )
    _add_run_options(p_serve)
    p_serve.add_argument(
        "--windows", action="store_true",
        help="print every report's full window table",
    )
    p_serve.add_argument(
        "--live", metavar="DIR", default=None,
        help="stream per-window metrics under DIR (live.ndjson + "
             "metrics.prom, with tier occupancy/stall when the insight plane "
             "is on; view with 'obs tail DIR'). Cached cells do not stream — "
             "add --no-cache for a full feed",
    )
    p_serve.set_defaults(fn=_cmd_run, service=True)

    sub.add_parser(
        "verify", help="round-trip every registered scenario (CI gate)"
    ).set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    _ensure_catalog()
    if "resolve" in args:
        # resolve names before anything runs: a bad one is a usage error
        try:
            args.specs = args.resolve(args.ref)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    return int(args.fn(args))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
