"""The benchmark's multi-run commands: ``suite``, ``compare`` and ``reference``.

``suite`` runs every (workload, repeat) as a fresh ``run.py`` child, one at
a time and round-robin across workloads, so a slow stretch of a shared
host is spread over every workload instead of landing on one; one traced
round per workload follows.  With ``--base DIR`` (a checkout of the parent
commit) every repeat of a workload runs the base and this checkout back to
back, alternating which goes first, so the two runs of a pair see the same
host conditions.  Each side runs with its own BENCHMARK.json's
``run_seconds``.  ``suite`` prints each side's end-to-end medians,
quartiles and run counts, and with ``--json`` writes every run plus the
host description.

``compare PAIRED.json`` (a ``suite --base`` file) or ``compare BASE.json
NEW.json`` (two single-side suite files, unpaired) judges the sides metric
by metric against the bounds in BENCHMARK.json (the choosing-metrics
rules):

* ``unresolved`` when either side's spread (interquartile range over
  median) exceeds the bound, unless every run of one side beats every run
  of the other;
* ``worse`` when the new median is worse by more than the bound;
* ``better`` when the new median is better by more than the base's own
  interquartile range and the new side wins at least 9 of every 10 of at
  least ten pairs (so unpaired files never read ``better`` this way);
* ``within bound`` otherwise.

``reference`` prints the simulated statistics of instance 0 of seeds
``0 .. REFERENCE_SEEDS-1`` for every workload: the content of
reference.json, against which each run reports DRIFT.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import run
import workloads

#: a gain within the bound is claimed only over at least this many pairs
MIN_PAIRS = 10


def _child(root: Path, name: str, seed: int, trace: int) -> Dict[str, Any]:
    """One ``run.py`` run of the checkout at ``root``."""
    cmd = [
        sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
        "--workload", name, "--seed", str(seed), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    out: Dict[str, Any] = {"workload": name, "seed": seed, "trace": trace}
    lines = proc.stdout.strip().splitlines()
    # exit code 1 still prints a result: one whose checks failed
    if proc.returncode not in (0, 1) or len(lines) < 2:
        out["error"] = proc.stderr.strip().splitlines()[-5:]
        return out
    out["diagnostics"] = json.loads(lines[-2])["diagnostics"]
    out["result"] = json.loads(lines[-1])
    return out


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _host(roots: Dict[str, Path]) -> Dict[str, Any]:
    import numpy

    return {
        "commit": {side: _git_commit(root) for side, root in roots.items()},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and count, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metric_values(
    runs: List[Dict[str, Any]], side: str
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """workload -> metric -> repeat -> value, over one side's successful
    untraced runs."""
    out: Dict[str, Dict[str, Dict[int, float]]] = {}
    for r in runs:
        if r["side"] != side or r["trace"] or "result" not in r:
            continue
        per = out.setdefault(r["workload"], {})
        for metric, entry in r["result"]["metrics"].items():
            per.setdefault(metric, {})[r["repeat"]] = entry["value"]
    return out


def suite(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py suite")
    parser.add_argument("--base", metavar="DIR", help="checkout of the parent commit to pair with")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first repeat")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    roots = {"new": workloads.ROOT}
    if args.base:
        roots["base"] = Path(args.base).resolve()
    names = args.workload or list(workloads.WORKLOADS)
    runs = []

    def child(side: str, name: str, repeat: int, trace: int) -> None:
        r = _child(roots[side], name, args.seed + repeat, trace)
        runs.append({"side": side, "repeat": repeat, **r})
        label = f"{side} {name} seed {args.seed + repeat}" + (" traced" if trace else "")
        print(f"  {label}: {_status(r)}", file=sys.stderr)

    for repeat in range(args.repeats):
        for name in names:
            order = sorted(roots, reverse=repeat % 2 == 1)  # base first on even repeats
            for side in order:
                child(side, name, repeat, 0)
    for name in names:
        for side in sorted(roots):
            child(side, name, 0, 1)
    summary = {
        side: {
            name: {metric: summarize(list(v.values())) for metric, v in per.items()}
            for name, per in metric_values(runs, side).items()
        }
        for side in sorted(roots)
    }
    for side, table in summary.items():
        for name, per in table.items():
            for metric, s in per.items():
                print(f"{side:4s} {name:12s} {metric:14s} {_fmt(s):>40s} {run.END_TO_END[metric]}")
    traced = {
        (r["side"], r["workload"]): r["result"]["metrics"]
        for r in runs
        if r["trace"] and "result" in r
    }
    if traced:
        cols = list(traced)
        print(f"\n{'per-layer (traced round)':28s}" + "".join(f"{n[-12:]:>13s}" for _, n in cols))
        for metric, entry in traced[cols[0]].items():
            row = "".join(f"{traced[c][metric]['value']:13.4g}" for c in cols)
            print(f"{metric:28s}{row}  {entry['unit']}")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"host": _host(roots), "summary": summary, "runs": runs}, indent=1)
        )
    return 0 if all(_status(r) == "ok" for r in runs) else 1


def _status(r: Dict[str, Any]) -> str:
    if "error" in r:
        return "ERROR " + " | ".join(r["error"])
    if not r["result"]["correct"]:
        return "INCORRECT " + "; ".join(r["diagnostics"]["problems"])
    return "ok"


def verdict(
    base: List[float],
    new: List[float],
    *,
    lower_is_better: bool,
    bound: float,
    pairs: Optional[List[Tuple[float, float]]] = None,
) -> str:
    """Judge ``new`` against ``base`` (see the module docstring)."""
    sb, sn = summarize(base), summarize(new)
    spread = max(
        (sb["q3"] - sb["q1"]) / abs(sb["median"]), (sn["q3"] - sn["q1"]) / abs(sn["median"])
    )
    if spread > bound:
        if all(beats(n, b, lower_is_better) for n in new for b in base):
            return "better"
        if all(beats(b, n, lower_is_better) for n in new for b in base):
            return "worse"
        return "unresolved"
    change = (sn["median"] - sb["median"]) / abs(sb["median"])
    worsening = change if lower_is_better else -change
    if worsening > bound:
        return "worse"
    if worsening < 0 and abs(sn["median"] - sb["median"]) > sb["q3"] - sb["q1"]:
        if len(pairs or ()) >= MIN_PAIRS and pair_wins(pairs, lower_is_better) >= 0.9 * len(pairs):
            return "better"
    return "within bound"


def beats(a: float, b: float, lower_is_better: bool) -> bool:
    return a < b if lower_is_better else a > b


def pair_wins(pairs: List[Tuple[float, float]], lower_is_better: bool) -> int:
    """How many (base, new) pairs the new run wins; ties count for neither."""
    return sum(beats(n, b, lower_is_better) for b, n in pairs)


def compare(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("files", nargs="+", metavar="FILE", help="PAIRED.json, or BASE.json NEW.json")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one paired suite file, or a base and a new one")
    loaded = [json.loads(Path(f).read_text())["runs"] for f in args.files]
    paired = len(loaded) == 1
    if paired:
        runs = loaded[0]
    else:
        # two single-side files: the first is the base, whatever it was called
        runs = [{**r, "side": side} for side, rs in zip(("base", "new"), loaded) for r in rs]
    base, new = metric_values(runs, "base"), metric_values(runs, "new")
    if not base:
        parser.error("no base runs: give a `suite --base` file, or two suite files")
    bench = json.loads(run.BENCHMARK.read_text())
    worse = 0
    print(f"{'workload':12s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s}  verdict")
    for name in [w for w in workloads.WORKLOADS if w in base and w in new]:
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            b, n = base[name].get(metric), new[name].get(metric)
            if not b or not n:
                continue
            lower = spec["better"] == "lower"
            pairs = [(b[k], n[k]) for k in sorted(set(b) & set(n))] if paired else []
            result = verdict(
                list(b.values()), list(n.values()),
                lower_is_better=lower, bound=spec["bound"], pairs=pairs or None,
            )
            worse += result == "worse"
            sb, sn = summarize(list(b.values())), summarize(list(n.values()))
            pair_note = f" ({pair_wins(pairs, lower)}/{len(pairs)} pairs won)" if pairs else ""
            print(
                f"{name:12s} {metric:14s} {_fmt(sb):>34s} {_fmt(sn):>34s}  {result}{pair_note}"
            )
    return 1 if worse else 0


def _fmt(s: Dict[str, float]) -> str:
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def reference(argv: List[str]) -> int:
    argparse.ArgumentParser(prog="run.py reference").parse_args(argv)
    run.bootstrap()
    out: Dict[str, Dict[str, Any]] = {}
    for name in workloads.WORKLOADS:
        workload = workloads.load(name)
        out[name] = {
            str(seed): workload.prepare(workloads.instance_seed(seed, 0)).execute().stats
            for seed in range(run.REFERENCE_SEEDS)
        }
    try:
        workloads.SCRATCH.rmdir()
    except OSError:
        pass
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0
