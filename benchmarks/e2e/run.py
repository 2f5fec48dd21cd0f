"""End-to-end benchmark of the simulator: five workloads, host-time
metrics, and an outside-in per-layer trace.

Run from the repository root (the program is found under ``src/``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 benchmarks/e2e/run.py suite [--base DIR] [--seed N] [--repeats R]
                                        [--workload NAME ...] [--json OUT]
    python3 benchmarks/e2e/run.py compare PAIRED.json | BASE.json NEW.json
    python3 benchmarks/e2e/run.py reference > benchmarks/e2e/reference.json

A single run executes instances of one workload (for ``S`` seconds, by
default BENCHMARK.json's ``run_seconds``, or a fixed number of them under
the tracer) and prints two JSON lines: diagnostics, then the result
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
end-to-end ones of BENCHMARK.json (``--trace 0``) or the per-layer ones
(``--trace 1``).  It exits 1 when an output check fails and 2 when the
program is missing.  ``suite`` runs every workload round-robin, each run
in a fresh child process, and with ``--base`` runs a parent checkout
alongside; ``compare`` judges the two sides against the bounds in
BENCHMARK.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import workloads
from layers import METRICS as LAYER_METRICS
from layers import LayerTracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = workloads.ROOT / "src"
BENCHMARK = workloads.ROOT / "BENCHMARK.json"

#: end-to-end metrics (direction and bound live in BENCHMARK.json)
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "tasks_per_sec": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: a run executes at least this many instances, however long they take
MIN_INSTANCES = 3
#: traced instances per --trace 1 run: fixed, so layer counts repeat
#: exactly for a seed
TRACED_INSTANCES = 3
#: seeds 0 .. REFERENCE_SEEDS-1 have reference statistics in reference.json
REFERENCE_SEEDS = 10
#: simulation-core backend every workload pins: the exact arena core
CORE = "arena"
#: typical reading of :func:`calibrate` on the reference VM (2 vCPUs,
#: Python 3.11) in a quiet stretch; time metrics are scaled to that speed
CALIB_REF_S = 0.020


def bootstrap() -> None:
    """Put the checkout's program on the import path and pin the core.

    Exits with code 2 when the checkout has no program to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["REPRO_CORE"] = CORE


def calibrate() -> float:
    """Host time of a fixed pure-Python kernel: dictionary updates and
    integer arithmetic, the simulator's own staples.

    A shared host's speed drifts by a third over minutes, and the
    simulator's instance times drift with this kernel's (see README.md),
    so the kernel runs between consecutive instances and before the first
    and after the last one, and each instance's times are scaled by
    ``CALIB_REF_S`` over the mean of the two readings around it.  A
    reading is the fastest of three passes: an interruption of a few
    milliseconds would double one 20-ms pass but barely moves an instance.
    """
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(120_000):
            key = i % 5000
            table[key] = table.get(key, 0) + i
            acc += i * i % 7
        passes.append(time.perf_counter() - t0)
    return min(passes)


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _same(a: Any, b: Any) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def drift(name: str, seed: int, stats: Dict[str, Any]) -> List[str]:
    """Differences between instance 0's simulated statistics and the
    stored reference for this seed (none when the seed has no reference)."""
    reference = json.loads((HERE / "reference.json").read_text()).get(name, {}).get(str(seed))
    if reference is None:
        return []
    return [
        f"DRIFT {name} seed {seed} {key}: reference {reference.get(key)!r}, now {stats.get(key)!r}"
        for key in sorted(set(reference) | set(stats))
        if not _same(reference.get(key), stats.get(key))
    ]


@dataclass
class Instance:
    """One untraced instance: its set-up (input generation and
    environment build), its measured run, and the mean of the calibration
    passes before and after it (``calib_s``, set once the later one ran)."""

    workload_s: float
    env_s: float
    run_s: float
    outcome: workloads.Outcome
    calib_s: float = math.nan

    @property
    def wall_s(self) -> float:
        """Host time of the measured run (the sweep: its cold pass)."""
        return self.outcome.wall_s if self.outcome.wall_s is not None else self.run_s

    @property
    def scale(self) -> float:
        """Factor that takes this instance's times to the reference speed."""
        return CALIB_REF_S / self.calib_s


def timed(workload: Any, seed: int, index: int) -> Instance:
    """Prepare and execute one instance."""
    prepared = workload.prepare(workloads.instance_seed(seed, index))
    t0 = time.perf_counter()
    outcome = prepared.execute()
    return Instance(prepared.workload_s, prepared.env_s, time.perf_counter() - t0, outcome)


def run_instances(
    workload: Any, seed: int, seconds: float
) -> Tuple[List[Instance], List[float], float]:
    """Execute instances 0, 1, ... with a calibration pass before, between
    and after them, while the next instance, at the median length so far,
    still ends within ``seconds`` (at least :data:`MIN_INSTANCES`).

    Returns the instances, the calibration passes, and the peak RSS over
    the first :data:`MIN_INSTANCES` instances: the heap grows with the
    instance count, and that count falls as the host slows.
    """
    runs: List[Instance] = []
    calibs = [calibrate()]
    start = time.perf_counter()
    lengths: List[float] = []
    rss = math.nan
    while len(runs) < MIN_INSTANCES or (
        time.perf_counter() - start + statistics.median(lengths) <= seconds
    ):
        t0 = time.perf_counter()
        runs.append(timed(workload, seed, len(runs)))
        calibs.append(calibrate())
        runs[-1].calib_s = (calibs[-2] + calibs[-1]) / 2
        lengths.append(time.perf_counter() - t0)
        if len(runs) == MIN_INSTANCES:
            rss = peak_rss_mb()
    return runs, calibs, rss


def trace_instances(workload: Any, seed: int) -> Tuple[LayerTracer, List[Instance], List[Any]]:
    """Execute instances 0 .. TRACED_INSTANCES-1 twice each, untraced then
    under the layer tracer, so each pair sees the same host conditions.

    Returns the tracer, the untraced instances and the traced outcomes.
    """
    tracer = LayerTracer(workloads.SCRATCH / f"spool-{os.getpid()}")
    plain, traced = [], []
    try:
        for i in range(TRACED_INSTANCES):
            plain.append(timed(workload, seed, i))
            with tracer.installed():
                prepared = workload.prepare(workloads.instance_seed(seed, i))
                traced.append(tracer.root(prepared.execute)[0])
    finally:
        shutil.rmtree(tracer.spool, ignore_errors=True)
    return tracer, plain, traced


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    size: float = 1.0,
    jobs: int = workloads.SWEEP_JOBS,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run workload ``name`` once; returns (result, diagnostics).

    Without ``trace``, instances run for ``seconds``.  With ``trace``,
    :data:`TRACED_INSTANCES` instances run untraced and traced in turn
    (a fixed count, so the layer counts repeat exactly for a seed) and
    the traced ones must reproduce their simulated statistics.
    """
    t0 = time.perf_counter()
    workload = workloads.load(name, size=size, jobs=jobs)
    import_s = time.perf_counter() - t0
    problems: List[str] = []
    missing: List[str] = []
    calibs: List[float] = []
    if trace:
        tracer, runs, traced = trace_instances(workload, seed)
        outcomes = [r.outcome for r in runs]
        missing = tracer.missing
        for i, outcome in enumerate(traced):
            if not _same(outcome.stats, outcomes[i].stats):
                problems.append(f"tracing changed instance {i}'s simulated statistics")
        outcomes += traced
        values = layer_metrics(
            tracer.totals,
            len(traced),
            untraced_s=sum(r.run_s for r in runs),
            setup={
                "import_s": import_s,
                "workload_s": statistics.median(r.workload_s for r in runs),
                "env_s": statistics.median(r.env_s for r in runs),
            },
            replay_s=statistics.mean(o.replay_s for o in traced),
        )
        units = LAYER_METRICS
    else:
        runs, calibs, rss = run_instances(workload, seed, seconds)
        outcomes = [r.outcome for r in runs]
        values = {
            "wall_s": statistics.median(r.wall_s * r.scale for r in runs),
            "tasks_per_sec": statistics.median(
                r.outcome.completed / (r.wall_s * r.scale) for r in runs
            ),
            "peak_rss_mb": rss,
            # the imports ran just before the first calibration reading
            "setup_s": import_s * CALIB_REF_S / calibs[0]
            + statistics.median((r.workload_s + r.env_s) * r.scale for r in runs),
        }
        units = END_TO_END
    problems += [p for o in outcomes for p in o.problems]
    failed = sum(o.failed for o in outcomes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    diagnostics = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "instances": len(runs),
        "import_s": import_s,
        "host.calib_s": calibs,
        "wall_s": [r.wall_s for r in runs],
        "setup_s": [r.workload_s + r.env_s for r in runs],
        "drift": drift(name, seed, outcomes[0].stats),
        "problems": problems,
        "missing_probes": missing,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    return result, diagnostics


def single(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(BENCHMARK.read_text())["run_seconds"])
    try:
        result, diagnostics = measure(args.workload, args.seed, seconds, bool(args.trace))
    finally:
        try:
            workloads.SCRATCH.rmdir()
        except OSError:
            pass
    for line in diagnostics["drift"] + diagnostics["problems"]:
        print(line, file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("suite", "compare", "reference"):
        import report

        return getattr(report, argv[0])(argv[1:])
    return single(argv)


if __name__ == "__main__":
    sys.exit(main())
