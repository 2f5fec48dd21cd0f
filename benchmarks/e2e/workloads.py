"""The end-to-end benchmark's five workloads.

Each workload is one simulated load driven on the host as a single job.
A benchmark run repeats it over a sequence of *instances*: instance ``i``
of seed ``s`` draws its inputs from ``instance_seed(s, i)``, so the same
seed always gives the same inputs and one run covers several input draws
instead of one.

An instance goes through two timed steps, matching what a user pays:

* ``prepare(seed)`` generates the inputs and wires the environment (the
  set-up, reported as ``workload_s`` and ``env_s``);
* the returned ``Prepared.execute()`` runs the simulation to completion
  and checks its outputs (the measured run).

Every workload object performs its own ``repro`` imports when it is
constructed, so :func:`load` in a fresh interpreter times exactly the
imports that workload needs.  ``size`` scales the task, arrival or
instance count; 1.0 is the benchmark, the tests run smaller.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: the repository checkout this file belongs to
ROOT = Path(__file__).resolve().parents[2]
#: a run's scratch space (the sweep's result cache, journal and telemetry,
#: the tracer's spool files); emptied as the run goes, and listed in the
#: repository's .gitignore
SCRATCH = ROOT / ".e2e-scratch"

#: memory scale of the batch workloads (the paper-scale mix's default)
BATCH_SCALE = 1.0 / 64.0
#: DRAM provisioned for the batch workloads, as a share of their footprint
DRAM_FRACTION = 0.30
#: memory scale of the service stream (the bench_service recipe)
SERVICE_SCALE = 1.0 / 2048.0
#: worker processes of the sweep
SWEEP_JOBS = 2


def instance_seed(seed: int, index: int) -> int:
    """The input seed of instance ``index`` of a run seeded with ``seed``."""
    digest = hashlib.sha256(f"e2e/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


@dataclass
class Outcome:
    """One executed instance.

    ``attempted``/``completed``/``failed`` count simulated tasks (a
    failed task is one that failed or never finished); ``stats`` are the
    simulated reference statistics; ``problems`` lists every failed
    correctness check and is empty when the outputs are correct.
    ``wall_s`` overrides the measured host time when ``execute`` does more
    than the measured part (the sweep's warm replay); ``replay_s`` is
    that warm replay's host time.
    """

    attempted: int
    completed: int
    failed: int
    stats: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    wall_s: Optional[float] = None
    replay_s: float = 0.0


@dataclass
class Prepared:
    """An instance ready to execute, with its set-up times."""

    execute: Callable[[], Outcome]
    workload_s: float
    env_s: float


def _migrated_bytes(env: Any) -> int:
    return sum(agent.memory.stats.total_migrated_bytes for agent in env.agents)


class BatchWorkload:
    """A closed batch: the paper's Fig. 10 class mix, all submitted at t=0.

    Built through the scenario layer (``build_workload`` then
    ``environment_for_tasks``), exactly as a registered scenario is.
    """

    def __init__(self, name: str, kind: str, instances: int, nodes: int) -> None:
        from repro.envs.environments import EnvKind
        from repro.scenarios import build, spec, workloads

        self._build, self._spec, self._workloads = build, spec, workloads
        self.name = name
        self.kind = EnvKind[kind]
        self.instances = instances
        self.nodes = nodes

    def prepare(self, seed: int) -> Prepared:
        s = self._spec
        scenario = s.ScenarioSpec(
            name=f"e2e/{self.name}",
            env=self.kind,
            workload=s.WorkloadSpec(
                source="paper-batch", scale=BATCH_SCALE, total_instances=self.instances
            ),
            sizing=s.TierSizing(dram_fraction=DRAM_FRACTION),
            n_nodes=self.nodes,
            seed=seed,
        )
        t0 = time.perf_counter()
        tasks, _ = self._workloads.build_workload(scenario.workload, seed)
        t1 = time.perf_counter()
        env = self._build.environment_for_tasks(scenario, tasks)
        t2 = time.perf_counter()
        realized = self._build.RealizedScenario(spec=scenario, env=env, tasks=tasks)
        return Prepared(partial(self._execute, realized), t1 - t0, t2 - t1)

    @staticmethod
    def _execute(realized: Any) -> Outcome:
        metrics = realized.execute()
        env = realized.env
        n = len(realized.tasks)
        completed = len(metrics.completed())
        problems = []
        if completed != n or metrics.failed():
            problems.append(
                f"{completed}/{n} tasks completed, {len(metrics.failed())} failed"
            )
        stats = {
            "makespan": metrics.makespan() if completed else math.nan,
            "dm_p95_turnaround": (
                metrics.percentiles("turnaround", "DM")[1] if completed else math.nan
            ),
            "events_fired": env.engine.events_fired,
            "migrated_bytes": _migrated_bytes(env),
        }
        return Outcome(n, completed, n - completed, stats, problems)


class ServiceWorkload:
    """An open-loop Poisson stream (DM:DC 3:1) served by 2 IMME nodes with
    64 cores, 2 GiB DRAM and 16 MiB chunks each: the bench_service recipe."""

    def __init__(self, name: str, rate: float, arrivals: int, **admission: Any) -> None:
        from repro.envs.environments import EnvKind, make_environment
        from repro.service import ServiceSpec, serve
        from repro.util.units import GiB, MiB

        self.name = name
        self.spec = ServiceSpec(
            rate=rate,
            max_arrivals=arrivals,
            window=20.0,
            classes=(("DM", 3), ("DC", 1)),
            **admission,
        )
        self._serve = serve
        self._make_env = partial(
            make_environment, EnvKind.IMME, n_nodes=2, dram_capacity=GiB(2), chunk_size=MiB(16)
        )

    def prepare(self, seed: int) -> Prepared:
        t0 = time.perf_counter()
        env = self._make_env()
        t1 = time.perf_counter()
        # the stream is generated lazily, arrival by arrival, during the run
        return Prepared(partial(self._execute, env, seed), 0.0, t1 - t0)

    def _execute(self, env: Any, seed: int) -> Outcome:
        try:
            report = self._serve(env, self.spec, scale=SERVICE_SCALE, seed=seed)
        finally:
            env.stop()
        problems = []
        if report.offered != self.spec.max_arrivals:
            problems.append(f"offered {report.offered} != {self.spec.max_arrivals} arrivals")
        if report.admitted == 0 or report.completed != report.admitted or report.failed:
            problems.append(
                f"admitted {report.admitted}, completed {report.completed}, "
                f"failed {report.failed}"
            )
        dm = [cl.p95 for cl in report.class_latency if cl.wclass == "DM"]
        stats = {
            "offered": report.offered,
            "admitted": report.admitted,
            "makespan": report.duration,
            "dm_p95_turnaround": dm[0] if dm else math.nan,
            "events_fired": env.engine.events_fired,
            "migrated_bytes": _migrated_bytes(env),
        }
        return Outcome(
            report.admitted, report.completed, report.admitted - report.completed, stats, problems
        )


class SweepWorkload:
    """``run_all`` of a seeded Fig. 10 sweep: cold into a fresh result
    cache with telemetry on, then the same call warm.

    The experiment is registered under :attr:`EXPERIMENT` for the call
    only.  Code fingerprints are dropped before each pass, so both pay
    what a fresh ``python -m repro.experiments`` process pays.
    """

    EXPERIMENT = "e2e-fig10"

    def __init__(self, name: str, instances: int, node_counts: tuple, jobs: int) -> None:
        from repro.cache import fingerprint
        from repro.experiments import runner
        from repro.experiments.fig10_scalability import run_fig10
        from repro.resilience import SweepFailure
        from repro.scenarios.paper import fig10_family
        from repro.scenarios.workloads import build_workload

        self._fingerprint, self._runner = fingerprint, runner
        self._run_fig10, self._family, self._build_workload = run_fig10, fig10_family, build_workload
        self._failure = SweepFailure
        self.name = name
        self.instances = instances
        self.node_counts = node_counts
        self.jobs = jobs

    def prepare(self, seed: int) -> Prepared:
        t0 = time.perf_counter()
        family = self._family(
            total_instances=self.instances, node_counts=self.node_counts, seed=seed
        )
        tasks, _ = self._build_workload(family.scenarios[0].workload, seed)
        t1 = time.perf_counter()
        return Prepared(
            partial(self._execute, seed, len(family), len(tasks)), t1 - t0, 0.0
        )

    def _pass(self, root: Path) -> tuple:
        self._fingerprint.clear_fingerprint_caches()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            results = self._runner.run_all(
                [self.EXPERIMENT],
                verbose=False,
                jobs=self.jobs,
                cache_dir=str(root / "cache"),
                telemetry_dir=str(root / "telemetry"),
            )
        return time.perf_counter() - t0, results[self.EXPERIMENT]

    def _execute(self, seed: int, cells: int, tasks_per_cell: int) -> Outcome:
        def experiment(jobs: int = 1, cache: Any = None) -> Any:
            return self._run_fig10(
                total_instances=self.instances,
                node_counts=self.node_counts,
                seed=seed,
                jobs=jobs,
                cache=cache,
            )

        # run_all keys and fingerprints an experiment by its module: make
        # that the harness's, as for the registered "fig10", not this file
        experiment.__module__ = self._run_fig10.__module__
        SCRATCH.mkdir(exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=SCRATCH))
        registry = self._runner.ALL_EXPERIMENTS
        registry[self.EXPERIMENT] = experiment
        attempted = cells * tasks_per_cell
        try:
            cold_s, cold = self._pass(root)
            warm_s, warm = self._pass(root)
        except self._failure as exc:
            lost = len(exc.failures) * tasks_per_cell
            return Outcome(attempted, attempted - lost, lost, {}, [f"sweep failed: {exc}"])
        finally:
            del registry[self.EXPERIMENT]
            shutil.rmtree(root, ignore_errors=True)
        problems = []
        values = [v for series in cold.series.values() for v in series]
        if len(values) != cells or not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"sweep series not finite and positive: {cold.series}")
        csv = cold.to_csv()
        if warm.to_csv() != csv:
            problems.append("warm replay differs from the cold sweep")
        stats = {"csv_sha256": hashlib.sha256(csv.encode()).hexdigest()[:16]}
        return Outcome(attempted, attempted, 0, stats, problems, wall_s=cold_s, replay_s=warm_s)


def _sized(n: int, size: float, floor: int) -> int:
    return max(floor, round(n * size))


#: name -> factory(size, jobs); the order is the benchmark's run order
WORKLOADS: Dict[str, Callable[..., Any]] = {
    "batch-imme": lambda size, jobs: BatchWorkload(
        "batch-imme", "IMME", _sized(100, size, 8), nodes=2
    ),
    "batch-cbe": lambda size, jobs: BatchWorkload(
        "batch-cbe", "CBE", _sized(50, size, 8), nodes=2
    ),
    "svc-shed": lambda size, jobs: ServiceWorkload(
        "svc-shed", 50.0, _sized(2500, size, 100), admission="queue-cap", queue_cap=32
    ),
    "svc-gated": lambda size, jobs: ServiceWorkload(
        "svc-gated", 2.0, _sized(200, size, 20), admission="memory-headroom", headroom=1.0
    ),
    "sweep-fig10": lambda size, jobs: SweepWorkload(
        "sweep-fig10", _sized(16, size, 8), (1, 2), jobs
    ),
}


def load(name: str, *, size: float = 1.0, jobs: int = SWEEP_JOBS) -> Any:
    """Construct workload ``name`` (performing its imports)."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {list(WORKLOADS)}") from None
    return factory(size, jobs)
