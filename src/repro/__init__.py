"""repro — Application-Attuned Memory Management for Containerized HPC Workflows.

A full-system reproduction (IPDPS 2024) built on a discrete-event
simulation of tiered-memory HPC clusters.  Public entry points:

* :class:`~repro.envs.Environment` / :func:`~repro.envs.make_environment`
  — the four evaluation environments (IE/CBE/TME/IMME).
* :class:`~repro.core.TieredMemoryManager` — the paper's contribution
  (Algorithm 1 allocation, Algorithm 2 replacement, intelligent movement).
* :class:`~repro.core.TieredMemoryClient` — the Table I
  ``allocate_TM``/``free_TM`` API.
* :mod:`~repro.workflows` — the DL/DM/DC/SC evaluation workloads,
  workflow DAGs, and ensembles.
* :mod:`~repro.experiments` — one harness per paper table/figure.
* :mod:`~repro.scenarios` — the declarative scenario layer: typed,
  serializable :class:`~repro.scenarios.ScenarioSpec` specs naming every
  experiment, resolved through the scenario ``REGISTRY``.
* :mod:`~repro.resilience` — supervised sweep execution: retries with
  deterministic backoff, the crash-safe run journal (a killed run
  resumes by running the same command again), and the runtime invariant
  checker.
"""

from importlib import import_module
from typing import TYPE_CHECKING

__version__ = "1.26.0"

_EXPORTS = {
    # environments
    "EnvKind": "repro.envs",
    "Environment": "repro.envs",
    "EnvironmentConfig": "repro.envs",
    "make_environment": "repro.envs",
    # core contribution
    "MemFlag": "repro.core",
    "TieredMemoryManager": "repro.core",
    "TieredMemoryClient": "repro.core",
    "TierAllocator": "repro.core",
    "PageReplacementPolicy": "repro.core",
    "IntelligentPageMovement": "repro.core",
    "FlagPredictor": "repro.core",
    "SharedMemoryManager": "repro.core",
    # memory substrate
    "TierKind": "repro.memory",
    "TierSpec": "repro.memory",
    "PageSet": "repro.memory",
    "NodeMemorySystem": "repro.memory",
    "MemoryTopology": "repro.memory",
    "default_tier_specs": "repro.memory",
    # workflows
    "TaskSpec": "repro.workflows",
    "TaskPhase": "repro.workflows",
    "Workflow": "repro.workflows",
    "WorkloadClass": "repro.workflows",
    "paper_workload_suite": "repro.workflows",
    "paper_batch": "repro.workflows",
    # scheduler / runtime
    "SlurmScheduler": "repro.scheduler",
    "NodeAgent": "repro.runtime",
    "WorkflowManager": "repro.wms",
    # result cache
    "CacheStats": "repro.cache",
    "ResultCache": "repro.cache",
    # fault injection
    "FaultInjector": "repro.faults",
    "FaultKind": "repro.faults",
    "FaultSchedule": "repro.faults",
    "FaultSpec": "repro.faults",
    # scenario layer
    "ScenarioFamily": "repro.scenarios",
    "ScenarioSpec": "repro.scenarios",
    "TierSizing": "repro.scenarios",
    "WorkloadSpec": "repro.scenarios",
    "load_scenario": "repro.scenarios",
    "realize": "repro.scenarios",
    "run_scenario": "repro.scenarios",
    # resilience
    "CellFailure": "repro.resilience",
    "InvariantChecker": "repro.resilience",
    "InvariantViolation": "repro.resilience",
    "RetryPolicy": "repro.resilience",
    "RunJournal": "repro.resilience",
    "SweepFailure": "repro.resilience",
    "supervised_map": "repro.resilience",
    # metrics
    "MetricsRegistry": "repro.metrics",
    "TaskMetrics": "repro.metrics",
    "FaultStats": "repro.metrics",
    # telemetry
    "Telemetry": "repro.obs",
    "TelemetryRecord": "repro.obs",
    # sim
    "SimulationEngine": "repro.sim",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static typing only
    from .cache import CacheStats, ResultCache  # noqa: F401
    from .core import (  # noqa: F401
        FlagPredictor,
        IntelligentPageMovement,
        MemFlag,
        PageReplacementPolicy,
        SharedMemoryManager,
        TierAllocator,
        TieredMemoryClient,
        TieredMemoryManager,
    )
    from .envs import EnvKind, Environment, EnvironmentConfig, make_environment  # noqa: F401
    from .faults import FaultInjector, FaultKind, FaultSchedule, FaultSpec  # noqa: F401
    from .memory import (  # noqa: F401
        MemoryTopology,
        NodeMemorySystem,
        PageSet,
        TierKind,
        TierSpec,
        default_tier_specs,
    )
    from .metrics import FaultStats, MetricsRegistry, TaskMetrics  # noqa: F401
    from .obs import Telemetry, TelemetryRecord  # noqa: F401
    from .resilience import (  # noqa: F401
        CellFailure,
        InvariantChecker,
        InvariantViolation,
        RetryPolicy,
        RunJournal,
        SweepFailure,
        supervised_map,
    )
    from .runtime import NodeAgent  # noqa: F401
    from .scenarios import (  # noqa: F401
        ScenarioFamily,
        ScenarioSpec,
        TierSizing,
        WorkloadSpec,
        load_scenario,
        realize,
        run_scenario,
    )
    from .scheduler import SlurmScheduler  # noqa: F401
    from .sim import SimulationEngine  # noqa: F401
    from .wms import WorkflowManager  # noqa: F401
    from .workflows import (  # noqa: F401
        TaskPhase,
        TaskSpec,
        Workflow,
        WorkloadClass,
        paper_batch,
        paper_workload_suite,
    )
