"""Resilient sweep execution: supervision, retries, journal, invariants.

The layer that makes long sweeps crash-safe and self-healing:

* :func:`~repro.resilience.supervisor.supervised_map` — the one
  execution path for cells, inline or on a fork pool
  (:func:`repro.parallel.map_ordered` is a one-attempt call of it):
  per-worker heartbeats, per-cell deadlines, pool replenishment,
  deterministic retry backoff, and poison-cell quarantine,
* :class:`~repro.resilience.journal.RunJournal` — the fsync'd
  append-only ``journal.jsonl`` recording every run's progress; a run
  killed even by SIGKILL resumes by running the same command again, as
  the result cache serves every cell that committed,
* :mod:`~repro.resilience.invariants` — the null-object-dispatched
  runtime invariant checker behind ``--check-invariants``.

See ``docs/robustness.md`` for the execution model.

Only :mod:`~repro.resilience.invariants` loads with the package, as every
simulation imports it; the journal, retry policy and supervisor (with
:mod:`multiprocessing`) load when a sweep first asks for one of their
names.
"""

from . import invariants
from .invariants import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantViolation,
    NullInvariantChecker,
)

__all__ = [
    "CellFailure",
    "InvariantChecker",
    "InvariantViolation",
    "JournalState",
    "NULL_CHECKER",
    "NullInvariantChecker",
    "RetryPolicy",
    "RunJournal",
    "SupervisedResult",
    "SweepFailure",
    "failure_table",
    "invariants",
    "journal_path",
    "supervised_map",
]


def __getattr__(name: str):
    # PEP 562.  One literal import per group, so the static import closure
    # (repro.cache.fingerprint) still sees every submodule.  Submodule names
    # are not mapped: ``from . import journal`` would land back here.
    if name in ("JournalState", "RunJournal", "journal_path"):
        from .journal import JournalState, RunJournal, journal_path
    elif name in ("CellFailure", "RetryPolicy", "SweepFailure", "failure_table"):
        from .policy import CellFailure, RetryPolicy, SweepFailure, failure_table
    elif name in ("SupervisedResult", "supervised_map"):
        from .supervisor import SupervisedResult, supervised_map
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return locals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
