"""Resilient sweep execution: supervision, retries, journal, invariants.

The layer that makes long sweeps crash-safe and self-healing:

* :func:`~repro.resilience.supervisor.supervised_map` — the one fork
  pool (:func:`repro.parallel.map_ordered` is a one-attempt call of it):
  per-worker heartbeats, per-cell deadlines, pool replenishment,
  deterministic retry backoff, and poison-cell quarantine,
* :class:`~repro.resilience.journal.RunJournal` — the fsync'd
  append-only ``journal.jsonl`` that makes ``run_all --resume`` and
  ``scenarios run --resume`` safe against SIGKILL,
* :mod:`~repro.resilience.invariants` — the null-object-dispatched
  runtime invariant checker behind ``--check-invariants``.

See ``docs/robustness.md`` for the execution model.
"""

from . import invariants
from .invariants import (
    NULL_CHECKER,
    InvariantChecker,
    InvariantViolation,
    NullInvariantChecker,
)
from .journal import JournalState, RunJournal, journal_path
from .policy import CellFailure, RetryPolicy, SweepFailure, failure_table
from .supervisor import SupervisedResult, supervised_map

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
