"""Crash-safe, append-only run journal (``journal.jsonl``).

The journal is the durable record of a sweep's progress: one JSON object
per line, appended with flush + fsync so a SIGKILL at any instant loses
at most the line being written.  Readers tolerate exactly that failure
mode — a torn trailing line is skipped, never an error — which is the
same contract the result cache's atomic-rename writes give at file
granularity (see :mod:`repro.cache.store`).

Record kinds (the ``ev`` field):

* ``run-started`` — a run began; carries the run id and the planned cells,
* ``cell-started`` — a cell was dispatched (with its attempt number),
* ``cell-committed`` — a cell's result was persisted to the result cache
  (``cached=true`` when it was served from there instead of computed),
* ``cell-failed`` / ``cell-quarantined`` — one attempt failed / the
  retry budget is spent,
* ``run-interrupted`` — SIGINT/SIGTERM stopped the run early; carries
  the cells left without a result,
* ``run-completed`` — the run finished (possibly with quarantined cells).

The journal records; it does not steer.  A killed run resumes by running
the same command again: the content-addressed cache serves every cell
that committed, byte-identically, and only the rest execute — the
re-run's own records show which was which.
:meth:`RunJournal.load_state` replays a journal for inspection.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

__all__ = ["JournalState", "RunJournal", "journal_path"]

#: default journal file name, placed next to the result-cache entries
JOURNAL_NAME = "journal.jsonl"


def journal_path(cache_root: "str | Path") -> Path:
    """The journal's canonical location: inside the run's cache root."""
    return Path(cache_root).expanduser() / JOURNAL_NAME


@dataclass
class JournalState:
    """What a replayed journal says about prior progress."""

    committed: Set[str] = field(default_factory=set)
    quarantined: Set[str] = field(default_factory=set)
    interrupted: bool = False
    completed: bool = False
    runs: int = 0
    records: List[Dict[str, Any]] = field(default_factory=list)

    def is_committed(self, key: str) -> bool:
        return key in self.committed


class RunJournal:
    """Append-only journal for one run directory.

    Every :meth:`record` call appends one complete line and fsyncs it;
    the file handle stays open for the journal's lifetime so a sweep's
    worth of records costs one open.  Instances are *not* shared across
    processes — only the supervising parent writes (workers report back
    through their result pipes), so there is a single writer per file and
    appends never interleave.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def record(self, ev: str, **data: Any) -> None:
        """Append one record durably (write + flush + fsync)."""
        entry = {"t": time.time(), "ev": ev, **data}
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def run_started(self, run_id: str, cells: List[str], **meta: Any) -> None:
        self.record("run-started", run=run_id, cells=cells, **meta)

    def cell_started(self, key: str, attempt: int = 1, **data: Any) -> None:
        self.record("cell-started", cell=key, attempt=attempt, **data)

    def cell_committed(self, key: str, *, cached: bool = False, **data: Any) -> None:
        self.record("cell-committed", cell=key, cached=cached, **data)

    def cell_failed(self, key: str, kind: str, attempt: int, error: str = "") -> None:
        self.record("cell-failed", cell=key, kind=kind, attempt=attempt, error=error)

    def cell_quarantined(self, key: str, kind: str, attempts: int, error: str = "") -> None:
        self.record("cell-quarantined", cell=key, kind=kind, attempts=attempts, error=error)

    def run_interrupted(self, reason: str, pending: List[str]) -> None:
        self.record("run-interrupted", reason=reason, pending=pending)

    def run_completed(self, *, failures: int = 0) -> None:
        self.record("run-completed", failures=failures)

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - close failures are benign
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    @staticmethod
    def load_state(path: "str | Path") -> JournalState:
        """Replay ``path`` into a :class:`JournalState`.

        A missing file is an empty state; a torn trailing line (the one
        write a SIGKILL can interrupt) is skipped.  A cell committed in
        *any* earlier run counts as committed, and a later commit clears
        an earlier quarantine.
        """
        state = JournalState()
        p = Path(path).expanduser()
        if not p.exists():
            return state
        with open(p, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write at the kill point
                if not isinstance(entry, dict):
                    continue
                state.records.append(entry)
                ev = entry.get("ev")
                cell = entry.get("cell")
                if ev == "run-started":
                    state.runs += 1
                    state.completed = False
                    state.interrupted = False
                elif ev == "cell-committed" and cell:
                    state.committed.add(cell)
                    state.quarantined.discard(cell)
                elif ev == "cell-quarantined" and cell:
                    state.quarantined.add(cell)
                elif ev == "run-interrupted":
                    state.interrupted = True
                elif ev == "run-completed":
                    state.completed = True
        return state

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RunJournal({str(self.path)!r})"
