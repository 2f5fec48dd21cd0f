"""Retry policy and failure records for supervised sweeps.

A :class:`RetryPolicy` turns ``(cell key, attempt)`` into a backoff
delay: exponential growth capped at ``max_delay``, with *deterministic*
jitter derived from the cell key (via the same CRC-mixing
:func:`~repro.util.rng.derive_seed` the sweep layer uses for per-cell
seeds).  Two runs of the same sweep therefore retry the same cells after
the same delays — retries are part of the reproducible schedule, not a
source of run-to-run noise.

Cells that exhaust their attempt budget are *quarantined*: the sweep
records a :class:`CellFailure` and keeps going, and the caller receives
every failure at once in a :class:`SweepFailure` (plus the partial
results) instead of dying on the first bad cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..util.rng import derive_seed
from ..util.validation import require

__all__ = ["CellFailure", "RetryPolicy", "SweepFailure", "failure_table"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised sweep retries a failing cell.

    ``delay(key, attempt)`` for attempts ``1..max_attempts - 1`` gives the
    pause before redispatching; once ``max_attempts`` attempts have failed
    the cell is quarantined.  ``jitter`` is the +/- fraction applied to the
    exponential delay, drawn deterministically from ``(key, attempt)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    growth: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "max_attempts must be >= 1")
        require(self.base_delay >= 0, "base_delay must be >= 0")
        require(self.growth >= 1, "growth must be >= 1")
        require(self.max_delay >= self.base_delay, "max_delay must be >= base_delay")
        require(0 <= self.jitter <= 1, "jitter must be in [0, 1]")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before attempt ``attempt + 1`` of cell ``key`` (seconds)."""
        require(attempt >= 1, "attempt numbering starts at 1")
        raw = min(self.max_delay, self.base_delay * self.growth ** (attempt - 1))
        if not self.jitter or not raw:
            return raw
        # deterministic uniform in [-jitter, +jitter): reproducible across
        # processes and runs, unlike random.random()
        unit = derive_seed(attempt, key) % 10**9 / 10**9
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))

    def exhausted(self, attempt: int) -> bool:
        return attempt >= self.max_attempts


@dataclass
class CellFailure:
    """One quarantined cell: what failed, how, and how often it was tried.

    ``kind`` is ``"error"`` (the cell raised), ``"timeout"`` (it blew its
    deadline and the worker was killed), ``"crash"`` (the worker process
    died underneath it), or ``"interrupted"`` (a drain abandoned it).
    ``error`` is the message the journal and failure table show;
    ``exception`` is the raised object itself, kept for
    :func:`~repro.parallel.map_ordered` to re-raise (``None`` unless the
    last attempt raised an exception that pickles).
    """

    key: str
    kind: str
    attempts: int
    error: str = ""
    elapsed: float = 0.0
    context: Dict[str, Any] = field(default_factory=dict)
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        msg = f"{self.key}: {self.kind} after {self.attempts} attempt(s)"
        if self.error:
            msg += f" — {self.error}"
        return msg


class SweepFailure(RuntimeError):
    """Raised after a supervised sweep *completes* with quarantined cells.

    Unlike a propagated worker exception, every other cell has already
    produced its result by the time this is raised; ``results`` carries
    them (keyed like the sweep's normal return value) and ``failures``
    carries one :class:`CellFailure` per quarantined cell.
    """

    def __init__(self, failures: Sequence[CellFailure], results: Optional[dict] = None):
        self.failures: List[CellFailure] = list(failures)
        self.results = dict(results or {})
        super().__init__(
            f"{len(self.failures)} cell(s) quarantined: "
            + ", ".join(f.key for f in self.failures)
        )


def failure_table(failures: Sequence[CellFailure], title: str = "quarantined cells") -> str:
    """Render the per-cell failure table ``run_all`` prints before exiting
    non-zero."""
    from ..metrics.report import format_table

    rows = [
        [f.key, f.kind, float(f.attempts), f.error[:60] or "-"]
        for f in failures
    ]
    return format_table(
        ["cell", "failure", "attempts", "error"],
        rows,
        title=title,
        float_fmt="{:.0f}",
    )
