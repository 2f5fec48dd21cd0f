"""The one run context: telemetry, insight and the invariant checker.

A run scopes its three planes — the :class:`~repro.obs.telemetry.Telemetry`
record, the :class:`~repro.obs.insight.Insight` ledger and series, and the
:class:`~repro.resilience.invariants.InvariantChecker` — through one
:func:`session`, forks them for a pool worker through one
:meth:`RunContext.worker`, and folds a worker's records back through one
:meth:`RunContext.merge`.

The hot-path dispatchers (``obs.counter``/``span``/``event``/...,
``insight.active``, ``invariants.active``) each keep reading their own
module global, so the disabled path stays one function call plus one
no-op method call; :func:`session` is the only code that writes those
globals.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple, Optional, Tuple

from ..resilience import invariants as _invariants
from . import insight as _insight
from . import telemetry as _telemetry

__all__ = ["RunContext", "current", "session"]

#: what a worker's context ships back: one record per recording plane
_Records = Tuple[Optional[_telemetry.TelemetryRecord], Optional[_insight.InsightRecord]]


class RunContext(NamedTuple):
    """The planes a run records into; a disabled plane is its null object."""

    telemetry: "_telemetry.Telemetry | _telemetry.NullTelemetry"
    insight: "_insight.Insight | _insight.NullInsight"
    checker: "_invariants.NullInvariantChecker"

    def worker(self) -> "RunContext":
        """The context a forked pool worker runs a cell under.

        A forked child inherits the parent's live planes, but what it
        records there never reaches the parent — so each live recording
        plane gets a fresh child whose :meth:`snapshot` travels back for
        :meth:`merge`.  The checker only asserts, so it is shared as is.
        """
        meta = {"worker": f"pid{os.getpid()}"}
        tel, ins = self.telemetry, self.insight
        return RunContext(
            _telemetry.Telemetry(run_id=tel.run_id, meta=meta) if tel.enabled else tel,
            _insight.Insight(run_id=ins.run_id, meta=meta) if ins.enabled else ins,
            self.checker,
        )

    def snapshot(self) -> "_Records":
        """Plain, picklable records of the recording planes (``None`` for
        a disabled one)."""
        return self.telemetry.snapshot(), self.insight.snapshot()

    def merge(self, records: "_Records") -> None:
        """Fold a worker's :meth:`snapshot` into this context's planes."""
        tel_record, ins_record = records
        self.telemetry.merge(tel_record)
        self.insight.merge(ins_record)


def current() -> RunContext:
    """The context emissions and checks currently flow into."""
    return RunContext(_telemetry._active, _insight._active, _invariants._active)


def _install(ctx: RunContext) -> None:
    _telemetry._active = ctx.telemetry
    _insight._active = ctx.insight
    _invariants._active = ctx.checker


@contextmanager
def session(
    telemetry: Any = None, *, insight: Any = None, checker: Any = None
) -> Iterator[RunContext]:
    """Scope a run context for the ``with`` body.

    The named planes are installed; an unnamed one (``None``) is inherited
    from the current context.  All three are restored on exit, also when
    the body raises.  Installed before a fork pool spawns, the context is
    what its workers inherit.
    """
    previous = current()
    ctx = RunContext(
        previous.telemetry if telemetry is None else telemetry,
        previous.insight if insight is None else insight,
        previous.checker if checker is None else checker,
    )
    _install(ctx)
    try:
        yield ctx
    finally:
        _install(previous)
