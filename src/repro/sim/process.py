"""Process helpers layered on the event engine.

:class:`PeriodicProcess` models daemons (the per-node memory-management
daemon, metric samplers) that tick at a fixed simulated interval.
:class:`TickGroup` coalesces many such daemons onto *one* heap event per
interval — the engine pops once and services every member callback, so a
64-node cluster costs one event per tick instead of 64.
:class:`ProgressTable` implements the fluid progress model described in
DESIGN.md §4: amounts of *work* drain at *rates* that the surrounding
system may change at any event, and the table keeps one engine event at
the earliest projected finish.  A node's running tasks and the network
fabric's image pulls both drain through it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ..util.errors import SimulationError
from ..util.validation import check_non_negative, check_positive
from .engine import SimulationEngine
from .events import Event

__all__ = ["NO_FINISH", "PeriodicProcess", "ProgressTable", "ReportPeriod", "TickGroup"]


class PeriodicProcess:
    """Invoke a callback every ``interval`` simulated seconds until stopped.

    The callback receives the engine's current time.  The first tick fires
    ``interval`` after :meth:`start` (daemons observe a full interval of
    activity before acting, as kswapd-style scanners do).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        interval: float,
        fn: Callable[[float], Any],
        label: str = "periodic",
    ) -> None:
        check_positive(interval, "interval")
        self.engine = engine
        self.interval = float(interval)
        self.fn = fn
        self.label = label
        self._event: Optional[Event] = None
        self._stopped = True
        self.ticks: int = 0

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if self.running:
            raise SimulationError(f"periodic process {self.label!r} already started")
        self._stopped = False
        self._event = self.engine.schedule(self.interval, self._tick, self.label)

    def stop(self) -> None:
        self._stopped = True
        self.engine.cancel(self._event)
        self._event = None

    def _tick(self) -> None:
        self.ticks += 1
        self.fn(self.engine.now)
        if self._stopped:  # the callback may have stopped us
            return
        self._event = self.engine.schedule(self.interval, self._tick, self.label)


class TickGroup:
    """Coalesced homogeneous periodic events: one engine event per interval
    drives every member callback.

    The per-node daemons of a cluster all tick at the same configured
    interval; scheduling them as N independent :class:`PeriodicProcess`
    events costs N heap pushes/pops per simulated second.  A TickGroup
    keeps *one* pending event and fans each firing out to all members in
    registration order — the callbacks still receive the engine's current
    time, and members added mid-cadence first fire at the group's next
    tick (the daemon is "already running on the node").

    The group's single event is created when the first member joins and
    cancelled when the last leaves, so an idle group costs nothing and the
    engine's live-event counter stays exact (see ``test_sim_engine``).
    """

    def __init__(
        self, engine: SimulationEngine, interval: float, label: str = "tick-group"
    ) -> None:
        check_positive(interval, "interval")
        self.engine = engine
        self.interval = float(interval)
        self.label = label
        self._members: dict[int, Callable[[float], Any]] = {}
        self._next_id = 0
        self._event: Optional[Event] = None
        self._firing = False
        self.ticks: int = 0

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def running(self) -> bool:
        return self._event is not None or self._firing

    def add(self, fn: Callable[[float], Any]) -> int:
        """Join the group; returns a handle for :meth:`remove`."""
        self._next_id += 1
        self._members[self._next_id] = fn
        if self._event is None and not self._firing:
            self._event = self.engine.schedule(self.interval, self._tick, self.label)
        return self._next_id

    def remove(self, handle: int) -> None:
        """Leave the group (idempotent).  The pending event is cancelled
        when the last member leaves, keeping the engine queue exact."""
        self._members.pop(handle, None)
        if not self._members and self._event is not None:
            self.engine.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        self.ticks += 1
        self._event = None
        self._firing = True
        now = self.engine.now
        try:
            # snapshot: members added by a callback join from the next tick;
            # members removed by an earlier callback this tick are skipped
            for handle, fn in list(self._members.items()):
                if handle in self._members:
                    fn(now)
        finally:
            self._firing = False
        if self._members:
            self._event = self.engine.schedule(self.interval, self._tick, self.label)


class ReportPeriod(TickGroup):
    """A :class:`TickGroup` whose members observe *windows*, not ticks.

    The steady-state service layer divides a run into fixed report
    windows; every periodic reporter (metrics sampler, admission
    telemetry, an autoscaling controller later) shares one engine event
    per boundary.  Members receive ``(window_index, window_start,
    window_end)`` — the window that just *closed* — instead of the bare
    clock, and the group tracks window boundaries from its own start
    time so a partial trailing window can be closed explicitly via
    :meth:`close_partial` when the run stops mid-window.
    """

    def __init__(
        self, engine: SimulationEngine, window: float, label: str = "report-period"
    ) -> None:
        super().__init__(engine, window, label)
        self.window = self.interval
        self.origin: float = engine.now
        self.windows_closed: int = 0

    def add_reporter(self, fn: "Callable[[int, float, float], Any]") -> int:
        """Join with window semantics (see class docstring)."""

        def member(_now: float) -> None:
            index = self.windows_closed
            start = self.origin + index * self.window
            self.windows_closed += 1
            fn(index, start, start + self.window)

        return self.add(member)

    def close_partial(self, fn: "Callable[[int, float, float], Any]") -> None:
        """Invoke ``fn`` for the trailing partial window (if the clock sits
        strictly inside one); used when a run stops at a horizon that is
        not a window multiple."""
        start = self.origin + self.windows_closed * self.window
        if self.engine.now > start:
            index = self.windows_closed
            self.windows_closed += 1
            fn(index, start, self.engine.now)


#: a row's projected finish when none is pending (stalled, or just fired)
NO_FINISH = np.inf


class ProgressTable:
    """Amounts of work draining at piecewise-constant rates, one row each,
    with one engine event at the earliest projected finish.

    Row ``i`` holds its work ``left`` (in its owner's units: ideal seconds
    of a task phase, bytes of an image pull), its ``rate``, the time of its
    ``last`` update (NaN before the first), its projected finish ``due``
    (:data:`NO_FINISH` when none is pending) and the engine ``stamp`` that
    orders ``due`` among same-time events.  When the event fires, the row
    it was set for loses its projection and ``on_due(row)`` is called.

    Each projection takes its stamp when it is set: the place in the
    same-time firing order that one event per row, scheduled then, would
    have taken.  So rows due at one instant fire in the order their
    projections were set, one fired event each, and events elsewhere keep
    their order against them.
    """

    #: each column's value in a row that has nothing rated
    EMPTY_ROW = {
        "left": np.zeros(1),
        "rate": np.zeros(1),
        "last": np.full(1, np.nan),
        "due": np.full(1, NO_FINISH),
        "stamp": np.zeros(1, dtype=np.int64),
    }

    def __init__(
        self, engine: SimulationEngine, label: str, on_due: Callable[[int], Any]
    ) -> None:
        self.engine = engine
        self.label = label
        self.on_due = on_due
        self.event: Optional[Event] = None
        for name, empty in self.EMPTY_ROW.items():
            setattr(self, name, empty[:0].copy())

    def gather(self, rows: list[int] | np.ndarray) -> None:
        """Make row ``k`` the old row ``rows[k]``; an index one past the
        last old row makes an empty row."""
        for name, empty in self.EMPTY_ROW.items():
            setattr(self, name, np.concatenate((getattr(self, name), empty))[rows])

    def begin(self, i: int, work: float) -> None:
        """Row ``i`` has ``work`` left to drain and no projection."""
        check_non_negative(work, "work")
        self.left[i] = work
        self.last[i] = np.nan
        self.due[i] = NO_FINISH

    def advance(self, rates: np.ndarray) -> np.ndarray:
        """Install ``rates`` at the engine's time; returns the rows that
        took a new rate.

        A row whose rate is unchanged and whose projection is still pending
        is left alone: progress is linear between rate changes, so its
        projection is right.  Every other row drains ``max(0, left −
        dt·rate)`` at its old rate, takes the new one and re-projects to
        ``now + left / rate`` (``now`` when no work is left, none at rate
        0), taking engine stamps in row order."""
        moved = np.flatnonzero((rates != self.rate) | (self.due == NO_FINISH))
        if not moved.size:
            return moved
        now, rate = self.engine.now, rates[moved]
        if not (rate >= 0).all():
            raise SimulationError(f"{self.label}: rates must be >= 0, got {rate.min()}")
        dt = now - self.last[moved]
        if (dt < -1e-9).any():
            raise SimulationError(f"{self.label}: time went backwards ({np.nanmin(dt)} s)")
        left, old = self.left[moved], self.rate[moved]
        drain = (dt > 0) & (old > 0)
        if drain.any():
            left = np.where(drain, np.maximum(0.0, left - dt * old), left)
            self.left[moved] = left
        self.rate[moved] = rate
        self.last[moved] = now
        due = np.divide(left, rate, out=np.full(moved.size, NO_FINISH), where=rate > 0) + now
        due[left <= 0] = now
        self.due[moved] = due
        projected = moved[due != NO_FINISH]
        if projected.size:
            self.stamp[projected] = self.engine.stamps(projected.size) + np.arange(projected.size)
        return moved

    def earliest(self) -> Optional[int]:
        """The row with the smallest pending ``(due, stamp)``, if any."""
        due = self.due
        if not due.size:
            return None
        i = int(due.argmin())
        if due[i] == NO_FINISH:
            return None
        ties = np.flatnonzero(due == due[i])
        if ties.size > 1:
            i = int(ties[self.stamp[ties].argmin()])
        return i

    def arm(self) -> None:
        """Keep the one event at the earliest projection (re-pushed only
        when that projection or its stamp changes)."""
        i, event = self.earliest(), self.event
        key = None if i is None else (float(self.due[i]), int(self.stamp[i]))
        if event is not None and key == (event.time, event.seq):
            return
        self.engine.cancel(event)
        self.event = None if key is None else self.engine.schedule_at(
            key[0], self._fire, self.label, seq=key[1]
        )

    def _fire(self) -> None:
        self.event = None
        i = self.earliest()
        assert i is not None, f"{self.label} fired with no projection"
        self.due[i] = NO_FINISH
        self.on_due(i)
