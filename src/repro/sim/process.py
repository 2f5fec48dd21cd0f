"""Process helpers layered on the event engine.

:class:`TickGroup` is the simulator's one periodic clock.  Every process
that acts on a fixed simulated interval rides one: the per-node
memory-management daemons (an environment's shared group, one engine
event per cluster-wide tick), the fault injector, the utilization sampler
and a service run's report windows.
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
from ..util.validation import check_non_negative, check_positive, require
from .engine import SimulationEngine
from .events import Event

__all__ = ["NO_FINISH", "ProgressTable", "TickGroup"]


class TickGroup:
    """Periodic callbacks: one engine event per ``interval`` drives every
    member.

    The group keeps *one* pending event and fans each firing out to its
    members in the order their handles were issued; a callback receives
    the engine's current time.  The first tick fires ``interval`` after the
    first member joins (a daemon observes a full interval of activity
    before acting, as kswapd-style scanners do); a member added
    mid-cadence first fires at the group's next tick (the daemon is
    "already running on the node").  A member that leaves and rejoins with
    its old handle fires at its old place again.

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
    def running(self) -> bool:
        return self._event is not None or self._firing

    def __contains__(self, handle: object) -> bool:
        return handle in self._members

    def add(self, fn: Callable[[float], Any], handle: Optional[int] = None) -> int:
        """Join the group; returns a handle for :meth:`remove`.  Passing a
        handle this group issued earlier rejoins at that member's place."""
        if handle is None:
            self._next_id += 1
            handle = self._next_id
        require(0 < handle <= self._next_id, f"{self.label}: handle {handle} was not issued here")
        self._members[handle] = fn
        if handle != self._next_id:  # a rejoin: back to its place in handle order
            self._members = dict(sorted(self._members.items()))
        if self._event is None and not self._firing:
            self._event = self.engine.schedule(self.interval, self._tick, self.label)
        return handle

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
            # snapshot: members joining during the sweep first fire at the
            # next tick; members removed by an earlier callback are skipped
            for handle, fn in list(self._members.items()):
                if handle in self._members:
                    fn(now)
        finally:
            self._firing = False
        if self._members:
            self._event = self.engine.schedule(self.interval, self._tick, self.label)


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
