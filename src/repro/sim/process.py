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

    The columns live in one row-major block per dtype, so a :meth:`gather`
    moves every column in one take per block.  Each column attribute is a
    view of its block, rebound by :meth:`gather` alone; writing through it
    writes the block.
    """

    #: each column's value in a row that has nothing rated: ``shape (1,)``
    #: for a scalar column, ``(1, k)`` for a ``k``-wide one
    EMPTY_ROW = {
        "left": np.zeros(1),
        "rate": np.zeros(1),
        "last": np.full(1, np.nan),
        "due": np.full(1, NO_FINISH),
        "stamp": np.zeros(1, dtype=np.int64),
    }

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._pack()

    @classmethod
    def _pack(cls) -> None:
        """Lay :attr:`EMPTY_ROW`'s columns out in one block per dtype: each
        block's empty row, and each column's block and index in it."""
        dtypes = list(dict.fromkeys(empty.dtype for empty in cls.EMPTY_ROW.values()))
        rows: dict[np.dtype, list] = {dtype: [] for dtype in dtypes}
        views = []
        for name, empty in cls.EMPTY_ROW.items():
            row = rows[empty.dtype]
            start = len(row)
            row.extend(empty.ravel().tolist())
            index = start if empty.ndim == 1 else slice(start, len(row))
            views.append((name, dtypes.index(empty.dtype), (slice(None), index)))
        cls._EMPTY_BLOCKS = tuple(np.array([rows[dtype]], dtype=dtype) for dtype in dtypes)
        cls._VIEWS = tuple(views)

    def __init__(
        self, engine: SimulationEngine, label: str, on_due: Callable[[int], Any]
    ) -> None:
        self.engine = engine
        self.label = label
        self.on_due = on_due
        self.event: Optional[Event] = None
        self._blocks = [empty[:0].copy() for empty in self._EMPTY_BLOCKS]
        self._bind()

    def _bind(self) -> None:
        blocks = self._blocks
        for name, k, index in self._VIEWS:
            setattr(self, name, blocks[k][index])

    def gather(self, rows: list[int] | np.ndarray) -> None:
        """Make row ``k`` the old row ``rows[k]``; an index one past the
        last old row makes an empty row."""
        rows = np.asarray(rows, dtype=np.intp)
        self._blocks = [
            np.concatenate((block, empty)).take(rows, axis=0)
            for block, empty in zip(self._blocks, self._EMPTY_BLOCKS)
        ]
        self._bind()

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
        moved = ((rates != self.rate) | (self.due == NO_FINISH)).nonzero()[0]
        if not moved.size:
            return moved
        now, rate = self.engine.now, rates[moved]
        low = rate.min()
        if not low >= 0:  # negative or NaN
            raise SimulationError(f"{self.label}: rates must be >= 0, got {low}")
        dt = now - self.last[moved]
        back = np.fmin.reduce(dt)  # a new row's NaN ``last`` is ignored
        if back < -1e-9:
            raise SimulationError(f"{self.label}: time went backwards ({back} s)")
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
            first = self.engine.stamps(projected.size)
            self.stamp[projected] = np.arange(first, first + projected.size)
        return moved

    def earliest(self) -> Optional[int]:
        """The row with the smallest pending ``(due, stamp)``, if any."""
        due = self.due
        if not due.size:
            return None
        i = due.argmin()
        first = due[i]
        if first == NO_FINISH:
            return None
        ties = (due == first).nonzero()[0]
        if ties.size > 1:
            i = ties[self.stamp[ties].argmin()]
        return int(i)

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


# a subclass is packed when it is defined; the base class is packed here
ProgressTable._pack()
