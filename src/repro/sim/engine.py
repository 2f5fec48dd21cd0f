"""Discrete-event simulation engine.

A minimal but complete DES core: a binary-heap event queue over
:class:`~repro.sim.events.Event`, a simulation clock, and lazy cancellation.
Everything in :mod:`repro` that "takes time" (task phases, image pulls,
daemon ticks, job arrivals) is an event on one shared engine.

The engine deliberately has **no global state** — experiments construct one
engine each, which is what makes tests and benchmarks hermetic and
parallel-safe (see the hpc-parallel guidance on reproducible measurement).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from .. import obs
from ..resilience import invariants as inv
from ..util.errors import SimulationError
from .events import Event

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Shared simulation clock and event queue.

    Examples
    --------
    >>> eng = SimulationEngine()
    >>> fired = []
    >>> _ = eng.schedule(2.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now: float = float(start_time)
        self._heap: list[Event] = []
        self._seq: int = 0
        self._live: int = 0
        self._running: bool = False
        self.events_fired: int = 0
        self.events_cancelled: int = 0

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, fn: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``fn`` to fire ``delay`` seconds from now."""
        return self.schedule_at(self.now + delay, fn, label)

    def schedule_at(self, time: float, fn: Callable[[], Any], label: str = "") -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``.

        Raises
        ------
        SimulationError
            If ``time`` precedes the current clock (events cannot fire in
            the past) or is not finite.
        """
        if time != time or time in (float("inf"), float("-inf")):
            raise SimulationError(f"event time must be finite, got {time!r} ({label!r})")
        if time < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self.now} ({label!r})"
            )
        self._seq += 1
        ev = Event(max(time, self.now), self._seq, fn, label)
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel ``event`` if it is pending; a ``None`` argument is a no-op.

        Cancelling an event that already fired (or was already cancelled)
        is also a no-op: ``step`` decremented the live counter when it
        fired, so only a *pending* cancellation may decrement — otherwise
        stale handles held by callers (task completions rescheduled after
        firing, coalesced ticker handles) would double-decrement
        :meth:`pending` and inflate ``events_cancelled``.
        """
        if event is None or event.cancelled or event.fired:
            return
        event.cancel()
        self.events_cancelled += 1
        self._live -= 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        self._drop_cancelled()
        return self._heap[0].time if self._heap else None

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return False
        ev = heapq.heappop(self._heap)
        if ev.time < self.now - 1e-12:  # pragma: no cover - internal invariant
            raise SimulationError(f"clock went backwards: {ev!r} at now={self.now}")
        self.now = ev.time
        self.events_fired += 1
        ev.fired = True
        self._live -= 1
        ev.fn()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When stopping on ``until``, the clock is advanced to exactly
        ``until`` (pending later events stay queued), matching the usual
        "run for T seconds" semantics.
        """
        if self._running:
            raise SimulationError("engine is not re-entrant: run() called from within run()")
        self._running = True
        fired = 0
        # Spans wrap the whole drain, never individual events — step() is
        # the hot path and stays uninstrumented.
        tel_on = obs.enabled()
        if tel_on:
            fired_before = self.events_fired
            run_span = obs.span("sim.run", start=self.now).__enter__()
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                nxt = self.peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
            if tel_on:
                run_span.set(end=self.now)
                run_span.__exit__(None, None, None)
                obs.counter("sim.events_fired", self.events_fired - fired_before)
        if until is not None and self.now < until:
            self.now = until
        # End-of-drain consistency check: the O(1) live counter must still
        # match a heap recount after everything above has fired.
        checker = inv.active()
        if checker.enabled:
            checker.engine(self)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained by ``schedule``/``cancel``/``step``
        rather than a scan of the heap (which grows to hundreds of
        thousands of lazily-cancelled entries in cluster runs).
        """
        return self._live

    @property
    def events_scheduled(self) -> int:
        """Events ever scheduled: fired, cancelled or still pending."""
        return self._seq

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SimulationEngine now={self.now:.6f} pending={self.pending()}>"
