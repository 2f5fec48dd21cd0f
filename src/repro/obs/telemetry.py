"""The unified telemetry backbone: counters, gauges, histograms, spans,
and a structured event sink, all owned by one run-scoped :class:`Telemetry`
context.

Design constraints (why this module looks the way it does):

* **Disabled by default, null-object based.**  Every emission point in the
  stack calls the module-level dispatchers (:func:`counter`, :func:`span`,
  :func:`event`, ...), which forward to the *active* telemetry — a shared
  :class:`NullTelemetry` singleton unless a run explicitly activates a
  real context via :func:`session`.  The disabled path is one function
  call plus one no-op method call, with no branching at the call site;
  ``benchmarks/bench_obs.py`` proves the overhead stays under budget.
* **Two timebases.**  Spans measure *wall clock* (``perf_counter``
  relative to the context's epoch) — they answer "where did the
  simulator's own time go?".  Events carry *simulated* timestamps — they
  unify what :class:`~repro.sim.trace.Tracer` records (task lifecycle,
  faults, daemon ticks) under the same run record.
* **Mergeable across forks.**  :meth:`Telemetry.snapshot` produces a
  plain, picklable :class:`TelemetryRecord`; :meth:`Telemetry.merge`
  folds a worker's record back into the parent — counters sum, spans are
  re-parented under the caller's open span, events keep their worker
  annotation — so a ``jobs=N`` sweep yields the same counter totals and
  span tree as a sequential run (modulo wall-clock values).

Everything here is stdlib-only and imports nothing else from
:mod:`repro`, so any layer of the stack can emit without import cycles.
"""

from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL",
    "NullTelemetry",
    "SpanRecord",
    "Telemetry",
    "TelemetryRecord",
    "activate",
    "active",
    "add_label",
    "counter",
    "enabled",
    "event",
    "gauge",
    "observe",
    "session",
    "span",
    "split_label",
    "worker_telemetry",
]


# --------------------------------------------------------------------------- #
# metric keys
# --------------------------------------------------------------------------- #

def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical counter/gauge key: ``name`` or ``name{k=v,k2=v2}`` with
    labels sorted, so the same logical series always lands in one slot."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_label(key: str) -> "tuple[str, dict[str, str]]":
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: dict[str, str] = {}
    for part in inner[:-1].split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def add_label(key: str, **extra: Any) -> str:
    """Return ``key`` with ``extra`` labels folded in (used by scoped
    merges to attribute a child record's counters, e.g. ``exp=fig05``)."""
    name, labels = split_label(key)
    labels.update({k: str(v) for k, v in extra.items()})
    return metric_key(name, labels)


# --------------------------------------------------------------------------- #
# records
# --------------------------------------------------------------------------- #

@dataclass
class SpanRecord:
    """One closed wall-clock span.

    ``start``/``end`` are seconds relative to the owning record's
    ``epoch_wall``; ``parent_id`` is ``None`` for root spans.  ``worker``
    is empty for the main process and the forwarding worker's id for
    spans merged in from a pool worker.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    worker: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class TelemetryRecord:
    """Plain, picklable, JSON-round-trippable snapshot of one context."""

    run_id: str
    meta: Dict[str, Any] = field(default_factory=dict)
    epoch_wall: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, List[float]] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    workers: List[str] = field(default_factory=list)
    dropped_spans: int = 0
    dropped_events: int = 0
    dropped_observations: int = 0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TelemetryRecord":
        payload = dict(data)
        payload["spans"] = [SpanRecord(**s) for s in payload.get("spans", [])]
        return cls(**payload)

    # ------------------------------------------------------------------ #
    def span_children(self) -> Dict[Optional[int], List[SpanRecord]]:
        """``parent_id -> children`` index, in recording order."""
        tree: Dict[Optional[int], List[SpanRecord]] = {}
        for s in self.spans:
            tree.setdefault(s.parent_id, []).append(s)
        return tree

    def span_tree_shape(self) -> "list[tuple[str, Optional[str]]]":
        """``(name, parent name)`` pairs, sorted — the wall-clock-free
        shape of the span tree, used by the merge-determinism tests."""
        by_id = {s.span_id: s for s in self.spans}
        shape = [
            (s.name, by_id[s.parent_id].name if s.parent_id in by_id else None)
            for s in self.spans
        ]
        return sorted(shape)


# --------------------------------------------------------------------------- #
# null objects (the disabled hot path)
# --------------------------------------------------------------------------- #

class _NullSpan:
    """Reusable no-op context manager; one shared instance, zero state."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Telemetry that records nothing — the default active context.

    Every method is a no-op; :meth:`span` hands back one shared null
    context manager, so ``with obs.span(...)`` costs three cheap calls
    and zero allocations on the disabled path.
    """

    enabled = False
    run_id = ""

    def counter(self, name: str, value: float = 1, **labels: Any) -> None:
        pass

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, time: float, category: str, subject: str, **data: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> None:
        return None

    def merge(self, record: Any, **kwargs: Any) -> None:
        pass


NULL = NullTelemetry()


# --------------------------------------------------------------------------- #
# the live context
# --------------------------------------------------------------------------- #

class _Span:
    """Open span handle; closing it (context exit) records a SpanRecord."""

    __slots__ = ("_tel", "span_id", "parent_id", "name", "attrs", "_start")

    def __init__(
        self,
        tel: "Telemetry",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self._tel = tel
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self._start = 0.0

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._tel._stack.append(self.span_id)
        return self

    def __exit__(self, *exc: Any) -> bool:
        end = time.perf_counter()
        tel = self._tel
        if tel._stack and tel._stack[-1] == self.span_id:
            tel._stack.pop()
        tel._close_span(self, end)
        return False


class Telemetry:
    """One run's telemetry context.

    Parameters
    ----------
    run_id:
        Name of the run, stamped into every export.
    meta:
        Free-form provenance (scenario digests, CLI args, worker id...).
    max_spans / max_events / max_observations:
        Ring bounds; overflow is dropped (newest-first for spans and
        events) and counted, never an error.
    """

    enabled = True

    def __init__(
        self,
        run_id: str = "run",
        meta: Optional[Dict[str, Any]] = None,
        *,
        max_spans: int = 200_000,
        max_events: int = 500_000,
        max_observations: int = 100_000,
    ) -> None:
        self.run_id = str(run_id)
        self.meta: Dict[str, Any] = dict(meta or {})
        self.epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()
        self.max_spans = int(max_spans)
        self.max_events = int(max_events)
        self.max_observations = int(max_observations)
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}
        self._spans: List[SpanRecord] = []
        self._stack: List[int] = []
        self._next_span_id = 0
        self._events: "deque[Dict[str, Any]]" = deque()
        self._workers: List[str] = []
        self.dropped_spans = 0
        self.dropped_events = 0
        self.dropped_observations = 0

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def counter(self, name: str, value: float = 1, **labels: Any) -> None:
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[metric_key(name, labels)] = float(value)

    def observe(self, name: str, value: float) -> None:
        bucket = self._histograms.setdefault(name, [])
        if len(bucket) >= self.max_observations:
            self.dropped_observations += 1
            return
        bucket.append(float(value))

    # ------------------------------------------------------------------ #
    # spans (wall clock)
    # ------------------------------------------------------------------ #
    def span(self, name: str, **attrs: Any) -> _Span:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_span_id
        self._next_span_id += 1
        return _Span(self, span_id, parent, name, attrs)

    def _close_span(self, span: _Span, end: float) -> None:
        if len(self._spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        self._spans.append(
            SpanRecord(
                span_id=span.span_id,
                parent_id=span.parent_id,
                name=span.name,
                start=span._start - self._epoch_perf,
                end=end - self._epoch_perf,
                attrs=span.attrs,
            )
        )

    # ------------------------------------------------------------------ #
    # events (simulated time)
    # ------------------------------------------------------------------ #
    def event(self, time: float, category: str, subject: str, **data: Any) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            self._events.popleft()
        self._events.append({"t": float(time), "cat": category, "subj": subject, **data})

    # ------------------------------------------------------------------ #
    # snapshot / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> TelemetryRecord:
        """Freeze the current state into a plain record (copies, so the
        context may keep accumulating)."""
        return TelemetryRecord(
            run_id=self.run_id,
            meta=dict(self.meta),
            epoch_wall=self.epoch_wall,
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            histograms={k: list(v) for k, v in self._histograms.items()},
            spans=[
                SpanRecord(s.span_id, s.parent_id, s.name, s.start, s.end, s.worker, dict(s.attrs))
                for s in self._spans
            ],
            events=list(self._events),
            workers=list(self._workers),
            dropped_spans=self.dropped_spans,
            dropped_events=self.dropped_events,
            dropped_observations=self.dropped_observations,
        )

    def merge(
        self,
        record: Optional[TelemetryRecord],
        *,
        worker: Optional[str] = None,
        scope: Optional[str] = None,
    ) -> None:
        """Fold a child record (pool worker, per-experiment session) in.

        Counters sum and gauges overwrite; with ``scope`` every counter
        and gauge key additionally gets an ``exp=<scope>`` label so
        per-experiment rollups survive aggregation.  The child's root
        spans are re-parented under the currently open span, which is
        what makes a fanned-out sweep's span tree identical in shape to
        the sequential one.
        """
        if record is None:
            return
        worker_id = worker if worker is not None else str(record.meta.get("worker", ""))
        for key, value in record.counters.items():
            if scope is not None:
                key = add_label(key, exp=scope)
            self._counters[key] = self._counters.get(key, 0) + value
        for key, value in record.gauges.items():
            if scope is not None:
                key = add_label(key, exp=scope)
            self._gauges[key] = value
        for name, values in record.histograms.items():
            bucket = self._histograms.setdefault(name, [])
            room = self.max_observations - len(bucket)
            bucket.extend(values[:room])
            self.dropped_observations += max(0, len(values) - room)
        offset = self._next_span_id
        attach_to = self._stack[-1] if self._stack else None
        for s in record.spans:
            parent = s.parent_id + offset if s.parent_id is not None else attach_to
            if len(self._spans) >= self.max_spans:
                self.dropped_spans += 1
                continue
            self._spans.append(
                SpanRecord(
                    span_id=s.span_id + offset,
                    parent_id=parent,
                    name=s.name,
                    start=s.start + (record.epoch_wall - self.epoch_wall),
                    end=s.end + (record.epoch_wall - self.epoch_wall),
                    worker=s.worker or worker_id,
                    attrs=dict(s.attrs),
                )
            )
        self._next_span_id += max((s.span_id for s in record.spans), default=-1) + 1
        for ev in record.events:
            if len(self._events) >= self.max_events:
                self.dropped_events += 1
                self._events.popleft()
            out = dict(ev)
            if worker_id and "worker" not in out:
                out["worker"] = worker_id
            self._events.append(out)
        if worker_id and worker_id not in self._workers:
            self._workers.append(worker_id)
        for w in record.workers:
            if w not in self._workers:
                self._workers.append(w)
        self.dropped_spans += record.dropped_spans
        self.dropped_events += record.dropped_events
        self.dropped_observations += record.dropped_observations

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Telemetry {self.run_id!r} counters={len(self._counters)} "
            f"spans={len(self._spans)} events={len(self._events)}>"
        )


# --------------------------------------------------------------------------- #
# module-level dispatch (what the stack's emission points call)
# --------------------------------------------------------------------------- #

_active: "Telemetry | NullTelemetry" = NULL


def active() -> "Telemetry | NullTelemetry":
    """The telemetry context emissions currently flow into."""
    return _active


def enabled() -> bool:
    return _active.enabled


def activate(tel: "Telemetry | NullTelemetry") -> "Telemetry | NullTelemetry":
    """Install ``tel`` as the active context; returns the previous one."""
    global _active
    previous = _active
    _active = tel
    return previous


@contextmanager
def session(tel: "Telemetry | NullTelemetry") -> Iterator["Telemetry | NullTelemetry"]:
    """Scope ``tel`` as the active context for the ``with`` body."""
    previous = activate(tel)
    try:
        yield tel
    finally:
        activate(previous)


def counter(name: str, value: float = 1, **labels: Any) -> None:
    _active.counter(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    _active.gauge(name, value, **labels)


def observe(name: str, value: float) -> None:
    _active.observe(name, value)


def event(time: float, category: str, subject: str, **data: Any) -> None:
    _active.event(time, category, subject, **data)


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    return _active.span(name, **attrs)


def worker_telemetry() -> Optional[Telemetry]:
    """A fresh child context for a forked pool worker, or ``None`` when
    telemetry is disabled (the worker then runs bare).

    Forked children inherit the parent's active context object; mutating
    it would be invisible to the parent, so the pool worker
    (:mod:`repro.resilience.supervisor`) swaps in a fresh context, runs
    the work item, and ships the snapshot back for :meth:`Telemetry.merge`.
    """
    if not _active.enabled:
        return None
    return Telemetry(run_id=_active.run_id, meta={"worker": f"pid{os.getpid()}"})
