"""Typed description of a steady-state service run.

A :class:`ServiceSpec` turns a scenario from a drain-the-batch experiment
into a *long-lived service*: an open-loop arrival process feeds the
scheduler continuously, windowed metrics are emitted on a report period,
warm-up windows are detected and discarded, and an admission policy
decides which arrivals the cluster accepts.

Like every scenario-layer spec it is plain frozen data — primitives,
pair-tuples, and names into registries — so it serializes losslessly to
TOML/JSON and folds into the scenario digest.  Behaviour lives in the
sibling modules (:mod:`repro.service.arrivals`,
:mod:`repro.service.admission`, :mod:`repro.service.warmup`,
:mod:`repro.service.run`); this module only describes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Tuple, Union

from ..util.validation import check_positive, require

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_SOURCES",
    "WARMUP_METHODS",
    "WARMUP_METRICS",
    "ParamValue",
    "ServiceSpec",
    "sorted_pairs",
]

#: names a :class:`ServiceSpec` may put in ``arrival``
ARRIVAL_SOURCES = ("poisson", "uniform", "trace")
#: names a :class:`ServiceSpec` may put in ``warmup``
WARMUP_METHODS = ("none", "mser-5", "sliding-cv")
#: window series a warm-up detector may watch
WARMUP_METRICS = ("utilization", "queue_depth", "turnaround", "completed")
#: names a :class:`ServiceSpec` may put in ``admission``
ADMISSION_POLICIES = ("accept-all", "queue-cap", "memory-headroom")

#: the only value types allowed in free-form spec params — everything a
#: TOML table can represent losslessly (scenario specs share it)
ParamValue = Union[bool, int, float, str]


def sorted_pairs(mapping: "Mapping[str, Any] | Tuple[Tuple[str, Any], ...]") -> tuple:
    """Normalise a mapping (or pair tuple) into a sorted pair tuple, the
    canonical immutable form every spec stores and its digest hashes."""
    items = mapping.items() if isinstance(mapping, Mapping) else mapping
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class ServiceSpec:
    """How a scenario runs as an open-loop service.

    The arrival *stream* is described here (source, offered rate, class
    mix); the surrounding :class:`~repro.scenarios.spec.ScenarioSpec`
    still describes the cluster and any background batch its workload
    source builds.  Exactly one of ``max_arrivals``/``horizon`` may be
    left unset (0 disables that stop condition; at least one must be
    set).
    """

    #: arrival process: one of :data:`ARRIVAL_SOURCES`
    arrival: str = "poisson"
    #: base offered rate, arrivals/second (poisson/uniform sources)
    rate: float = 0.5
    #: (class name, weight) pairs the stream samples tasks from
    classes: Tuple[Tuple[str, int], ...] = (("DM", 1),)
    #: stop generating after this many arrivals (0 = no count limit)
    max_arrivals: int = 0
    #: stop generating at this simulated time (0 = no time horizon)
    horizon: float = 0.0
    #: report-period length in simulated seconds (one metrics window)
    window: float = 50.0
    #: warm-up detection method: one of :data:`WARMUP_METHODS`
    warmup: str = "mser-5"
    #: which window series the detector watches: :data:`WARMUP_METRICS`
    warmup_metric: str = "utilization"
    #: sliding-cv: coefficient-of-variation threshold for convergence
    cv_threshold: float = 0.10
    #: sliding-cv: trailing windows the CV is computed over
    cv_span: int = 5
    #: admission policy: one of :data:`ADMISSION_POLICIES`
    admission: str = "accept-all"
    #: queue-cap: reject arrivals while the queue is this deep (0 = off)
    queue_cap: int = 0
    #: memory-headroom: required free byte-addressable memory on the
    #: best node, as a multiple of the arriving task's max footprint
    headroom: float = 1.0
    #: run submitted work to completion after arrivals stop; ``False``
    #: truncates the run at the horizon (tasks mid-flight stay unfinished)
    drain: bool = True
    #: source-specific extras: trace path, diurnal/burst modulators, ...
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        require(self.arrival in ARRIVAL_SOURCES,
                f"arrival must be one of {ARRIVAL_SOURCES}, got {self.arrival!r}")
        require(self.warmup in WARMUP_METHODS,
                f"warmup must be one of {WARMUP_METHODS}, got {self.warmup!r}")
        require(self.warmup_metric in WARMUP_METRICS,
                f"warmup_metric must be one of {WARMUP_METRICS}, got {self.warmup_metric!r}")
        require(self.admission in ADMISSION_POLICIES,
                f"admission must be one of {ADMISSION_POLICIES}, got {self.admission!r}")
        check_positive(self.window, "window")
        require(self.max_arrivals >= 0, "max_arrivals must be >= 0")
        require(self.horizon >= 0.0, "horizon must be >= 0")
        require(self.max_arrivals > 0 or self.horizon > 0.0,
                "a service needs a stop condition: max_arrivals or horizon")
        if self.arrival in ("poisson", "uniform"):
            check_positive(self.rate, "rate")
        require(self.cv_span >= 2, "cv_span must be >= 2")
        check_positive(self.cv_threshold, "cv_threshold")
        require(self.queue_cap >= 0, "queue_cap must be >= 0")
        check_positive(self.headroom, "headroom")
        object.__setattr__(self, "classes", sorted_pairs(self.classes))
        object.__setattr__(self, "params", sorted_pairs(self.params))
        require(bool(self.classes), "the stream needs at least one class")
        require(all(int(w) > 0 for _, w in self.classes),
                "class weights must be positive")

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default
