"""Open-loop arrival processes: lazy, deterministic, composable.

These are *generators*, never pre-materialized lists: a service run
holds one pending arrival event at a time, so a stream of millions of arrivals costs O(1) memory.  All
randomness flows through :class:`~repro.util.rng.RngFactory` streams, so
the same spec and seed replay the identical arrival sequence in any
process.

Rate modulation is multiplicative and composable: a diurnal curve and a
bursty square wave both scale the base rate, and inhomogeneous Poisson
streams are produced by thinning against the modulated peak rate — the
standard exact method, and deterministic here because accept/reject draws
come from the same named stream as the candidate gaps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..util.rng import RngFactory
from ..util.validation import check_positive, require
from .spec import ServiceSpec

__all__ = [
    "RateModulator",
    "arrival_process",
    "burst_modulator",
    "diurnal_modulator",
    "load_trace",
    "modulated_rate",
    "poisson_process",
    "trace_process",
    "uniform_process",
]

#: a time-varying rate multiplier (simulated seconds -> factor >= 0)
RateModulator = Callable[[float], float]


# --------------------------------------------------------------------------- #
# modulators
# --------------------------------------------------------------------------- #

def diurnal_modulator(period: float, amplitude: float) -> RateModulator:
    """A sinusoidal day/night load curve: factor in [1-a, 1+a]."""
    check_positive(period, "period")
    require(0.0 <= amplitude <= 1.0, "diurnal amplitude must be in [0, 1]")
    two_pi = 2.0 * np.pi

    def factor(t: float) -> float:
        return 1.0 + amplitude * float(np.sin(two_pi * t / period))

    return factor


def burst_modulator(period: float, duration: float, factor: float) -> RateModulator:
    """A square-wave burst: every ``period`` seconds the rate multiplies by
    ``factor`` for ``duration`` seconds (multi-tenant burst traffic)."""
    check_positive(period, "period")
    check_positive(duration, "duration")
    check_positive(factor, "factor")
    require(duration <= period, "burst duration must fit inside the period")

    def f(t: float) -> float:
        return factor if (t % period) < duration else 1.0

    return f


def modulated_rate(
    base: float, modulators: "List[RateModulator]"
) -> Tuple[Callable[[float], float], float]:
    """Compose modulators onto ``base``; returns (rate(t), peak rate).

    The peak assumes every modulator is at its maximum simultaneously —
    safe (thinning only needs an upper bound) and exact for the factors
    built here (diurnal max = 1+a, burst max = factor).
    """
    peaks = []
    for m in modulators:
        # probe a dense cycle grid: exact for our periodic modulators
        probe = [m(t) for t in np.linspace(0.0, 86400.0, 4097)]
        peaks.append(max(max(probe), 1.0))

    def rate(t: float) -> float:
        r = base
        for m in modulators:
            r *= m(t)
        return r

    peak = base
    for p in peaks:
        peak *= p
    return rate, peak


def _spec_modulators(spec: ServiceSpec) -> "List[RateModulator]":
    mods: List[RateModulator] = []
    if spec.param("diurnal_period") is not None:
        mods.append(
            diurnal_modulator(
                float(spec.param("diurnal_period")),
                float(spec.param("diurnal_amplitude", 0.5)),
            )
        )
    if spec.param("burst_period") is not None:
        mods.append(
            burst_modulator(
                float(spec.param("burst_period")),
                float(spec.param("burst_duration", 10.0)),
                float(spec.param("burst_factor", 4.0)),
            )
        )
    return mods


# --------------------------------------------------------------------------- #
# processes
# --------------------------------------------------------------------------- #

def poisson_process(
    rate: float,
    *,
    rng_factory: RngFactory,
    stream: str = "service.arrivals",
    start: float = 0.0,
    modulators: "Optional[List[RateModulator]]" = None,
) -> Iterator[float]:
    """Yield Poisson arrival times forever (homogeneous, or thinned
    against the modulated peak when modulators are given)."""
    check_positive(rate, "rate")
    rng = rng_factory.fresh(stream)
    t = float(start)
    if not modulators:
        while True:
            t += float(rng.exponential(1.0 / rate))
            yield t
        return  # pragma: no cover - unreachable
    rate_fn, peak = modulated_rate(rate, modulators)
    while True:
        t += float(rng.exponential(1.0 / peak))
        if float(rng.uniform()) * peak < rate_fn(t):
            yield t


def uniform_process(rate: float, *, start: float = 0.0) -> Iterator[float]:
    """Deterministically spaced arrivals at exactly ``rate`` per second."""
    check_positive(rate, "rate")
    interval = 1.0 / rate
    t = float(start)
    while True:
        t += interval
        yield t


def load_trace(path: "str | Path") -> "List[Tuple[float, Optional[str]]]":
    """Read an arrival trace: ``(time, class-or-None)`` rows, sorted.

    Two formats, dispatched on suffix:

    * ``.csv`` — one arrival per line, ``time[,class]``; a header line
      starting with ``time`` is skipped.
    * ``.json`` — a list of numbers, or of ``{"t": ..., "class": ...}``
      objects (``class`` optional).
    """
    p = Path(path)
    require(p.is_file(), f"arrival trace not found: {p}")
    rows: List[Tuple[float, Optional[str]]] = []
    if p.suffix == ".csv":
        for line in p.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [c.strip() for c in line.split(",")]
            if parts[0].lower() in ("time", "t"):
                continue  # header
            cls = parts[1] if len(parts) > 1 and parts[1] else None
            rows.append((float(parts[0]), cls))
    elif p.suffix == ".json":
        data = json.loads(p.read_text(encoding="utf-8"))
        require(isinstance(data, list), "JSON trace must be a list")
        for item in data:
            if isinstance(item, dict):
                rows.append((float(item["t"]), item.get("class")))
            else:
                rows.append((float(item), None))
    else:
        raise ValueError(f"unknown trace format {p.suffix!r} (use .csv or .json)")
    require(bool(rows), f"arrival trace {p} is empty")
    rows.sort(key=lambda r: r[0])
    require(rows[0][0] >= 0.0, "trace arrival times must be >= 0")
    return rows


def trace_process(
    rows: "List[Tuple[float, Optional[str]]]",
    *,
    repeat: float = 0.0,
) -> Iterator[Tuple[float, Optional[str]]]:
    """Replay a loaded trace; with ``repeat`` > 0 the trace loops,
    shifted by ``repeat`` seconds per cycle (a finite log becomes an
    open-loop stream)."""
    offset = 0.0
    while True:
        for t, cls in rows:
            yield offset + t, cls
        if repeat <= 0.0:
            return
        offset += repeat


def arrival_process(
    spec: ServiceSpec, seed: int
) -> Iterator[Tuple[float, Optional[str]]]:
    """The arrival stream ``spec`` describes: ``(time, class-override)``
    pairs, lazily, deterministic in ``seed``."""
    start = float(spec.param("start", 0.0))
    if spec.arrival == "poisson":
        times = poisson_process(
            spec.rate,
            rng_factory=RngFactory(seed),
            start=start,
            modulators=_spec_modulators(spec),
        )
        return ((t, None) for t in times)
    if spec.arrival == "uniform":
        return ((t, None) for t in uniform_process(spec.rate, start=start))
    trace = spec.param("trace")
    require(trace is not None, "trace arrivals need a 'trace' param (file path)")
    return trace_process(
        load_trace(str(trace)), repeat=float(spec.param("trace_repeat", 0.0))
    )
