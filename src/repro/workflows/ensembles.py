"""Ensemble construction: many realizations of a task with varied inputs.

HPC ensembles run "multiple instances of a task where each member
represents a different realization ... using different input parameters"
(§I).  :func:`make_ensemble` jitters the duration and footprint of a base
spec deterministically (per-member RNG streams), and
:func:`paper_batch` builds the exact instance mixes of Figs. 10 and 11.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Optional, Sequence

import numpy as np

from ..util.rng import RngFactory
from ..util.validation import check_fraction, check_positive, require
from .library import _BUILDERS, PAPER_MIX_FIG10
from .task import TaskSpec, WorkloadClass

__all__ = ["jitter_factors", "jittered_member", "make_ensemble", "paper_batch", "scaled_mix"]


def jitter_factors(
    rng: np.random.Generator, time_jitter: float, size_jitter: float
) -> tuple[float, float]:
    """``(1 + time_jitter * u, 1 + size_jitter * v)``, where ``u`` then
    ``v`` are the next two uniform draws in ``[-1, 1]`` from ``rng`` — the
    one jitter behind ensemble members and service stream tasks."""
    tf = 1.0 + time_jitter * float(rng.uniform(-1.0, 1.0))
    sf = 1.0 + size_jitter * float(rng.uniform(-1.0, 1.0))
    return tf, sf


def jittered_member(sized: TaskSpec, name: str, time_factor: float) -> TaskSpec:
    """``sized`` (a base already ``scaled`` by its size factor) renamed to
    ``name``, its phase durations scaled by ``time_factor``."""
    return replace(
        sized,
        name=name,
        phases=tuple(replace(p, base_time=p.base_time * time_factor) for p in sized.phases),
    )


def make_ensemble(
    base: TaskSpec,
    n: int,
    *,
    rng_factory: Optional[RngFactory] = None,
    time_jitter: float = 0.10,
    size_jitter: float = 0.10,
) -> list[TaskSpec]:
    """``n`` realizations of ``base`` with ±jitter on duration and footprint.

    Jitter is multiplicative and uniform in ``[1-j, 1+j]``; member ``i`` of
    an ensemble is identical across runs with the same factory seed.
    """
    check_positive(n, "n")
    check_fraction(time_jitter, "time_jitter")
    check_fraction(size_jitter, "size_jitter")
    factory = rng_factory if rng_factory is not None else RngFactory(0)
    members = []
    for i in range(n):
        tf, sf = jitter_factors(
            factory.stream(f"ensemble.{base.name}.{i}"), time_jitter, size_jitter
        )
        members.append(jittered_member(base.scaled(sf), f"{base.name}-{i}", tf))
    return members


def scaled_mix(mix: Mapping[WorkloadClass, int], total: int) -> dict[WorkloadClass, int]:
    """Shrink an instance mix to ``total`` instances, preserving ratios.

    Used to run Fig. 10's 2000-instance mix at laptop scale; every class
    keeps at least one instance.
    """
    check_positive(total, "total")
    grand = sum(mix.values())
    require(grand > 0, "mix must contain at least one instance")
    out = {cls: max(1, round(total * count / grand)) for cls, count in mix.items() if count > 0}
    return out


def paper_batch(
    total_instances: int,
    *,
    scale: float = 1.0,
    mix: Optional[Mapping[WorkloadClass, int]] = None,
    rng_factory: Optional[RngFactory] = None,
    classes: Sequence[WorkloadClass] = (
        WorkloadClass.DL,
        WorkloadClass.DM,
        WorkloadClass.DC,
        WorkloadClass.SC,
    ),
) -> list[TaskSpec]:
    """Build the Fig. 10/11 batch: ``total_instances`` tasks in the paper's
    150/1100/150/600 DL/DM/DC/SC ratio (or a custom ``mix``)."""
    base_mix = dict(mix) if mix is not None else dict(PAPER_MIX_FIG10)
    base_mix = {cls: base_mix.get(cls, 0) for cls in classes if base_mix.get(cls, 0) > 0}
    counts = scaled_mix(base_mix, total_instances)
    factory = rng_factory if rng_factory is not None else RngFactory(0)
    batch: list[TaskSpec] = []
    for cls, count in counts.items():
        base = _BUILDERS[cls](name=cls.name.lower(), scale=scale)
        batch.extend(make_ensemble(base, count, rng_factory=factory))
    return batch
