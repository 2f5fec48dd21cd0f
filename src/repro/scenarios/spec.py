"""Typed, versioned scenario specifications.

A :class:`ScenarioSpec` is the one declarative description of an
experiment cell: which environment kind to stand up, how its tiers are
sized relative to the workload, which workload runs on it, and every knob
the paper's evaluation grid sweeps (CXL fraction, allocation policy,
fault schedule, arrival process, ...).  Everything the spec references by
behaviour — allocation policies, workload builders, fault schedules — is
named, not embedded, so a spec serializes losslessly to JSON and TOML and
hashes to a stable :meth:`~ScenarioSpec.digest` that the result cache
folds into its content keys.

The spec is deliberately *plain data*: frozen dataclasses of primitives,
tuples, and enum names.  Turning one into a live cluster is the job of
:mod:`repro.scenarios.build`; grouping related specs into a paper figure
is the job of :class:`ScenarioFamily` and :mod:`repro.scenarios.paper`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from ..envs.environments import EnvKind
from ..service.spec import ParamValue, ServiceSpec, sorted_pairs
from ..util.units import MiB
from ..util.validation import check_positive, require

__all__ = [
    "SPEC_VERSION",
    "DEFAULT_SCALE",
    "DEFAULT_CHUNK",
    "ParamValue",
    "WorkloadSpec",
    "TierSizing",
    "ScenarioSpec",
    "ScenarioFamily",
]

#: bump when the spec schema changes incompatibly; stored in every
#: serialized spec and mixed into every digest
SPEC_VERSION = 1

#: default memory scale relative to the paper's testbed sizes
DEFAULT_SCALE = 1.0 / 64.0
#: default chunk size for scaled-down runs (4 MiB at full scale)
DEFAULT_CHUNK = MiB(1)


@dataclass(frozen=True)
class WorkloadSpec:
    """What runs: a named workload builder plus its plain-data arguments.

    ``source`` keys into :data:`repro.scenarios.workloads.WORKLOAD_SOURCES`;
    the dedicated fields cover the common builders (class mixes, the
    Fig. 10/11 paper batch, per-class ensembles) and ``params`` carries
    source-specific extras (``request_extra``, ``input_bytes``, ...).
    """

    source: str = "colocated-mix"
    scale: float = DEFAULT_SCALE
    #: (class name, instance count) pairs for mix-style sources
    instances_per_class: Tuple[Tuple[str, int], ...] = ()
    #: total batch size for the paper-mix source
    total_instances: int = 0
    #: workload class for single-class sources
    wclass: str = ""
    #: ensemble size for single-class sources
    instances: int = 0
    #: source-specific extras as (name, value) pairs
    params: Tuple[Tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        require(bool(self.source), "workload source must be named")
        check_positive(self.scale, "scale")
        object.__setattr__(self, "instances_per_class", sorted_pairs(self.instances_per_class))
        object.__setattr__(self, "params", sorted_pairs(self.params))

    def mix(self) -> dict:
        """``instances_per_class`` as a ``{WorkloadClass: count}`` dict."""
        from ..workflows.task import WorkloadClass

        return {WorkloadClass[name]: int(n) for name, n in self.instances_per_class}

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class TierSizing:
    """How the environment's tiers are sized relative to the workload.

    DRAM resolves in priority order — ``dram_per_node`` (fixed hardware)
    then ``dram_fraction`` of the workload's aggregate ``basis`` bytes
    split across the cluster — mirroring
    :func:`repro.memory.tiers.scaled_tier_capacities`, which is the single
    implementation.  The Ideal Environment's headroom sizing is a fraction
    > 1 (nothing ever swaps).  ``pmem_capacity``/``cxl_capacity`` of 0
    select the paper's per-node provisioning ratios for tiered kinds.
    """

    dram_fraction: Optional[float] = None
    dram_per_node: Optional[int] = None
    #: which per-task byte count the fractions apply to
    basis: str = "max-footprint"  # or "footprint" | "wss"
    pmem_capacity: int = 0
    cxl_capacity: int = 0
    floor_chunks: int = 16

    _BASES = ("max-footprint", "footprint", "wss")

    def __post_init__(self) -> None:
        require(self.basis in self._BASES, f"sizing basis must be one of {self._BASES}")
        if self.dram_fraction is not None:
            check_positive(self.dram_fraction, "dram_fraction")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment cell (see module docstring)."""

    name: str
    env: EnvKind
    workload: WorkloadSpec = WorkloadSpec()
    sizing: TierSizing = TierSizing(dram_fraction=0.35)
    n_nodes: int = 1
    cores_per_node: int = 64
    chunk_size: int = DEFAULT_CHUNK
    daemon_interval: float = 1.0
    seed: int = 0
    #: TME: force this fraction of each allocation onto CXL (Fig. 6)
    cxl_fraction: Optional[float] = None
    #: named allocation policy (see :mod:`repro.scenarios.policies`);
    #: ``None`` keeps the environment kind's default
    policy: Optional[str] = None
    #: override IMME's image staging (``None`` = the kind's default)
    stage_images: Optional[bool] = None
    #: named fault schedule (see :data:`repro.scenarios.build.FAULT_SCHEDULES`)
    fault_schedule: Optional[str] = None
    fault_seed: int = 0
    #: bare-metal style whole-node allocations (§II-B)
    exclusive: bool = False
    #: steady-state service mode: when set, :func:`repro.scenarios.build`
    #: drives the scenario as an open-loop service (the workload becomes
    #: the *background*; the service stream arrives on top of it)
    service: Optional[ServiceSpec] = None
    max_time: float = 1e7
    spec_version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        require(bool(self.name), "scenario name must be non-empty")
        check_positive(self.n_nodes, "n_nodes")
        check_positive(self.cores_per_node, "cores_per_node")
        check_positive(self.chunk_size, "chunk_size")
        require(
            self.spec_version == SPEC_VERSION,
            f"unsupported scenario spec version {self.spec_version} "
            f"(this build reads version {SPEC_VERSION})",
        )

    # ------------------------------------------------------------------ #
    @property
    def member(self) -> str:
        """The within-family member key (``"fig05/IE"`` → ``"IE"``)."""
        return self.name.split("/", 1)[1] if "/" in self.name else self.name

    def digest(self) -> str:
        """Stable content hash of every field, identical across processes.

        Built on :func:`repro.cache.keys.canonicalize`, so any edit to any
        field — including nested workload/sizing fields — produces a new
        digest, and byte-equal specs always collide.  The result cache
        mixes this into cell content keys so *scenario* edits invalidate
        exactly the cells they describe.
        """
        from ..cache.keys import canonicalize

        h = hashlib.sha256()
        h.update(b"scenario\x1e")
        h.update(canonicalize(self).encode("utf-8"))
        return h.hexdigest()

    def evolve(self, **changes: Any) -> "ScenarioSpec":
        """:func:`dataclasses.replace` with a fluent name."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ScenarioFamily:
    """A named group of scenarios regenerating one figure or experiment."""

    name: str
    description: str
    scenarios: Tuple[ScenarioSpec, ...]

    def __post_init__(self) -> None:
        require(bool(self.scenarios), f"family {self.name!r} has no scenarios")
        members = [s.name for s in self.scenarios]
        require(len(set(members)) == len(members), f"duplicate scenario names in {self.name!r}")
        for s in self.scenarios:
            require(
                s.name == self.name or s.name.startswith(f"{self.name}/"),
                f"scenario {s.name!r} does not belong to family {self.name!r}",
            )

    def get(self, member: str) -> ScenarioSpec:
        for s in self.scenarios:
            if s.name == member or s.member == member:
                return s
        raise KeyError(f"no scenario {member!r} in family {self.name!r}")

    def digest(self) -> str:
        """Order-sensitive hash over every member's digest."""
        h = hashlib.sha256()
        h.update(b"scenario-family\x1e")
        for s in self.scenarios:
            h.update(s.digest().encode("ascii"))
            h.update(b"\x1e")
        return h.hexdigest()

    def __iter__(self):
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)
