"""Shared fixtures: small tier specs, nodes, agents, and task builders.

Everything here is sized in KiB/MiB so the whole suite runs in seconds;
the policies only ever see ratios, so small sizes exercise the same code
paths as testbed-scale ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.flags import MemFlag
from repro.memory.pageset import PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP, TierKind, TierSpec
from repro.metrics.collector import MetricsRegistry
from repro.policies.base import PolicyContext
from repro.resilience import InvariantChecker
from repro.sim.engine import SimulationEngine
from repro.util.units import GBps, KiB, MiB, ns, us
from repro.workflows.patterns import HotColdPattern
from repro.workflows.task import TaskPhase, TaskSpec, WorkloadClass

CHUNK = KiB(64)


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the default result cache at a per-session temp dir.

    ``run_all`` caches by default; without this, test runs would write to
    (and on re-runs read from) the user's ~/.cache, coupling test results
    to whatever earlier runs left behind.
    """
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("result-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def small_specs(
    dram=MiB(4), pmem=MiB(8), cxl=MiB(64), swap=MiB(64)
) -> dict[TierKind, TierSpec]:
    """Four tiers with testbed-like latencies but tiny capacities."""
    return {
        DRAM: TierSpec(DRAM, dram, ns(80), GBps(100), GBps(80), "ddr"),
        PMEM: TierSpec(PMEM, pmem, ns(300), GBps(30), GBps(8), "ddr-t"),
        CXL: TierSpec(CXL, cxl, ns(140), GBps(30), GBps(25), "cxl"),
        SWAP: TierSpec(SWAP, swap, us(90), GBps(2.5), GBps(1.5), "nvme", byte_addressable=False),
    }


@pytest.fixture
def specs():
    return small_specs()


@pytest.fixture
def node(specs):
    return NodeMemorySystem(specs, node_id="test-node")


@pytest.fixture
def ctx(node):
    return PolicyContext(memory=node, rng=np.random.default_rng(7))


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def checked():
    """The strict runtime invariant checker, active for the whole test:
    every node agent's daemon tick then also validates its memory."""
    with obs.session(checker=InvariantChecker()) as run:
        yield run.checker


def make_pageset(
    node: NodeMemorySystem, owner: str, nbytes: int, chunk_size: int = CHUNK
) -> PageSet:
    """Registered pageset with every chunk in region 0 (ready to place)."""
    ps = PageSet(owner, nbytes, chunk_size)
    ps.region[:] = 0
    ps.region_flags[0] = MemFlag.NONE
    node.register(ps)
    return ps


def simple_task(
    name: str = "t0",
    footprint: int = MiB(1),
    *,
    base_time: float = 10.0,
    lat_frac: float = 0.3,
    bw_frac: float = 0.2,
    demand_bandwidth: float = GBps(1.0),
    flags: MemFlag = MemFlag.NONE,
    n_phases: int = 1,
    cores: int = 1,
    wclass: WorkloadClass = WorkloadClass.GENERIC,
) -> TaskSpec:
    phases = tuple(
        TaskPhase(
            name=f"p{i}",
            base_time=base_time,
            compute_frac=1.0 - lat_frac - bw_frac,
            lat_frac=lat_frac,
            bw_frac=bw_frac,
            demand_bandwidth=demand_bandwidth,
            pattern=HotColdPattern(hot_fraction=0.25, hot_share=0.9),
        )
        for i in range(n_phases)
    )
    return TaskSpec(
        name=name,
        wclass=wclass,
        footprint=footprint,
        wss=max(1, footprint // 2),
        phases=phases,
        flags=flags,
        cores=cores,
    )
