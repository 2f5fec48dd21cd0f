"""Singularity-like container runtime with a contended image-pull model.

Startup of a containerized task needs its image on the node.  Three paths,
fastest first:

1. **node cache hit** — the image was pulled before; only container
   instantiation time is paid,
2. **shared-CXL staged** (IMME) — the image is read from cluster-shared
   CXL memory at CXL bandwidth, bypassing the network entirely
   (§III-C5 strategy 2, the Fig. 10/11 startup win),
3. **network pull** — the image is fetched from the registry over the
   shared 10 GbE fabric; concurrent pulls share the link max-min fairly,
   which is exactly the §III-C5 "network and I/O bottleneck when a large
   number of workflows access the same data".
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.sharing import SharedMemoryManager
from ..sim.engine import SimulationEngine
from ..sim.process import ProgressTable
from ..util.errors import ContainerError
from ..util.units import GBps
from ..util.validation import check_fraction, check_non_negative, check_positive, require
from .image import ImageRegistry

__all__ = ["NetworkFabric", "ContainerRuntime"]


class NetworkFabric:
    """A shared full-duplex link; active transfers get max-min fair shares.

    All transfers here are same-sized-priority bulk pulls, so the fair
    share degenerates to an equal split — recomputed whenever a transfer
    starts or finishes.  The active pulls are the rows of one
    :class:`~repro.sim.process.ProgressTable`, in start order, draining
    their bytes; the fabric holds one event, at the earliest finish.
    """

    def __init__(self, engine: SimulationEngine, bandwidth: float = GBps(1.25)) -> None:
        check_positive(bandwidth, "bandwidth")
        self.engine = engine
        self.bandwidth = float(bandwidth)  # 10 GbE ≈ 1.25 GB/s
        self.pulls = ProgressTable(engine, "net.pull", self._complete)
        self._on_done: list[Callable[[], None]] = []
        self.completed_transfers = 0
        self.bytes_transferred = 0

    @property
    def active_count(self) -> int:
        return len(self._on_done)

    def transfer(self, nbytes: int, on_done: Callable[[], None]) -> None:
        check_positive(nbytes, "nbytes")
        n = self.active_count
        self.pulls.gather(np.arange(n + 1))  # row n: a new, empty row
        self.pulls.begin(n, float(nbytes))
        self._on_done.append(on_done)
        self.bytes_transferred += int(nbytes)
        self._rebalance()

    def _rebalance(self) -> None:
        n = self.active_count
        if n:
            self.pulls.advance(np.full(n, self.bandwidth / n))
        self.pulls.arm()

    def _complete(self, i: int) -> None:
        self.pulls.gather(np.delete(np.arange(self.active_count), i))
        on_done = self._on_done.pop(i)
        self.completed_transfers += 1
        self._rebalance()
        on_done()


class ContainerRuntime:
    """Per-cluster container manager: image caches, pulls, CXL staging."""

    def __init__(
        self,
        engine: SimulationEngine,
        registry: ImageRegistry,
        fabric: NetworkFabric,
        n_nodes: int,
        *,
        shared_memory: Optional[SharedMemoryManager] = None,
        cxl_read_bandwidth: float = GBps(30.0),
        instantiation_time: float = 0.5,
        max_pull_retries: int = 3,
        pull_retry_backoff: float = 2.0,
        metrics=None,
    ) -> None:
        check_positive(n_nodes, "n_nodes")
        check_positive(cxl_read_bandwidth, "cxl_read_bandwidth")
        check_non_negative(instantiation_time, "instantiation_time")
        require(max_pull_retries >= 0, "max_pull_retries must be >= 0")
        check_non_negative(pull_retry_backoff, "pull_retry_backoff")
        self.engine = engine
        self.registry = registry
        self.fabric = fabric
        self.shared_memory = shared_memory
        self.cxl_read_bandwidth = float(cxl_read_bandwidth)
        self.instantiation_time = float(instantiation_time)
        self.max_pull_retries = int(max_pull_retries)
        self.pull_retry_backoff = float(pull_retry_backoff)
        #: optional :class:`~repro.metrics.collector.MetricsRegistry` whose
        #: ``faults`` counters mirror the retry/fallback activity
        self.metrics = metrics
        self._node_caches: list[set[str]] = [set() for _ in range(n_nodes)]
        #: per-node shared-CXL link health; a flapped link falls back to
        #: network pulls until restored
        self._node_cxl_ok = [True] * n_nodes
        #: registry failure injection: probability a finished network pull
        #: turns out corrupt/refused and must be retried
        self.pull_failure_prob = 0.0
        self._pull_rng = None
        self.cache_hits = 0
        self.cxl_reads = 0
        self.network_pulls = 0
        self.pull_retries = 0
        self.pull_fallbacks = 0
        self.failed_pulls = 0

    # ------------------------------------------------------------------ #
    def stage_image(self, name: str) -> None:
        """Pre-stage an image in shared CXL memory (IMME's scheduler does
        this once per distinct image before a large launch)."""
        require(self.shared_memory is not None, "no shared-memory manager configured")
        image = self.registry.get(name)
        if not self.shared_memory.pool.contains(name):
            self.shared_memory.stage(name, image.size)

    def is_cached(self, node_index: int, name: str) -> bool:
        return name in self._node_caches[node_index]

    # ------------------------------------------------------------------ #
    # fault knobs (driven by the injector)
    # ------------------------------------------------------------------ #
    def set_node_cxl(self, node_index: int, ok: bool) -> None:
        """Mark node ``node_index``'s shared-CXL link up/down; while down,
        staged images degrade to network pulls."""
        self._node_cxl_ok[node_index] = bool(ok)

    def set_pull_failures(self, prob: float, rng=None) -> None:
        """Make network pulls fail with probability ``prob`` (0 disables)."""
        check_fraction(prob, "prob")
        self.pull_failure_prob = float(prob)
        if rng is not None:
            self._pull_rng = rng

    def _record_fault(self, counter: str) -> None:
        if self.metrics is not None:
            stats = self.metrics.faults
            setattr(stats, counter, getattr(stats, counter) + 1)

    # ------------------------------------------------------------------ #
    def prepare(
        self,
        node_index: int,
        image_name: str,
        on_ready: Callable[[], None],
        on_failed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Make ``image_name`` runnable on node ``node_index``; fires
        ``on_ready`` after instantiation completes.

        Transient pull failures are retried with exponential backoff up to
        ``max_pull_retries`` times; if the budget is spent ``on_failed``
        fires (or :class:`ContainerError` is raised when no handler was
        given).
        """
        self._attempt(node_index, image_name, on_ready, on_failed, attempt=0)

    def _attempt(
        self,
        node_index: int,
        image_name: str,
        on_ready: Callable[[], None],
        on_failed: Optional[Callable[[], None]],
        attempt: int,
    ) -> None:
        image = self.registry.get(image_name)

        def instantiate() -> None:
            self._node_caches[node_index].add(image_name)
            self.engine.schedule(self.instantiation_time, on_ready, f"init.{image_name}")

        if image_name in self._node_caches[node_index]:
            self.cache_hits += 1
            instantiate()
            return
        staged = self.shared_memory is not None and self.shared_memory.pool.contains(image_name)
        if staged and self._node_cxl_ok[node_index]:
            # §III-C5: CXL-hosted image, read at CXL bandwidth, then cached
            # in the node's local buffers.
            self.cxl_reads += 1
            self.shared_memory.note_access(node_index, image_name)
            duration = image.size / self.cxl_read_bandwidth
            self.engine.schedule(duration, instantiate, f"cxl-read.{image_name}")
            return
        if staged:
            # flapped CXL link: degrade to the slow path instead of failing
            self.pull_fallbacks += 1
            self._record_fault("pull_fallbacks")
        self.network_pulls += 1

        def pulled() -> None:
            if self._pull_should_fail():
                self._retry(node_index, image_name, on_ready, on_failed, attempt)
                return
            instantiate()

        self.fabric.transfer(image.size, pulled)

    def _pull_should_fail(self) -> bool:
        if self.pull_failure_prob <= 0.0 or self._pull_rng is None:
            return False
        return bool(self._pull_rng.random() < self.pull_failure_prob)

    def _retry(
        self,
        node_index: int,
        image_name: str,
        on_ready: Callable[[], None],
        on_failed: Optional[Callable[[], None]],
        attempt: int,
    ) -> None:
        if attempt + 1 > self.max_pull_retries:
            self.failed_pulls += 1
            if on_failed is not None:
                on_failed()
                return
            raise ContainerError(
                f"image pull for {image_name!r} failed after "
                f"{self.max_pull_retries} retries"
            )
        self.pull_retries += 1
        self._record_fault("pull_retries")
        delay = self.pull_retry_backoff * (2 ** attempt)
        self.engine.schedule(
            delay,
            lambda: self._attempt(node_index, image_name, on_ready, on_failed, attempt + 1),
            f"pull-retry.{image_name}",
        )
