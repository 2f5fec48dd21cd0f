"""Container runtime tests: registry, contended pulls, caching, CXL staging."""

import pytest

from repro.containers.image import ContainerImage, ImageRegistry, default_images
from repro.containers.runtime import ContainerRuntime, NetworkFabric
from repro.core.sharing import SharedMemoryManager
from repro.memory.topology import SharedCXLPool
from repro.util.errors import ContainerError
from repro.util.units import GB, GBps, GiB, MiB


@pytest.fixture
def registry():
    reg = ImageRegistry()
    reg.add(ContainerImage("app.sif", GB(1)))
    reg.add(ContainerImage("tiny.sif", MiB(10)))
    return reg


def make_runtime(engine, registry, shared=None, n_nodes=2):
    fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
    rt = ContainerRuntime(
        engine, registry, fabric, n_nodes, shared_memory=shared, instantiation_time=0.5
    )
    return rt, fabric


class TestRegistry:
    def test_lookup(self, registry):
        assert registry.get("app.sif").size == GB(1)
        assert "app.sif" in registry
        assert len(registry) == 2

    def test_unknown_image(self, registry):
        with pytest.raises(ContainerError):
            registry.get("ghost.sif")

    def test_default_images_cover_workloads(self):
        reg = default_images()
        for name in ("dl-bert.sif", "dm-spark.sif", "dc-zip.sif", "sc-igraph.sif"):
            assert name in reg


class TestPulls:
    def test_single_pull_duration(self, engine, registry):
        rt, _ = make_runtime(engine, registry)
        ready = []
        rt.prepare(0, "app.sif", lambda: ready.append(engine.now))
        engine.run()
        # 1 GB over 1 GB/s + 0.5s instantiation
        assert ready[0] == pytest.approx(1.5, rel=1e-3)
        assert rt.network_pulls == 1

    def test_concurrent_pulls_share_the_link(self, engine, registry):
        rt, _ = make_runtime(engine, registry)
        ready = []
        rt.prepare(0, "app.sif", lambda: ready.append(engine.now))
        rt.prepare(1, "app.sif", lambda: ready.append(engine.now))
        engine.run()
        # two 1 GB pulls over a shared 1 GB/s link: ~2s each + instantiation
        assert ready[-1] == pytest.approx(2.5, rel=1e-2)

    def test_cache_hit_skips_pull(self, engine, registry):
        rt, fabric = make_runtime(engine, registry)
        rt.prepare(0, "app.sif", lambda: None)
        engine.run()
        t0 = engine.now
        ready = []
        rt.prepare(0, "app.sif", lambda: ready.append(engine.now))
        engine.run()
        assert rt.cache_hits == 1
        assert ready[0] == pytest.approx(t0 + 0.5, rel=1e-3)

    def test_caches_are_per_node(self, engine, registry):
        rt, _ = make_runtime(engine, registry)
        rt.prepare(0, "app.sif", lambda: None)
        engine.run()
        assert rt.is_cached(0, "app.sif")
        assert not rt.is_cached(1, "app.sif")


class TestCXLStaging:
    def make_shared(self):
        return SharedMemoryManager(SharedCXLPool(GiB(8)), n_nodes=2)

    def test_staged_image_read_from_cxl(self, engine, registry):
        shared = self.make_shared()
        rt, fabric = make_runtime(engine, registry, shared=shared)
        rt.stage_image("app.sif")
        ready = []
        rt.prepare(0, "app.sif", lambda: ready.append(engine.now))
        engine.run()
        assert rt.cxl_reads == 1
        assert rt.network_pulls == 0
        assert fabric.completed_transfers == 0
        # CXL read at 30 GB/s is far faster than the 1 GB/s network
        assert ready[0] < 0.6

    def test_stage_requires_shared_manager(self, engine, registry):
        rt, _ = make_runtime(engine, registry, shared=None)
        with pytest.raises(Exception):
            rt.stage_image("app.sif")

    def test_stage_idempotent(self, engine, registry):
        shared = self.make_shared()
        rt, _ = make_runtime(engine, registry, shared=shared)
        rt.stage_image("app.sif")
        rt.stage_image("app.sif")
        assert shared.staged_bytes == GB(1)

    def test_cxl_read_populates_node_cache(self, engine, registry):
        shared = self.make_shared()
        rt, _ = make_runtime(engine, registry, shared=shared)
        rt.stage_image("tiny.sif")
        rt.prepare(1, "tiny.sif", lambda: None)
        engine.run()
        assert rt.is_cached(1, "tiny.sif")
        ready = []
        rt.prepare(1, "tiny.sif", lambda: ready.append(True))
        engine.run()
        assert rt.cache_hits == 1


class TestNetworkFabric:
    def test_bytes_accounted(self, engine):
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        fabric.transfer(GB(2), lambda: None)
        assert fabric.bytes_transferred == GB(2)
        assert fabric.active_count == 1
        engine.run()
        assert fabric.active_count == 0
        assert fabric.completed_transfers == 1

    def test_fairness_late_joiner(self, engine):
        """A transfer that joins halfway slows the first one down."""
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        done = {}
        fabric.transfer(GB(1), lambda: done.setdefault("a", engine.now))
        engine.schedule(0.5, lambda: fabric.transfer(GB(1), lambda: done.setdefault("b", engine.now)))
        engine.run()
        assert done["a"] == pytest.approx(1.5, rel=1e-2)  # 0.5 alone + 1.0 shared
        assert done["b"] == pytest.approx(2.0, rel=1e-2)


def pull_events(engine):
    """The image-pull events still queued in the engine."""
    return [ev for ev in engine._heap if ev.label == "net.pull" and not ev.cancelled]


class TestOnePullEvent:
    """The fabric's pulls are the rows of one progress table: one pending
    event at the earliest finish, whatever the number of pulls."""

    def test_staggered_pulls_finish_at_equal_split_times(self, engine):
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        done = {}
        for name, start, size in (("a", 0.0, GB(3)), ("b", 1.0, GB(1)), ("c", 2.0, GB(1))):
            engine.schedule_at(start, lambda n=name, b=size: fabric.transfer(
                b, lambda: done.setdefault(n, engine.now)))
        engine.run()
        # a alone 0-1 s; a, b split 1-2 s; all three 2-3.5 s (b done);
        # a, c split 3.5-4.5 s (c done); a alone 4.5-5 s
        assert done == {
            "a": pytest.approx(5.0, rel=1e-12),
            "b": pytest.approx(3.5, rel=1e-12),
            "c": pytest.approx(4.5, rel=1e-12),
        }

    def test_equal_pulls_at_one_instant_complete_in_start_order(self, engine):
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        done = []
        for name in ("a", "b"):
            fabric.transfer(GB(1), lambda n=name: done.append((n, engine.now)))
        while engine.step():
            assert len(pull_events(engine)) <= 1
        assert [n for n, _ in done] == ["a", "b"]
        assert [t for _, t in done] == pytest.approx([2.0, 2.0], rel=1e-12)
        assert engine.events_fired == 2  # one fired event per pull

    def test_the_fabric_holds_one_pending_pull_event(self, engine):
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        for i in range(6):
            engine.schedule_at(0.3 * i, lambda i=i: fabric.transfer(GB(1 + i % 3), lambda: None))
        steps = 0
        while engine.step():
            steps += 1
            events = pull_events(engine)
            assert events == ([fabric.pulls.event] if fabric.pulls.event else [])
            assert len(events) == (1 if fabric.active_count else 0)
        assert steps == 12 and fabric.completed_transfers == 6

    def test_overlapping_pulls_schedule_at_most_2k_minus_1_events(self, engine):
        """k pulls started at one instant: one push per start and per
        finish but the last, instead of one per active pull on each."""
        k = 16
        fabric = NetworkFabric(engine, bandwidth=GBps(1.0))
        for _ in range(k):
            fabric.transfer(GB(1), lambda: None)
        engine.run()
        assert fabric.completed_transfers == k
        assert engine.events_scheduled <= 2 * k - 1
