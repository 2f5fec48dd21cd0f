"""Kernel references and frozen fingerprints for the exact arena core.

The arena is the simulator's one per-chunk storage layout; its exact
mode (``arena``, the default) must make the same decisions the retired
per-pageset ``object`` layout made.  These tests pin that contract two
ways:

* property-based (hypothesis) state generation drives each whole-node
  kernel and a test-local per-pageset reference — the loop the kernel
  replaced — over randomized node states built twice with identically
  seeded RNGs, asserting exact (bit-level) agreement of outputs and RNG
  stream positions;
* end-to-end runs — all four environments, the baseline policies, and
  fault injection (tier-offline + node crash) — compare full per-task
  metric fingerprints against ``tests/data/exact_core.json``, frozen
  while the object layout and the arena still ran side by side and
  agreed bit for bit.

Plus unit tests for the arena's own mechanics: adopt/release segment
reuse, growth re-pointing live views, and the write-through PageSet
array properties that keep external rebinds (``ps.temperature = ...``)
from detaching arena views.

Re-baseline the frozen file deliberately, and only with a documented
reason, with ``PYTHONPATH=src python tests/test_arena.py``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.arena import BACKEND_ARENA, BACKEND_ARENA_FAST, BACKENDS, resolve_backend
from repro.core.flags import MemFlag
from repro.core.heatmap import PageHeatmap
from repro.core.replacement import PageReplacementPolicy, is_protected
from repro.envs.environments import EnvKind
from repro.faults.spec import FaultKind, FaultSchedule, FaultSpec
from repro.memory.pageset import UNMAPPED, PageSet
from repro.memory.system import NodeMemorySystem
from repro.memory.tiers import CXL, DRAM, PMEM, SWAP
from repro.policies.autonuma import AutoNumaPolicy
from repro.policies.base import PolicyContext
from repro.policies.interleave import UniformInterleavePolicy
from repro.policies.linux import global_coldest
from repro.util.rng import RngFactory
from repro.workflows.ensembles import paper_batch

from conftest import CHUNK, small_specs

EQ = settings(max_examples=30, deadline=None)

TIER_VALUES = (int(DRAM), int(PMEM), int(CXL), int(SWAP), int(UNMAPPED))
FLAG_CHOICES = (MemFlag.NONE, MemFlag.LAT, MemFlag.BW, MemFlag.SHL)

#: exact-core outputs frozen before the object layout was retired
EXACT_CORE_FILE = Path(__file__).parent / "data" / "exact_core.json"


def frozen_exact_core() -> dict:
    return json.loads(EXACT_CORE_FILE.read_text())


def as_json(value):
    """``value`` as it reads back from the frozen file (tuples -> lists)."""
    return json.loads(json.dumps(value))


# --------------------------------------------------------------------------- #
# randomized node states
# --------------------------------------------------------------------------- #


@st.composite
def node_states(draw, max_tasks=4, max_chunks=40):
    """A list of per-task states: tiers, temperatures, pinned bits, flags."""
    n_tasks = draw(st.integers(1, max_tasks))
    tasks = []
    for _ in range(n_tasks):
        n = draw(st.integers(1, max_chunks))
        tasks.append(
            {
                "n": n,
                "chunk": CHUNK * draw(st.sampled_from([1, 2])),
                "tiers": draw(
                    st.lists(st.sampled_from(TIER_VALUES), min_size=n, max_size=n)
                ),
                "temps": draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=1.0, width=32),
                        min_size=n,
                        max_size=n,
                    )
                ),
                "pinned": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                "shadow": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                "flags": draw(st.sampled_from(FLAG_CHOICES)),
            }
        )
    return tasks


def build_node(tasks, seed=11):
    """Stand up one exact-core node with the given task states applied.

    Arrays are written through the PageSet properties *after* register,
    exactly the rebind pattern external code uses — so this also
    exercises the write-through path on every example.
    """
    node = NodeMemorySystem(small_specs(), "eq", backend=BACKEND_ARENA)
    ctx = PolicyContext(memory=node, rng=np.random.default_rng(seed))
    flags = {}
    for i, td in enumerate(tasks):
        ps = PageSet(f"t{i}", td["n"] * td["chunk"], td["chunk"])
        ps.region[:] = 0
        ps.region_flags[0] = td["flags"]
        node.register(ps)
        ps.tier = np.asarray(td["tiers"], dtype=ps.tier.dtype)
        ps.temperature = np.asarray(td["temps"], dtype=np.float32)
        ps.access_weight = np.asarray(td["temps"], dtype=np.float32) ** 2
        ps.pinned = np.asarray(td["pinned"], dtype=bool)
        ps.in_page_cache = np.asarray(td["shadow"], dtype=bool)
        flags[ps.owner] = td["flags"]
    return node, ctx, flags


def canon(victims):
    """Victim lists compare by owner order AND per-owner chunk order."""
    return [(ps.owner, idx.tolist()) for ps, idx in victims]


# --------------------------------------------------------------------------- #
# per-pageset references: the loops the whole-node kernels replaced
# --------------------------------------------------------------------------- #


def reference_advance_node(heat, node, dt, rates):
    """``PageHeatmap.advance`` per pageset, skipping cold idle owners."""
    for ps in node.pagesets():
        rate = rates.get(ps.owner, 0.0)
        if rate <= 0.0 and not ps.temperature.any():
            continue
        heat.advance(ps, dt, rate)


def reference_select_victims(node, need_chunks, owner_flags, protect_owner=None):
    """Algorithm 2's global victim scan as a per-pageset sort on
    (protected, temperature, registration order, chunk index)."""
    if need_chunks <= 0:
        return []
    ordered = []
    for order_key, ps in enumerate(node.pagesets()):
        if ps.owner == protect_owner:
            continue
        protected = 1 if is_protected(owner_flags(ps.owner)) else 0
        for i in ps.coldest_in(DRAM, need_chunks):
            ordered.append((protected, float(ps.temperature[i]), order_key, ps, int(i)))
    ordered.sort(key=lambda e: (e[0], e[1], e[2], e[4]))
    grouped = {}
    for _, _, _, ps, i in ordered[:need_chunks]:
        grouped.setdefault(ps.owner, (ps, []))[1].append(i)
    return [(ps, np.asarray(idx, dtype=np.int64)) for ps, idx in grouped.values()]


def reference_global_coldest(
    ctx, tier, max_chunks, *, include_pinned=False, skip_owners=frozenset(), scan_noise=0.0
):
    """The Linux baseline's LRU scan as a per-pageset merge, with its
    single ``rng.choice`` draw over the per-task candidate pools."""
    if max_chunks <= 0:
        return []
    n_noise = int(round(max_chunks * scan_noise)) if scan_noise > 0 else 0
    n_cold = max_chunks - n_noise
    entries, pools = [], []
    for order_key, ps in enumerate(ctx.memory.pagesets()):
        if ps.owner in skip_owners:
            continue
        cand = ps.coldest_in(tier, max_chunks, include_pinned=include_pinned)
        for i in cand:
            entries.append((float(ps.temperature[i]), order_key, ps, int(i)))
        if n_noise and cand.size:
            pools.append((ps, cand))
    entries.sort(key=lambda e: (e[0], e[1], e[3]))
    grouped = {}

    def take(ps, i):
        grouped.setdefault(ps.owner, (ps, set()))[1].add(i)

    for _, _, ps, i in entries[:n_cold]:
        take(ps, i)
    if n_noise and pools:
        sizes = np.array([c.size for _, c in pools], dtype=np.int64)
        total = int(sizes.sum())
        picks = ctx.rng.choice(total, size=min(n_noise, total), replace=False)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for p in picks:
            k = int(np.searchsorted(offsets, p, side="right")) - 1
            ps, cand = pools[k]
            take(ps, int(cand[p - offsets[k]]))
    return [(ps, np.asarray(sorted(idx), dtype=np.int64)) for ps, idx in grouped.values()]


def reference_hot_candidates(ps, tier, k, min_temperature):
    hot = ps.hottest_in(tier, k)
    return hot[ps.temperature[hot] >= min_temperature]


def reference_cold_candidates(ps, tier, k, max_temperature):
    cold = ps.coldest_in(tier, k)
    return cold[ps.temperature[cold] <= max_temperature]


def reference_evictable_bytes(node, tiers, cold_threshold, protect_owner):
    """Algorithm 1's evictable map as a per-tier x per-task scan."""
    out = {}
    for tier in tiers:
        total = 0
        for ps in node.pagesets():
            if ps.owner == protect_owner:
                continue
            in_tier = ps.chunks_in(tier)
            cold = in_tier[
                ~ps.pinned[in_tier] & (ps.temperature[in_tier] <= cold_threshold)
            ]
            total += int(cold.size) * ps.chunk_size
        out[tier] = total
    return out


# --------------------------------------------------------------------------- #
# kernel vs reference (property-based)
# --------------------------------------------------------------------------- #


class TestKernelEquivalence:
    @EQ
    @given(tasks=node_states(), dt=st.sampled_from([0.25, 1.0, 3.5]))
    def test_heatmap_advance_bit_identical(self, tasks, dt):
        heat = PageHeatmap()
        rates = {f"t{i}": (0.0, 0.6, 1.7)[i % 3] for i in range(len(tasks))}
        kernel, _, _ = build_node(tasks)
        ref, _, _ = build_node(tasks)
        heat.advance_node(kernel, dt, rates)
        reference_advance_node(heat, ref, dt, rates)
        temps = [
            np.concatenate([ps.temperature for ps in node.pagesets()])
            for node in (kernel, ref)
        ]
        assert np.array_equal(temps[0], temps[1])  # exact, not approx

    @EQ
    @given(tasks=node_states(), k=st.integers(0, 60), protect=st.booleans())
    def test_select_victims_identical(self, tasks, k, protect):
        protect_owner = "t0" if protect else None
        kernel, ctx, flags = build_node(tasks)
        ref, _, _ = build_node(tasks)
        pol = PageReplacementPolicy(lambda o: flags[o])
        got = pol.select_victims(ctx, k, protect_owner=protect_owner)
        want = reference_select_victims(ref, k, lambda o: flags[o], protect_owner)
        assert canon(got) == canon(want)

    @EQ
    @given(
        tasks=node_states(),
        k=st.integers(1, 60),
        noise=st.sampled_from([0.0, 0.35, 1.0]),
        tier=st.sampled_from([DRAM, SWAP]),
        pinned_ok=st.booleans(),
        skip=st.booleans(),
    )
    def test_global_coldest_identical_including_rng_stream(
        self, tasks, k, noise, tier, pinned_ok, skip
    ):
        kw = dict(
            include_pinned=pinned_ok,
            skip_owners=frozenset({"t0"}) if skip else frozenset(),
            scan_noise=noise,
        )
        _, ctx_k, _ = build_node(tasks, seed=23)
        _, ctx_r, _ = build_node(tasks, seed=23)
        got = global_coldest(ctx_k, tier, k, **kw)
        want = reference_global_coldest(ctx_r, tier, k, **kw)
        assert canon(got) == canon(want)
        # both paths must consume the same number of draws from the
        # shared stream, or later policy decisions diverge silently
        assert int(ctx_k.rng.integers(1 << 30)) == int(ctx_r.rng.integers(1 << 30))

    @EQ
    @given(
        tasks=node_states(),
        k=st.integers(1, 30),
        thr=st.floats(min_value=0.0, max_value=1.0, width=32),
    )
    def test_movement_candidates_identical(self, tasks, k, thr):
        kernel, _, _ = build_node(tasks)
        ref, _, _ = build_node(tasks)
        arena = kernel.arena
        for ps_k, ps_r in zip(kernel.pagesets(), ref.pagesets()):
            for tier in (DRAM, PMEM, CXL, SWAP):
                assert np.array_equal(
                    arena.hot_chunks(ps_k, tier, k, min_temperature=thr),
                    reference_hot_candidates(ps_r, tier, k, thr),
                )
                assert np.array_equal(
                    arena.cold_chunks(ps_k, tier, k, max_temperature=thr),
                    reference_cold_candidates(ps_r, tier, k, thr),
                )

    @EQ
    @given(tasks=node_states(), thr=st.floats(min_value=0.0, max_value=1.0, width=32))
    def test_reductions_match_object_accounting(self, tasks, thr):
        kernel, _, _ = build_node(tasks)
        ref, _, _ = build_node(tasks)
        arena = kernel.arena
        # per-task/tier counts against each pageset's own counts_by_tier
        counts = arena.counts_by_task_tier()
        for ps_k, ps_r in zip(kernel.pagesets(), ref.pagesets()):
            slot = arena._tasks[ps_k.owner].slot
            assert counts[slot].tolist() == [int(c) for c in ps_r.counts_by_tier()]
        # tier byte totals and shadow bytes
        used = arena.used_bytes_by_tier()
        for tier in (DRAM, PMEM, CXL, SWAP):
            expect_bytes = sum(
                int((ps.tier == int(tier)).sum()) * ps.chunk_size
                for ps in ref.pagesets()
            )
            assert int(used[int(tier)]) == expect_bytes
        expect_shadow = sum(
            int(ps.in_page_cache.sum()) * ps.chunk_size for ps in ref.pagesets()
        )
        assert arena.shadow_bytes() == expect_shadow
        # Algorithm 1's evictable map: cold, unpinned, unprotected
        tiers = (DRAM, PMEM, CXL)
        assert arena.evictable_bytes(tiers, thr, protect_owner="t0") == (
            reference_evictable_bytes(ref, tiers, thr, "t0")
        )


# --------------------------------------------------------------------------- #
# end-to-end: frozen exact-core fingerprints
# --------------------------------------------------------------------------- #


def metrics_fingerprint(m):
    return [
        (
            t.owner,
            t.wclass,
            t.submitted_at,
            t.scheduled_at,
            t.started_at,
            t.finished_at,
            t.failed,
            t.failure_reason,
            t.major_faults,
            t.minor_faults,
            t.oom_kills,
            t.retries,
            tuple(t.phase_durations),
        )
        for t in sorted(m.tasks(), key=lambda t: t.owner)
    ]


def run_small_metrics(backend, kind, policy_factory=None, faults=None):
    """One small cluster run under ``backend``; returns the full registry."""
    from repro.experiments.common import build_env

    specs = paper_batch(12, scale=1 / 128, rng_factory=RngFactory(5))
    saved = os.environ.get("REPRO_CORE")
    os.environ["REPRO_CORE"] = backend
    try:
        env = build_env(
            kind, specs, dram_fraction=0.3, n_nodes=2, policy_factory=policy_factory
        )
        assert env.topology.nodes[0].backend == backend
        if faults is not None:
            env.inject_faults(faults, seed=3)
        metrics = env.run_batch(specs, max_time=1e7)
        env.stop()
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved
    return metrics


def run_small_batch(backend, kind, policy_factory=None, faults=None):
    """One small cluster run under ``backend``; returns a metric fingerprint."""
    return metrics_fingerprint(run_small_metrics(backend, kind, policy_factory, faults))


def fault_schedule():
    """Tier-offline evacuation on node 0, then a crash of node 1."""
    return FaultSchedule(
        [
            FaultSpec(FaultKind.TIER_OFFLINE, time=3.0, node=0, tier=PMEM, duration=10.0),
            FaultSpec(FaultKind.NODE_CRASH, time=6.0, node=1, duration=15.0),
        ]
    )


ENV_CASES = [
    ("IE-linux", EnvKind.IE, None),
    ("CBE-linux", EnvKind.CBE, None),
    ("TME-tpp", EnvKind.TME, None),
    ("IMME-manager", EnvKind.IMME, None),
    ("TME-autonuma", EnvKind.TME, lambda specs: AutoNumaPolicy()),
    ("TME-interleave", EnvKind.TME, lambda specs: UniformInterleavePolicy()),
]


def capture_exact_core():
    """Every frozen exact-core output, recomputed on the exact core."""
    from test_insight import EQUIV_SCENARIOS, ledger_fingerprint, scenario_ledger
    from test_rates import layout_rates

    return as_json(
        {
            "env_cases": {
                label: run_small_batch(BACKEND_ARENA, kind, factory)
                for label, kind, factory in ENV_CASES
            },
            "fault_injection": run_small_batch(
                BACKEND_ARENA, EnvKind.IMME, faults=fault_schedule()
            ),
            "ledgers": {
                name: ledger_fingerprint(scenario_ledger(name, BACKEND_ARENA))
                for name in EQUIV_SCENARIOS
            },
            "layout_rates": layout_rates(BACKEND_ARENA),
        }
    )


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "label,kind,policy_factory", ENV_CASES, ids=[label for label, _, _ in ENV_CASES]
    )
    def test_environments_and_policies(self, label, kind, policy_factory):
        """The paper's class mix through every environment/policy: the
        exact core reproduces the frozen per-task metric timelines."""
        got = as_json(run_small_batch(BACKEND_ARENA, kind, policy_factory))
        assert got == frozen_exact_core()["env_cases"][label]

    def test_fault_injection(self):
        """Tier-offline evacuation and a node crash mid-run: the fault
        paths (offline_tier, crash/interrupt, requeue) stay frozen too."""
        got = as_json(run_small_batch(BACKEND_ARENA, EnvKind.IMME, faults=fault_schedule()))
        assert got == frozen_exact_core()["fault_injection"]

    def test_scenario_digests_backend_invariant(self, monkeypatch):
        """Digests hash the scenario *spec*; selecting the exact core by
        its name or by the deprecated ``object`` alias must never perturb
        them (the cache keys on digests)."""
        from repro.scenarios import REGISTRY

        names = REGISTRY.family_names()[:3]
        digests = []
        for backend in ("object", BACKEND_ARENA):
            monkeypatch.setenv("REPRO_CORE", backend)
            digests.append([REGISTRY.family(n).digest() for n in names])
        assert digests[0] == digests[1]


# --------------------------------------------------------------------------- #
# arena mechanics
# --------------------------------------------------------------------------- #


def arena_node(n_tasks=3, chunks=16):
    node = NodeMemorySystem(small_specs(), "mech", backend=BACKEND_ARENA)
    sets = []
    for i in range(n_tasks):
        ps = PageSet(f"t{i}", chunks * CHUNK, CHUNK)
        ps.region[:] = 0
        ps.region_flags[0] = MemFlag.NONE
        node.register(ps)
        sets.append(ps)
    return node, sets


class TestArenaMechanics:
    def test_adopt_binds_views(self):
        node, sets = arena_node()
        arena = node.arena
        for ps in sets:
            assert ps.arena is arena
            assert ps.temperature.base is arena.temperature
            assert ps.tier.base is arena.tier
        node.validate()

    def test_write_through_rebind_stays_bound(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        arena = node.arena
        fresh = np.linspace(0, 1, ps.n_chunks, dtype=np.float32)
        ps.temperature = fresh  # external rebind, the bench/test idiom
        assert ps.temperature.base is arena.temperature
        assert np.array_equal(ps.temperature, fresh)
        start = arena._tasks[ps.owner].start
        assert np.array_equal(arena.temperature[start : start + ps.n_chunks], fresh)

    def test_augmented_assignment_works_in_place(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        ps.temperature = np.full(ps.n_chunks, 0.5, dtype=np.float32)
        ps.temperature *= np.float32(2.0)
        assert ps.temperature.base is node.arena.temperature
        assert np.all(ps.temperature == np.float32(1.0))

    def test_release_zeroes_and_reuses_segment(self):
        node, sets = arena_node(n_tasks=3)
        arena = node.arena
        victim = sets[1]
        start, n = arena._tasks[victim.owner].start, victim.n_chunks
        victim.temperature = np.ones(n, dtype=np.float32)
        node.unregister(victim)
        # detached copy keeps its values; arena segment is scrubbed
        assert victim.arena is None
        assert np.all(victim.temperature == 1.0)
        assert np.all(arena.tier[start : start + n] == UNMAPPED)
        assert np.all(arena.task_id[start : start + n] == -1)
        # a same-size newcomer lands in the freed slot and segment
        ps_new = PageSet("fresh", n * CHUNK, CHUNK)
        ps_new.region[:] = 0
        ps_new.region_flags[0] = MemFlag.NONE
        node.register(ps_new)
        assert arena._tasks["fresh"].start == start
        node.validate()

    def test_growth_preserves_live_views_and_values(self):
        node = NodeMemorySystem(small_specs(), "grow", backend=BACKEND_ARENA)
        arena = node.arena
        ps1 = PageSet("big1", 800 * CHUNK, CHUNK)
        ps1.region[:] = 0
        ps1.region_flags[0] = MemFlag.NONE
        node.register(ps1)
        marker = np.arange(800, dtype=np.float32) / 800.0
        ps1.temperature = marker
        cap_before = arena.capacity
        ps2 = PageSet("big2", 800 * CHUNK, CHUNK)
        ps2.region[:] = 0
        ps2.region_flags[0] = MemFlag.NONE
        node.register(ps2)  # 1600 chunks: forces a grow
        assert arena.capacity > cap_before
        # ps1's views were re-pointed at the new storage, values intact
        assert ps1.temperature.base is arena.temperature
        assert np.array_equal(ps1.temperature, marker)
        node.validate()

    def test_validate_detects_detached_view(self):
        node, (ps, *_) = arena_node(n_tasks=1)
        # simulate the bug write-through properties exist to prevent:
        # a raw rebind that silently detaches the arena view
        object.__setattr__(ps, "_temperature", ps.temperature.copy())
        with pytest.raises(Exception):
            node.validate()


class TestBackendResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", BACKEND_ARENA_FAST)
        assert resolve_backend(BACKEND_ARENA) == BACKEND_ARENA

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", BACKEND_ARENA_FAST)
        assert resolve_backend() == BACKEND_ARENA_FAST
        monkeypatch.delenv("REPRO_CORE")
        assert resolve_backend() == BACKEND_ARENA

    def test_object_is_a_deprecated_alias_for_arena(self, monkeypatch):
        monkeypatch.delenv("REPRO_CORE", raising=False)
        with pytest.warns(DeprecationWarning, match="object"):
            assert resolve_backend("object") == BACKEND_ARENA
        monkeypatch.setenv("REPRO_CORE", "object")
        with pytest.warns(DeprecationWarning, match="object"):
            assert resolve_backend() == BACKEND_ARENA
        with pytest.warns(DeprecationWarning, match="object"):
            node = NodeMemorySystem(small_specs(), "alias")
        assert node.backend == BACKEND_ARENA and not node.fast_core

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "vectorised")
        with pytest.raises(Exception):
            resolve_backend()
        with pytest.raises(Exception):
            NodeMemorySystem(small_specs(), "bad", backend="vectorised")

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @pytest.mark.parametrize("name", [*BACKENDS, "object"])
    def test_every_accepted_name_builds_an_arena(self, name):
        node = NodeMemorySystem(small_specs(), "any", backend=name)
        assert node.arena is not None
        assert node.fast_core == (name == BACKEND_ARENA_FAST)


if __name__ == "__main__":
    EXACT_CORE_FILE.parent.mkdir(exist_ok=True)
    EXACT_CORE_FILE.write_text(json.dumps(capture_exact_core(), indent=1) + "\n")
    print(f"wrote {EXACT_CORE_FILE}")
