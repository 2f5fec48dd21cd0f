"""The memory-introspection plane: ledger mechanics, tier sampler,
cause scopes, the null path, record round-trips, the live-metrics
surface, and the cross-backend equivalence contract.

The plane's placement hooks live on the hot movement paths of both
core modes, so the load-bearing assertions here are the equivalence
ones: the exact core's ledger must match the one frozen while the
retired object layout and the arena still agreed bit for bit, and
arena-fast's must reconcile exactly with
:class:`~repro.memory.system.MemoryTrafficStats` — if either drifts, an
emission point was added to one path but not the other.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.arena import BACKEND_ARENA, BACKEND_ARENA_FAST
from repro.memory.tiers import NUM_TIERS, TIER_NAMES, TierKind
from repro.obs import insight as _insight
from repro.obs.insight import (
    ANY_TIER,
    TIER_LABELS,
    Insight,
    InsightRecord,
    LiveMetricsWriter,
    MigrationLedger,
    SignalView,
    TierSampler,
    format_live_window,
    live_window_payload,
    movement_kind,
    tier_label,
)

from test_arena import frozen_exact_core


# --------------------------------------------------------------------------- #
# tier vocabulary (mirrored, not imported — pin the sync)
# --------------------------------------------------------------------------- #

class TestVocabulary:
    def test_tier_labels_track_memory_tiers(self):
        """insight.py cannot import repro.memory (cycle), so it mirrors
        the tier names; this is the tripwire if the vocabulary drifts."""
        assert TIER_LABELS == tuple(
            TIER_NAMES[TierKind(i)] for i in range(NUM_TIERS)
        )
        assert _insight.NUM_TIERS == NUM_TIERS

    def test_movement_kind_classification(self):
        assert movement_kind(2, 0) == "promote"
        assert movement_kind(1, 2) == "demote"
        assert movement_kind(0, 3) == "swap-out"
        assert movement_kind(3, 0) == "swap-in"

    def test_tier_label_handles_sentinels(self):
        assert tier_label(0) == TIER_LABELS[0]
        assert tier_label(ANY_TIER) == "*"
        assert tier_label(99) == "*"


# --------------------------------------------------------------------------- #
# ledger
# --------------------------------------------------------------------------- #

class TestMigrationLedger:
    def test_record_and_rollups(self):
        led = MigrationLedger()
        led.record(1.0, "n0", "promote", "reactive", "t1", 2, 0, 4, 4096)
        led.record(2.0, "n0", "promote", "reactive", "t1", 1, 0, 2, 2048)
        led.record(3.0, "n1", "demote", "proactive", "t2", 0, 2, 1, 1024)
        assert led.counts_by_kind() == {"promote": 2, "demote": 1}
        assert led.bytes_by_kind() == {"promote": 6144, "demote": 1024}
        assert led.chunks_by_kind() == {"promote": 6, "demote": 1}

    def test_bounded_entries_with_dropproof_totals(self):
        led = MigrationLedger(max_entries=3)
        for i in range(10):
            led.record(float(i), "n0", "promote", "direct", "t", 2, 0, 1, 100)
        assert len(led.entries) == 3
        assert led.dropped == 7
        # totals never drop: they count all ten records
        assert led.counts_by_kind() == {"promote": 10}
        assert led.bytes_by_kind() == {"promote": 1000}

    def test_migrated_matrix_covers_movement_kinds_only(self):
        led = MigrationLedger()
        led.record(1.0, "n0", "promote", "direct", "t", 2, 0, 1, 100)
        led.record(2.0, "n0", "swap-out", "direct", "t", 0, 3, 1, 50)
        led.record(3.0, "n0", "shadow", "direct", "t", ANY_TIER, 0, 1, 999)
        led.record(4.0, "n0", "reclaim", "reclaim", "*", 0, ANY_TIER, 1, 999)
        mat = led.migrated_matrix()
        assert mat.shape == (NUM_TIERS, NUM_TIERS)
        assert mat[2, 0] == 100 and mat[0, 3] == 50
        assert mat.sum() == 150  # shadows/reclaims are not movements


# --------------------------------------------------------------------------- #
# cause scopes
# --------------------------------------------------------------------------- #

class TestCauseScopes:
    def test_default_and_nesting(self):
        ins = Insight()
        assert ins.current_cause() == "direct"
        with ins.cause("reactive"):
            assert ins.current_cause() == "reactive"
            with ins.cause("ensure-room"):
                assert ins.current_cause() == "ensure-room"
            assert ins.current_cause() == "reactive"
        assert ins.current_cause() == "direct"

    def test_fallback_yields_to_active_scope(self):
        ins = Insight()
        with ins.fallback_cause("replace"):
            assert ins.current_cause() == "replace"
        with ins.cause("reactive"), ins.fallback_cause("replace"):
            assert ins.current_cause() == "reactive"

    def test_migration_takes_cause_from_scope(self):
        ins = Insight()
        with ins.cause("proactive"):
            ins.migration(1.0, "n0", "t", 0, 2, 1, 100)
        ins.migration(2.0, "n0", "t", 2, 0, 1, 100)
        causes = [e[3] for e in ins.ledger.entries]
        assert causes == ["proactive", "direct"]


# --------------------------------------------------------------------------- #
# null path
# --------------------------------------------------------------------------- #

class TestNullPath:
    def test_disabled_by_default(self):
        assert not _insight.enabled()
        assert _insight.active() is _insight.NULL
        assert _insight.worker_insight() is None

    def test_null_operations_are_noops(self):
        null = _insight.NULL
        null.migration(1.0, "n0", "t", 0, 2, 1, 100)
        null.ledger_event(1.0, "n0", "shadow", "t", ANY_TIER, 0, 1, 100)
        null.sample(1.0, "n0", np.zeros(NUM_TIERS), np.zeros(NUM_TIERS), 0.0, [0, 0, 0])
        with null.cause("x"), null.fallback_cause("y"):
            assert null.current_cause() == "direct"
        assert null.snapshot() is None
        assert not null.view().enabled

    def test_module_scopes_work_while_disabled(self):
        with _insight.cause("reactive"), _insight.fallback_cause("replace"):
            assert _insight.active().current_cause() == "direct"

    def test_session_restores_previous_context(self):
        ins = Insight("outer")
        with _insight.session(ins):
            assert _insight.active() is ins
            with _insight.session(Insight("inner")):
                assert _insight.active().run_id == "inner"
            assert _insight.active() is ins
        assert _insight.active() is _insight.NULL


# --------------------------------------------------------------------------- #
# tier sampler
# --------------------------------------------------------------------------- #

def _push_n(sampler, node, n, t0=0.0):
    for i in range(n):
        occ = np.full(NUM_TIERS, i, dtype=np.int64)
        free = np.full(NUM_TIERS, 100 - i, dtype=np.int64)
        sampler.push(t0 + float(i), node, occ, free, float(i) / 100.0, [0.1, 0.5, 0.9])


class TestTierSampler:
    def test_under_capacity_keeps_everything(self):
        s = TierSampler(capacity=64)
        _push_n(s, "n0", 10)
        series = s.nodes["n0"].trimmed()
        assert series["t"].shape == (10,)
        assert series["occupancy"].shape == (10, NUM_TIERS)
        assert series["free"].shape == (10, NUM_TIERS)
        assert series["stall"].shape == (10,)
        assert series["temp_q"].shape == (10, len(_insight.TEMP_QUANTILES))

    def test_downsampling_halves_and_doubles_stride(self):
        s = TierSampler(capacity=8)
        _push_n(s, "n0", 40)
        node = s.nodes["n0"]
        assert node.count <= 8
        assert node.stride > 1
        series = node.trimmed()
        # surviving rows are every stride-th offered sample, still ordered
        ts = series["t"]
        assert np.all(np.diff(ts) > 0)
        assert np.allclose(np.diff(ts), node.stride)

    def test_nodes_are_independent(self):
        s = TierSampler(capacity=16)
        _push_n(s, "n0", 4)
        _push_n(s, "n1", 6)
        assert s.nodes["n0"].trimmed()["t"].shape == (4,)
        assert s.nodes["n1"].trimmed()["t"].shape == (6,)


# --------------------------------------------------------------------------- #
# record round-trip and merge
# --------------------------------------------------------------------------- #

def _small_insight(run_id="r", nodes=("n0",), entries=3):
    ins = Insight(run_id)
    for node in nodes:
        for i in range(entries):
            with ins.cause("reactive"):
                ins.migration(float(i), node, f"t{i}", 0, 2, 1, 100)
        _push_n(ins.sampler, node, 5)
    return ins


class TestRecordRoundTrip:
    def test_dict_round_trip_identity(self):
        rec = _small_insight().snapshot()
        clone = InsightRecord.from_dict(rec.to_dict())
        assert clone == rec
        # and the dict itself is JSON-safe
        json.dumps(rec.to_dict())

    def test_merge_sums_totals_and_replays_samples(self):
        a = _small_insight("a", nodes=("n0",))
        b = _small_insight("b", nodes=("n1",))
        a.merge(b.snapshot(), worker="w1")
        assert a.ledger.counts_by_kind() == {"demote": 6}
        assert sorted(a.sampler.nodes) == ["n0", "n1"]
        assert a.workers == ["w1"]

    def test_merge_respects_entry_bound(self):
        a = Insight("a", max_ledger_entries=4)
        b = _small_insight("b", entries=10)
        a.merge(b.snapshot())
        assert len(a.ledger.entries) == 4
        assert a.ledger.counts_by_kind()["demote"] == 10  # totals intact


# --------------------------------------------------------------------------- #
# signal view
# --------------------------------------------------------------------------- #

class TestSignalView:
    def test_disabled_view(self):
        view = SignalView(None)
        assert not view.enabled
        assert view.nodes() == []
        assert view.latest("n0") is None

    def test_latest_and_fractions(self):
        ins = _small_insight(nodes=("n1", "n0"))
        view = ins.view()
        assert view.enabled
        assert view.nodes() == ["n0", "n1"]
        latest = view.latest("n0")
        assert latest is not None and latest["t"] == 4.0
        assert latest["occupancy"].shape == (NUM_TIERS,)
        frac = view.occupancy_fraction("n0")
        assert np.all((0.0 <= frac) & (frac <= 1.0))
        assert view.ledger_counts() == {"demote": 6}


# --------------------------------------------------------------------------- #
# live metrics surface
# --------------------------------------------------------------------------- #

class TestLiveMetrics:
    def test_writer_streams_and_snapshots(self, tmp_path):
        w = LiveMetricsWriter(str(tmp_path))
        ins = _small_insight()
        for i in range(3):
            w.write_window(live_window_payload(
                i, i * 10.0, (i + 1) * 10.0,
                offered=5, admitted=4, rejected=1, queue=2, running=3,
                view=ins.view(),
            ))
        lines = (tmp_path / _insight.LIVE_FILE).read_text().splitlines()
        assert len(lines) == 3 and w.windows_written == 3
        payload = json.loads(lines[-1])
        assert payload["window"] == 2
        assert set(_insight.LIVE_SCHEMA) <= set(payload)
        assert "n0" in payload["tiers"]
        assert payload["ledger"]["demote"] == 300
        prom = (tmp_path / _insight.PROM_FILE).read_text()
        assert "repro_service_window 2" in prom
        assert 'repro_tier_occupancy_bytes{node="n0",tier="dram"}' in prom
        assert 'repro_ledger_bytes{kind="demote"} 300' in prom

    def test_fresh_writer_truncates(self, tmp_path):
        w1 = LiveMetricsWriter(str(tmp_path))
        w1.write_window({"window": 0, "start": 0.0, "end": 1.0, "offered": 0,
                         "admitted": 0, "rejected": 0, "queue": 0, "running": 0})
        LiveMetricsWriter(str(tmp_path))
        assert (tmp_path / _insight.LIVE_FILE).read_text() == ""

    def test_format_live_window_renders_tiers(self):
        ins = _small_insight()
        payload = live_window_payload(
            7, 0.0, 10.0, offered=1, admitted=1, rejected=0, queue=0,
            running=1, view=ins.view(),
        )
        text = format_live_window(payload)
        assert "offered=1" in text and "n0" in text and "stall=" in text
        for label in TIER_LABELS:
            assert label in text


# --------------------------------------------------------------------------- #
# cross-backend equivalence (the contract that keeps the hooks honest)
# --------------------------------------------------------------------------- #

#: registry families with distinct movement mixes: resilience (evacuate +
#: shadow + both directions), the full-policy ablation (shadow-drop), and
#: colocation (promotion-only)
EQUIV_SCENARIOS = [
    "ext-resilience/IMME",
    "ablations/full-imme",
    "ext-colocation/bare-metal",
]


def scenario_ledger(name, backend):
    """Run one registry scenario under ``backend`` with the plane active."""
    from repro.scenarios.build import run_scenario
    from repro.scenarios.registry import scenario

    saved = os.environ.get("REPRO_CORE")
    os.environ["REPRO_CORE"] = backend
    try:
        ins = Insight(f"equiv-{backend}")
        with _insight.session(ins):
            run_scenario(scenario(name))
    finally:
        if saved is None:
            os.environ.pop("REPRO_CORE", None)
        else:
            os.environ["REPRO_CORE"] = saved
    return ins


def ledger_fingerprint(ins):
    """Entry count, a sha256 of every entry, and the drop-proof totals."""
    entries = [list(e) for e in ins.ledger.entries]
    return {
        "entries": len(entries),
        "sha256": hashlib.sha256(json.dumps(entries).encode()).hexdigest(),
        "totals": {"|".join(map(str, k)): list(v) for k, v in ins.ledger.totals.items()},
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", EQUIV_SCENARIOS)
    def test_ledger_bit_identical_object_vs_arena(self, name):
        """The exact core makes the movement decisions the object layout
        made, so every ledger entry — time, task, endpoints, cause — and
        every total matches the frozen fingerprint."""
        got = ledger_fingerprint(scenario_ledger(name, BACKEND_ARENA))
        assert got["entries"], f"{name} produced no ledger entries"
        assert got == frozen_exact_core()["ledgers"][name]

    def test_arena_fast_counts_reconcile_with_traffic_stats(self):
        """arena-fast batches decisions (entries aren't per-task), but its
        ledger must reconcile exactly with the node traffic counters."""
        from repro.experiments.common import build_env
        from repro.envs.environments import EnvKind
        from repro.util.rng import RngFactory
        from repro.workflows.ensembles import paper_batch

        specs = paper_batch(12, scale=1 / 128, rng_factory=RngFactory(5))
        saved = os.environ.get("REPRO_CORE")
        os.environ["REPRO_CORE"] = BACKEND_ARENA_FAST
        try:
            ins = Insight("fast-reconcile")
            with _insight.session(ins):
                env = build_env(EnvKind.IMME, specs, dram_fraction=0.3, n_nodes=2)
                env.run_batch(specs, max_time=1e7)
                stats = [agent.memory.stats for agent in env.agents]
                env.stop()
        finally:
            if saved is None:
                os.environ.pop("REPRO_CORE", None)
            else:
                os.environ["REPRO_CORE"] = saved
        migrated = sum(s.migrated_bytes for s in stats)
        assert np.array_equal(ins.ledger.migrated_matrix(), migrated)
        chunks = ins.ledger.chunks_by_kind()
        assert chunks.get("shadow", 0) == sum(s.page_cache_inserts for s in stats)
        assert chunks.get("shadow-drop", 0) == sum(s.page_cache_drops for s in stats)
