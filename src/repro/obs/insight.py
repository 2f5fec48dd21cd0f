"""The memory-introspection plane: migration ledger, tier time-series,
and live service signals.

``repro.obs.insight`` answers *why* memory moved, not just how much.  It
rides the same null-object discipline as :mod:`repro.obs.telemetry` — a
module-level ``_active`` context defaulting to a shared no-op ``NULL``,
installed only through :func:`repro.obs.session` (``insight=``), so every
emission point is one function call plus one no-op method call when the
plane is off — and adds three surfaces on top:

* the **migration ledger** — a bounded, append-only record of every
  movement-daemon decision (promote / demote / swap-in / swap-out /
  page-cache shadow / shadow-drop / reclaim / evacuate) with its cause,
  owning task, source→destination tier, chunk count, byte count and
  sim-time.  Per-``(kind, cause, src, dst)`` totals are maintained
  unconditionally and survive entry overflow, so counts reconcile
  exactly against :class:`repro.memory.system.MemoryTrafficStats` even
  when individual entries are dropped.
* the **tier time-series sampler** — per-node ring buffers (numpy) of
  per-tier occupancy and free bytes, temperature-distribution quantiles
  and a latency-weighted slow-tier stall proxy, sampled on the cluster
  daemon tick and automatically downsampled (halve + double the stride)
  when a ring fills, so memory stays bounded on arbitrarily long runs.
* the **live service surface** — :class:`LiveMetricsWriter` appends one
  NDJSON line per closed service window and atomically rewrites a
  Prometheus-style text snapshot, feeding ``obs tail`` and
  ``scenarios serve --live``.

:class:`SignalView` is the read API: autoscaling/admission policies and
the exporters consume the same signals through it, so policy research
and observability can never drift apart.

This module deliberately does **not** import ``repro.memory`` —
``memory.system`` imports ``repro.obs``, so the tier vocabulary is
mirrored here as :data:`TIER_LABELS` and pinned by a sync test
(``tests/test_insight.py``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional

import numpy as np

from .telemetry import _NULL_SPAN, _NullSpan

# --------------------------------------------------------------------------- #
# tier vocabulary (mirror of repro.memory.tiers — see module docstring)
# --------------------------------------------------------------------------- #

TIER_LABELS = ("dram", "pmem", "cxl", "swap")
NUM_TIERS = len(TIER_LABELS)
_DRAM = 0
_SWAP = 3

#: every ledger kind the plane can record
LEDGER_KINDS = (
    "promote",
    "demote",
    "swap-in",
    "swap-out",
    "shadow",
    "shadow-drop",
    "reclaim",
    "evacuate",
)

#: the positional layout of one ledger entry tuple
LEDGER_FIELDS = ("t", "node", "kind", "cause", "task", "src", "dst", "chunks", "bytes")

#: quantiles of the per-node temperature distribution the sampler captures
TEMP_QUANTILES = (0.5, 0.9, 0.99)

#: sentinel tier index for "not a single tier" (evacuation fan-out, reclaim)
ANY_TIER = -1


def movement_kind(src: int, dst: int) -> str:
    """Classify a tier movement from its endpoints.

    Anything landing in swap is a swap-out, anything leaving swap is a
    swap-in; otherwise moving toward a faster (lower-numbered) tier is a
    promotion and away from it a demotion.
    """
    if dst == _SWAP:
        return "swap-out"
    if src == _SWAP:
        return "swap-in"
    return "promote" if dst < src else "demote"


def tier_label(index: int) -> str:
    """Human label for a tier index; ``*`` for the :data:`ANY_TIER` sentinel."""
    if 0 <= index < NUM_TIERS:
        return TIER_LABELS[index]
    return "*"


def entry_dict(entry: tuple) -> dict[str, Any]:
    """One ledger entry tuple as a JSON-ready mapping."""
    out = dict(zip(LEDGER_FIELDS, entry))
    out["src_tier"] = tier_label(out["src"])
    out["dst_tier"] = tier_label(out["dst"])
    return out


# --------------------------------------------------------------------------- #
# the migration ledger
# --------------------------------------------------------------------------- #


class MigrationLedger:
    """Bounded append-only record of movement decisions.

    Entries are compact tuples (:data:`LEDGER_FIELDS` order).  The ring
    is bounded by ``max_entries``; overflow is dropped and *counted*,
    never an error — but the per-``(kind, cause, src, dst)`` totals are
    updated on every record, so aggregate reconciliation stays exact
    regardless of drops.
    """

    __slots__ = ("max_entries", "entries", "dropped", "totals")

    def __init__(self, max_entries: int = 200_000) -> None:
        self.max_entries = max_entries
        self.entries: list[tuple] = []
        self.dropped = 0
        # (kind, cause, src, dst) -> [entries, chunks, bytes]
        self.totals: dict[tuple, list[int]] = {}

    def record(
        self,
        t: float,
        node: str,
        kind: str,
        cause: str,
        task: str,
        src: int,
        dst: int,
        chunks: int,
        nbytes: int,
    ) -> None:
        key = (kind, cause, src, dst)
        tot = self.totals.get(key)
        if tot is None:
            self.totals[key] = [1, chunks, nbytes]
        else:
            tot[0] += 1
            tot[1] += chunks
            tot[2] += nbytes
        if len(self.entries) < self.max_entries:
            self.entries.append((t, node, kind, cause, task, src, dst, chunks, nbytes))
        else:
            self.dropped += 1

    # ---- aggregate queries ------------------------------------------------ #

    def counts_by_kind(self) -> dict[str, int]:
        """Total recorded decisions per kind (drop-proof)."""
        out: dict[str, int] = {}
        for (kind, _cause, _s, _d), (n, _c, _b) in self.totals.items():
            out[kind] = out.get(kind, 0) + n
        return out

    def bytes_by_kind(self) -> dict[str, int]:
        """Total moved bytes per kind (drop-proof)."""
        out: dict[str, int] = {}
        for (kind, _cause, _s, _d), (_n, _c, b) in self.totals.items():
            out[kind] = out.get(kind, 0) + b
        return out

    def chunks_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (kind, _cause, _s, _d), (_n, c, _b) in self.totals.items():
            out[kind] = out.get(kind, 0) + c
        return out

    def bytes_by_cause(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_kind, cause, _s, _d), (_n, _c, b) in self.totals.items():
            out[cause] = out.get(cause, 0) + b
        return out

    def migrated_matrix(self) -> np.ndarray:
        """Per ``src×dst`` moved bytes for real tier endpoints, the shape
        of ``MemoryTrafficStats.migrated_bytes`` — used by reconciliation
        tests."""
        out = np.zeros((NUM_TIERS, NUM_TIERS), dtype=np.int64)
        for (kind, _cause, s, d), (_n, _c, b) in self.totals.items():
            if kind in ("promote", "demote", "swap-in", "swap-out") and s >= 0 and d >= 0:
                out[s, d] += b
        return out


# --------------------------------------------------------------------------- #
# the tier time-series sampler
# --------------------------------------------------------------------------- #


class _NodeSeries:
    """One node's bounded sample ring.

    When the ring fills it keeps every second stored sample and doubles
    the acceptance stride, so a series never exceeds ``capacity`` rows
    while remaining uniformly spaced over the whole run.
    """

    __slots__ = ("capacity", "count", "stride", "seen", "t", "occupancy", "free",
                 "stall", "temp_q")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.count = 0
        self.stride = 1  # accept every stride-th offered sample
        self.seen = 0
        self.t = np.zeros(capacity, dtype=np.float64)
        self.occupancy = np.zeros((capacity, NUM_TIERS), dtype=np.int64)
        self.free = np.zeros((capacity, NUM_TIERS), dtype=np.int64)
        self.stall = np.zeros(capacity, dtype=np.float64)
        self.temp_q = np.zeros((capacity, len(TEMP_QUANTILES)), dtype=np.float64)

    def push(self, t, occupancy, free, stall, temp_q) -> None:
        offset = self.seen
        self.seen += 1
        if offset % self.stride:
            return
        if self.count == self.capacity:
            half = self.capacity // 2
            for arr in (self.t, self.occupancy, self.free, self.stall, self.temp_q):
                arr[:half] = arr[::2]
            self.count = half
            self.stride *= 2
            if offset % self.stride:
                return
        i = self.count
        self.t[i] = t
        self.occupancy[i] = occupancy
        self.free[i] = free
        self.stall[i] = stall
        self.temp_q[i] = temp_q
        self.count += 1

    def trimmed(self) -> dict[str, np.ndarray]:
        """Copies of the live rows, keyed by series name."""
        n = self.count
        return {
            "t": self.t[:n].copy(),
            "occupancy": self.occupancy[:n].copy(),
            "free": self.free[:n].copy(),
            "stall": self.stall[:n].copy(),
            "temp_q": self.temp_q[:n].copy(),
        }


class TierSampler:
    """Per-node tier time-series, bounded by ``capacity`` rows per node."""

    __slots__ = ("capacity", "nodes")

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self.nodes: dict[str, _NodeSeries] = {}

    def push(self, t, node: str, occupancy, free, stall, temp_q) -> None:
        series = self.nodes.get(node)
        if series is None:
            series = self.nodes[node] = _NodeSeries(self.capacity)
        series.push(t, occupancy, free, stall, temp_q)


# --------------------------------------------------------------------------- #
# cause scopes
# --------------------------------------------------------------------------- #


class _CauseScope:
    __slots__ = ("_stack", "_name", "_pushed")

    def __init__(self, stack: list, name: str, only_if_unset: bool = False) -> None:
        self._stack = stack
        self._name = name
        self._pushed = not (only_if_unset and stack)

    def __enter__(self) -> "_CauseScope":
        if self._pushed:
            self._stack.append(self._name)
        return self

    def __exit__(self, *exc: Any) -> bool:
        if self._pushed:
            self._stack.pop()
        return False


# --------------------------------------------------------------------------- #
# the snapshot record (what crosses the fork boundary / lands on disk)
# --------------------------------------------------------------------------- #


class InsightRecord:
    """Picklable, JSON-able snapshot of one :class:`Insight` context."""

    __slots__ = ("run_id", "meta", "entries", "dropped", "totals", "series",
                 "samples_seen", "workers")

    def __init__(
        self,
        run_id: str,
        meta: dict,
        entries: list,
        dropped: int,
        totals: dict,
        series: dict,
        samples_seen: dict,
        workers: list,
    ) -> None:
        self.run_id = run_id
        self.meta = meta
        self.entries = entries
        self.dropped = dropped
        self.totals = totals
        self.series = series  # node -> {"t": array, "occupancy": array, ...}
        self.samples_seen = samples_seen  # node -> offered-sample count
        self.workers = workers

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InsightRecord):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "meta": dict(self.meta),
            "entries": [list(e) for e in self.entries],
            "dropped": self.dropped,
            "totals": {
                "|".join((k[0], k[1], str(k[2]), str(k[3]))): list(v)
                for k, v in self.totals.items()
            },
            "series": {
                node: {name: np.asarray(arr).tolist() for name, arr in s.items()}
                for node, s in self.series.items()
            },
            "samples_seen": dict(self.samples_seen),
            "workers": list(self.workers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InsightRecord":
        totals = {}
        for key, val in data.get("totals", {}).items():
            kind, cause, src, dst = key.split("|")
            totals[(kind, cause, int(src), int(dst))] = list(val)
        series = {}
        for node, s in data.get("series", {}).items():
            series[node] = {
                "t": np.asarray(s["t"], dtype=np.float64),
                "occupancy": np.asarray(s["occupancy"], dtype=np.int64).reshape(-1, NUM_TIERS),
                "free": np.asarray(s["free"], dtype=np.int64).reshape(-1, NUM_TIERS),
                "stall": np.asarray(s["stall"], dtype=np.float64),
                "temp_q": np.asarray(s["temp_q"], dtype=np.float64).reshape(-1, len(TEMP_QUANTILES)),
            }
        return cls(
            run_id=data.get("run_id", "insight"),
            meta=dict(data.get("meta", {})),
            entries=[tuple(e) for e in data.get("entries", [])],
            dropped=int(data.get("dropped", 0)),
            totals=totals,
            series=series,
            samples_seen=dict(data.get("samples_seen", {})),
            workers=list(data.get("workers", [])),
        )


# --------------------------------------------------------------------------- #
# the contexts
# --------------------------------------------------------------------------- #


class NullInsight:
    """No-op introspection context; the shared default."""

    enabled = False
    run_id = "null"

    def migration(self, *args: Any, **kwargs: Any) -> None:
        pass

    def ledger_event(self, *args: Any, **kwargs: Any) -> None:
        pass

    def sample(self, *args: Any, **kwargs: Any) -> None:
        pass

    def cause(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def fallback_cause(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def current_cause(self) -> str:
        return "direct"

    def view(self) -> "SignalView":
        return SignalView(None)

    def snapshot(self) -> None:
        return None

    def merge(self, record: Optional[InsightRecord], worker: Optional[str] = None) -> None:
        pass


NULL = NullInsight()


class Insight:
    """One run's introspection context: ledger + sampler + cause stack."""

    enabled = True

    def __init__(
        self,
        run_id: str = "insight",
        meta: Optional[dict] = None,
        *,
        max_ledger_entries: int = 200_000,
        sampler_capacity: int = 4096,
    ) -> None:
        self.run_id = run_id
        self.meta = dict(meta or {})
        self.ledger = MigrationLedger(max_ledger_entries)
        self.sampler = TierSampler(sampler_capacity)
        self.workers: list[str] = []
        self._cause_stack: list[str] = []

    # ---- causes ----------------------------------------------------------- #

    def cause(self, name: str) -> _CauseScope:
        """Scope: ledger entries recorded inside carry ``cause=name``."""
        return _CauseScope(self._cause_stack, name)

    def fallback_cause(self, name: str) -> _CauseScope:
        """Like :meth:`cause`, but only applies when no cause is active —
        lets a callee label direct invocations without overriding the
        caller's more specific scope."""
        return _CauseScope(self._cause_stack, name, only_if_unset=True)

    def current_cause(self) -> str:
        stack = self._cause_stack
        return stack[-1] if stack else "direct"

    # ---- recording -------------------------------------------------------- #

    def migration(
        self,
        t: float,
        node: str,
        task: str,
        src: int,
        dst: int,
        chunks: int,
        nbytes: int,
    ) -> None:
        """Record one tier movement; kind classified from the endpoints,
        cause taken from the active scope."""
        self.ledger.record(
            t, node, movement_kind(src, dst), self.current_cause(),
            task, src, dst, chunks, nbytes,
        )

    def ledger_event(
        self,
        t: float,
        node: str,
        kind: str,
        task: str,
        src: int,
        dst: int,
        chunks: int,
        nbytes: int,
    ) -> None:
        """Record a non-movement decision (shadow/reclaim/evacuate/...)."""
        self.ledger.record(
            t, node, kind, self.current_cause(), task, src, dst, chunks, nbytes,
        )

    def sample(self, t: float, node: str, occupancy, free, stall, temp_q) -> None:
        self.sampler.push(t, node, occupancy, free, stall, temp_q)

    # ---- reading ---------------------------------------------------------- #

    def view(self) -> "SignalView":
        return SignalView(self)

    # ---- snapshot / merge ------------------------------------------------- #

    def snapshot(self) -> InsightRecord:
        return InsightRecord(
            run_id=self.run_id,
            meta=dict(self.meta),
            entries=list(self.ledger.entries),
            dropped=self.ledger.dropped,
            totals={k: list(v) for k, v in self.ledger.totals.items()},
            series={node: s.trimmed() for node, s in self.sampler.nodes.items()},
            samples_seen={node: s.seen for node, s in self.sampler.nodes.items()},
            workers=list(self.workers),
        )

    def merge(self, record: Optional[InsightRecord], worker: Optional[str] = None) -> None:
        """Fold a child snapshot in, preserving input order.

        Entries are re-appended through the bounded ledger path and
        samples replayed through the ring, so a ``jobs=N`` run converges
        to the same ledger, totals and series a ``jobs=1`` run produces
        (the merge happens in input order, mirroring telemetry).  Totals
        are reconciled separately so entry overflow never skews them.
        """
        if record is None:
            return
        led = self.ledger
        for e in record.entries:
            if len(led.entries) < led.max_entries:
                led.entries.append(e)
            else:
                led.dropped += 1
        led.dropped += record.dropped
        for key, (n, c, b) in record.totals.items():
            tot = led.totals.get(key)
            if tot is None:
                led.totals[key] = [n, c, b]
            else:
                tot[0] += n
                tot[1] += c
                tot[2] += b
        for node, s in record.series.items():
            t_arr = np.asarray(s["t"])
            occ = np.asarray(s["occupancy"])
            free = np.asarray(s["free"])
            stall = np.asarray(s["stall"])
            temp_q = np.asarray(s["temp_q"])
            for i in range(len(t_arr)):
                self.sampler.push(
                    float(t_arr[i]), node, occ[i], free[i],
                    float(stall[i]), temp_q[i],
                )
        wid = worker or record.meta.get("worker")
        if wid and wid not in self.workers:
            self.workers.append(wid)
        for w in record.workers:
            if w not in self.workers:
                self.workers.append(w)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Insight {self.run_id!r} entries={len(self.ledger.entries)} "
            f"nodes={len(self.sampler.nodes)}>"
        )


# --------------------------------------------------------------------------- #
# the read API
# --------------------------------------------------------------------------- #


class SignalView:
    """Read-only view over an introspection context.

    The one API both the exporters *and* upcoming autoscaling/admission
    policies consume — policies steer from exactly the signals operators
    see.  Null-safe: a view over ``None`` (or a disabled context) answers
    every query with an empty/zero result.
    """

    __slots__ = ("_insight",)

    def __init__(self, insight: "Insight | NullInsight | None" = None) -> None:
        self._insight = insight if insight is not None and insight.enabled else None

    @property
    def enabled(self) -> bool:
        return self._insight is not None

    def nodes(self) -> list[str]:
        if self._insight is None:
            return []
        return sorted(self._insight.sampler.nodes)

    def ledger_totals(self) -> dict[str, int]:
        """Drop-proof moved bytes per ledger kind."""
        if self._insight is None:
            return {}
        return self._insight.ledger.bytes_by_kind()

    def ledger_counts(self) -> dict[str, int]:
        if self._insight is None:
            return {}
        return self._insight.ledger.counts_by_kind()

    def series(self, node: str) -> dict[str, np.ndarray]:
        """The node's trimmed time-series (copies)."""
        if self._insight is None:
            return {}
        s = self._insight.sampler.nodes.get(node)
        return s.trimmed() if s is not None else {}

    def latest(self, node: str) -> Optional[dict[str, Any]]:
        """The most recent sample for ``node``, or ``None``."""
        if self._insight is None:
            return None
        s = self._insight.sampler.nodes.get(node)
        if s is None or s.count == 0:
            return None
        i = s.count - 1
        return {
            "t": float(s.t[i]),
            "occupancy": s.occupancy[i].copy(),
            "free": s.free[i].copy(),
            "stall": float(s.stall[i]),
            "temp_q": s.temp_q[i].copy(),
        }

    def stall(self, node: str) -> float:
        """Latest latency-weighted slow-tier stall proxy for ``node``."""
        latest = self.latest(node)
        return 0.0 if latest is None else latest["stall"]

    def occupancy_fraction(self, node: str) -> np.ndarray:
        """Latest per-tier occupied fraction for ``node`` (zeros when
        unsampled or a tier has no capacity)."""
        latest = self.latest(node)
        if latest is None:
            return np.zeros(NUM_TIERS, dtype=np.float64)
        occ = latest["occupancy"].astype(np.float64)
        cap = occ + latest["free"].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(cap > 0, occ / cap, 0.0)
        return frac


# --------------------------------------------------------------------------- #
# the live service surface
# --------------------------------------------------------------------------- #

LIVE_FILE = "live.ndjson"
PROM_FILE = "metrics.prom"

#: scalar fields every live window line must carry (schema contract for
#: ``obs tail`` / ``tools/insight_smoke.py``)
LIVE_SCHEMA = ("window", "start", "end", "offered", "admitted", "rejected",
               "queue", "running")


class LiveMetricsWriter:
    """Streams service-window metrics while a run is in flight.

    ``live.ndjson`` gets one append-only JSON line per closed window;
    ``metrics.prom`` is atomically rewritten (write-temp + rename) with a
    Prometheus-text snapshot of the latest window, so a scrape or a
    ``tail -f`` never observes a torn file.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.live_path = os.path.join(self.directory, LIVE_FILE)
        self.prom_path = os.path.join(self.directory, PROM_FILE)
        self.windows_written = 0
        # a fresh run truncates any previous stream
        with open(self.live_path, "w", encoding="utf-8"):
            pass

    def write_window(self, payload: dict[str, Any]) -> None:
        with open(self.live_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._write_prom(payload)
        self.windows_written += 1

    def _write_prom(self, payload: dict[str, Any]) -> None:
        lines = []
        for field in LIVE_SCHEMA:
            if field in payload:
                lines.append(f"# TYPE repro_service_{field} gauge")
                lines.append(f"repro_service_{field} {payload[field]}")
        for node, tiers in sorted(payload.get("tiers", {}).items()):
            for tier, nbytes in sorted(tiers.get("occupancy", {}).items()):
                lines.append(
                    f'repro_tier_occupancy_bytes{{node="{node}",tier="{tier}"}} {nbytes}'
                )
            if "stall" in tiers:
                lines.append(f'repro_tier_stall{{node="{node}"}} {tiers["stall"]}')
        for kind, nbytes in sorted(payload.get("ledger", {}).items()):
            lines.append(f'repro_ledger_bytes{{kind="{kind}"}} {nbytes}')
        tmp = self.prom_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, self.prom_path)


def live_window_payload(
    index: int,
    start: float,
    end: float,
    *,
    offered: int,
    admitted: int,
    rejected: int,
    queue: int,
    running: int,
    view: Optional[SignalView] = None,
) -> dict[str, Any]:
    """Assemble one live-window line; tier/ledger blocks only when the
    introspection plane is live."""
    payload: dict[str, Any] = {
        "window": index,
        "start": start,
        "end": end,
        "offered": offered,
        "admitted": admitted,
        "rejected": rejected,
        "queue": queue,
        "running": running,
    }
    if view is not None and view.enabled:
        tiers: dict[str, Any] = {}
        for node in view.nodes():
            latest = view.latest(node)
            if latest is None:
                continue
            tiers[node] = {
                "occupancy": {
                    TIER_LABELS[t]: int(latest["occupancy"][t]) for t in range(NUM_TIERS)
                },
                "free": {
                    TIER_LABELS[t]: int(latest["free"][t]) for t in range(NUM_TIERS)
                },
                "stall": latest["stall"],
            }
        if tiers:
            payload["tiers"] = tiers
        totals = view.ledger_totals()
        if totals:
            payload["ledger"] = totals
    return payload


def format_live_window(payload: dict[str, Any]) -> str:
    """Render one live-window payload for a terminal (``obs tail`` and the
    tail ``scenarios serve --live`` prints after a run).

    First line: the service window counters.  One indented line per node
    with tier occupancy fractions and the stall proxy, when the payload
    carries a ``tiers`` block.
    """
    head = (
        f"[{payload.get('window', '?'):>4}] "
        f"t={float(payload.get('start', 0.0)):.0f}"
        f"..{float(payload.get('end', 0.0)):.0f}"
        f"  offered={payload.get('offered', 0)}"
        f" admitted={payload.get('admitted', 0)}"
        f" rejected={payload.get('rejected', 0)}"
        f" queue={payload.get('queue', 0)}"
        f" running={payload.get('running', 0)}"
    )
    lines = [head]
    tiers = payload.get("tiers") or {}
    for node in sorted(tiers, key=str):
        block = tiers[node]
        occ = block.get("occupancy", {})
        free = block.get("free", {})
        cells = []
        for label in TIER_LABELS:
            used = int(occ.get(label, 0))
            cap = used + int(free.get(label, 0))
            frac = (used / cap) if cap else 0.0
            cells.append(f"{label} {100.0 * frac:5.1f}%")
        lines.append(
            f"    {node}  " + "  ".join(cells)
            + f"  stall={float(block.get('stall', 0.0)):.3f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# module-level dispatch (what the stack's emission points call)
# --------------------------------------------------------------------------- #

#: the installed context; :func:`repro.obs.session` is its only writer
_active: "Insight | NullInsight" = NULL


def active() -> "Insight | NullInsight":
    """The introspection context recordings currently flow into."""
    return _active


def enabled() -> bool:
    return _active.enabled


def cause(name: str) -> "_CauseScope | _NullSpan":
    return _active.cause(name)


def fallback_cause(name: str) -> "_CauseScope | _NullSpan":
    return _active.fallback_cause(name)


def view() -> SignalView:
    """A :class:`SignalView` over whatever context is active."""
    return _active.view()
