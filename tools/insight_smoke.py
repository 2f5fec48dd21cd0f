#!/usr/bin/env python
"""Insight-plane smoke check for CI.

Validates the artifacts of the memory-introspection plane — the
insight record (``insight.json``: migration ledger and tier series) and
the live service stream (``live.ndjson`` + ``metrics.prom``) — against
their schemas, entry by entry and line by line.  Exit 0 on success, 1
with a diagnostic otherwise.

Two modes::

    # validate directories an earlier run produced (CI after serve --live)
    PYTHONPATH=src python tools/insight_smoke.py TELEMETRY_DIR [LIVE_DIR]

    # self-contained: run a service scenario under an insight session,
    # write the artifacts to a temp dir, then validate them
    PYTHONPATH=src python tools/insight_smoke.py
"""

from __future__ import annotations

import json
import math
import os
import sys

from repro.obs import insight as _insight
from repro.obs.exporters import INSIGHT_FILE, load_insight_record

DEFAULT = "ext-steady-state/IMME:0.10"

#: per-entry fields every ledger entry must carry, with their types
ENTRY_FIELDS = {
    "t": (int, float),
    "node": str,
    "kind": str,
    "cause": str,
    "task": str,
    "src": int,
    "dst": int,
    "chunks": int,
    "bytes": int,
    "src_tier": str,
    "dst_tier": str,
}


def check(cond: bool, what: str, failures: list) -> None:
    if not cond:
        failures.append(what)


def validate_ledger(record: "_insight.InsightRecord", failures: list) -> None:
    """Per-entry fields/types and values, drop count, totals reconciliation."""
    check(isinstance(record.dropped, int) and record.dropped >= 0,
          "record carries a non-negative drop count", failures)
    by_kind: dict = {}
    for i, raw in enumerate(record.entries):
        entry = _insight.entry_dict(raw)
        check(set(entry) == set(ENTRY_FIELDS),
              f"ledger entry {i}: field set matches the entry schema "
              f"(got {sorted(entry)})", failures)
        for field, types in ENTRY_FIELDS.items():
            ok = isinstance(entry.get(field), types) and not isinstance(
                entry.get(field), bool
            )
            if not ok:
                failures.append(
                    f"ledger entry {i}: field {field!r} missing or mistyped "
                    f"({entry.get(field)!r})"
                )
                break
        else:
            check(entry["kind"] in _insight.LEDGER_KINDS,
                  f"ledger entry {i}: known kind (got {entry['kind']!r})", failures)
            check(entry["bytes"] >= 0 and entry["chunks"] >= 0,
                  f"ledger entry {i}: non-negative bytes/chunks", failures)
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
    # the drop-proof totals must cover at least the listed entries
    total_counts: dict = {}
    for (kind, _cause, _src, _dst), (n, _chunks, _b) in record.totals.items():
        total_counts[kind] = total_counts.get(kind, 0) + int(n)
    for kind, n in by_kind.items():
        check(total_counts.get(kind, 0) >= n,
              f"totals cover listed {kind} entries "
              f"({total_counts.get(kind, 0)} >= {n})", failures)


def validate_live(directory: str, failures: list) -> None:
    """live.ndjson line schema + contiguous windows (indexes 0, 1, 2, ...,
    each starting where the previous one ended), metrics.prom parses."""
    live_path = os.path.join(directory, _insight.LIVE_FILE)
    check(os.path.isfile(live_path), f"{live_path} exists", failures)
    if not os.path.isfile(live_path):
        return
    with open(live_path, encoding="utf-8") as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    check(len(lines) > 0, f"{live_path}: at least one window", failures)
    prev_end = None
    for i, ln in enumerate(lines, start=1):
        payload = json.loads(ln)
        for field in _insight.LIVE_SCHEMA:
            if field not in payload:
                failures.append(f"live line {i}: missing field {field!r}")
                break
        else:
            check(payload["window"] == i - 1,
                  f"live line {i}: window index is {i - 1}", failures)
            if prev_end is not None:
                check(math.isclose(payload["start"], prev_end, rel_tol=1e-12),
                      f"live line {i}: window starts where the last one ended", failures)
            prev_end = payload["end"]
            check(payload["end"] > payload["start"],
                  f"live line {i}: positive window span", failures)
            check(payload["admitted"] + payload["rejected"] == payload["offered"],
                  f"live line {i}: arrival split reconciles", failures)
            for node, block in payload.get("tiers", {}).items():
                check(set(block) == {"occupancy", "free", "stall"},
                      f"live line {i}: node {node} tier block shape", failures)
                check(set(block["occupancy"]) == set(_insight.TIER_LABELS),
                      f"live line {i}: node {node} occupancy covers all tiers",
                      failures)
    prom_path = os.path.join(directory, _insight.PROM_FILE)
    check(os.path.isfile(prom_path), f"{prom_path} exists", failures)
    if os.path.isfile(prom_path):
        with open(prom_path, encoding="utf-8") as fh:
            metrics = 0
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.rsplit(" ", 1)
                check(len(parts) == 2, f"prom line parses: {line!r}", failures)
                if len(parts) == 2:
                    try:
                        float(parts[1])
                        metrics += 1
                    except ValueError:
                        failures.append(f"prom value not numeric: {line!r}")
            check(metrics > 0, f"{prom_path}: at least one metric", failures)


def validate_record(run_dir: str, failures: list) -> None:
    """insight.json loads, round-trips, and its ledger is well formed."""
    record = load_insight_record(run_dir)
    check(record is not None, f"{run_dir}/{INSIGHT_FILE} loads", failures)
    if record is None:
        return
    roundtrip = _insight.InsightRecord.from_dict(record.to_dict())
    check(roundtrip == record, "insight record dict round-trip identity", failures)
    validate_ledger(record, failures)


def _self_contained(tmp: str) -> "tuple[str, str]":
    """Run the default service scenario with the insight plane on and
    write every artifact under ``tmp``; returns (telemetry_dir, live_dir)."""
    from repro import obs
    from repro.obs.exporters import write_run_dir
    from repro.scenarios import run_service
    from repro.scenarios.registry import scenario

    spec = scenario(DEFAULT)
    tel_dir = os.path.join(tmp, "telemetry")
    live_dir = os.path.join(tmp, "live")
    telemetry = obs.Telemetry("insight-smoke")
    insight = _insight.Insight("insight-smoke")
    with obs.session(telemetry, insight=insight):
        run_service(spec, live=live_dir)
    write_run_dir(telemetry.snapshot(), tel_dir, insight.snapshot())
    return tel_dir, live_dir


def main(argv: list) -> int:
    failures: list = []
    if len(argv) > 1:
        tel_dir = argv[1]
        live_dir = argv[2] if len(argv) > 2 else None
    else:
        import tempfile

        tmp = tempfile.mkdtemp(prefix="insight-smoke-")
        tel_dir, live_dir = _self_contained(tmp)
    validate_record(tel_dir, failures)
    if live_dir is not None:
        validate_live(live_dir, failures)
    if failures:
        print(f"FAIL: {len(failures)} schema violations:")
        for what in failures:
            print(f"  - {what}")
        return 1
    scope = f"{tel_dir}" + (f" + {live_dir}" if live_dir else "")
    print(f"OK: insight artifacts valid ({scope})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
