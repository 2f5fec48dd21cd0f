"""``python -m repro obs`` — inspect telemetry run directories.

Subcommands:

``summary DIR``
    Per-experiment rollups of ``run.json``: total wall time per span
    name, counter and gauge values grouped by experiment scope,
    histogram count/p50/p95/p99, drop accounting, and the migration
    ledger totals from ``insight.json`` when present.
``trace DIR [--out FILE] [--check]``
    (Re-)emit the Chrome trace_event JSON from ``run.json``; ``--check``
    validates the document structurally and exits non-zero on problems.
``top DIR [-n N]``
    The N most expensive span names by cumulative self-inclusive time.
``tail DIR [-n N]``
    The last N windows of a live service stream (``live.ndjson``, written
    by ``scenarios serve --live``): window counters plus per-node tier
    occupancy and the stall proxy.

``summary`` and ``top`` take ``--json`` to emit their rollups as one
machine-readable JSON document instead of tables (the text summary is
printed from that same document); ``tail --json`` echoes the raw NDJSON
payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

from ..metrics.report import format_table
from .exporters import (
    TRACE_FILE,
    find_run_dirs,
    load_insight_record,
    load_run_dir,
    percentile,
    to_chrome_trace,
    validate_chrome_trace,
)
from .insight import LIVE_FILE, format_live_window, tier_label
from .telemetry import TelemetryRecord, split_label

__all__ = ["main"]


def _load(path: str) -> TelemetryRecord:
    try:
        return load_run_dir(path)
    except FileNotFoundError:
        raise SystemExit(f"no run.json under {path!r} — was this written by --telemetry?")


def _span_rollup(record: TelemetryRecord) -> List[List[object]]:
    agg: Dict[str, List[float]] = {}
    for s in record.spans:
        agg.setdefault(s.name, []).append(s.duration)
    rows = []
    for name in sorted(agg, key=lambda n: -sum(agg[n])):
        durs = agg[name]
        rows.append(
            [name, len(durs), sum(durs), percentile(durs, 50), max(durs)]
        )
    return rows


def _keyed_rollup(values: Dict[str, float]) -> List[List[object]]:
    """Counter or gauge values grouped by the ``exp`` scope label."""
    rows = []
    for key in sorted(values):
        name, labels = split_label(key)
        exp = labels.pop("exp", "-")
        label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
        rows.append([exp, name, label_str, values[key]])
    rows.sort(key=lambda r: (str(r[0]), str(r[1]), str(r[2])))
    return rows


def _summary_doc(run_dir: str, record: TelemetryRecord) -> dict:
    """One run's rollups as a JSON-ready document: ``summary --json``
    emits it and the text summary prints it."""
    doc: dict = {
        "dir": run_dir,
        "run_id": record.run_id,
        "meta": dict(record.meta),
        "workers": list(record.workers),
        "spans": [
            {"span": name, "count": count, "total": total, "p50": p50, "max": mx}
            for name, count, total, p50, mx in _span_rollup(record)
        ],
        "counters": [
            {"experiment": exp, "counter": name, "labels": labels, "total": total}
            for exp, name, labels, total in _keyed_rollup(record.counters)
        ],
        "gauges": [
            {"experiment": exp, "gauge": name, "labels": labels, "value": value}
            for exp, name, labels, value in _keyed_rollup(record.gauges)
        ],
        "histograms": [
            {
                "histogram": name,
                "count": len(values),
                **{f"p{q}": percentile(values, q) for q in (50, 95, 99)},
            }
            for name, values in sorted(record.histograms.items())
        ],
        "events": len(record.events),
        "dropped": {
            "spans": record.dropped_spans,
            "events": record.dropped_events,
            "observations": record.dropped_observations,
        },
    }
    insight = load_insight_record(run_dir)
    if insight is not None:
        doc["insight"] = {
            "ledger_entries": len(insight.entries),
            "ledger_dropped": insight.dropped,
            # the drop-proof totals, one row per (kind, cause, src, dst)
            "ledger": [
                {
                    "kind": kind, "cause": cause,
                    "src": tier_label(src), "dst": tier_label(dst),
                    "entries": n, "chunks": chunks, "bytes": nbytes,
                }
                for (kind, cause, src, dst), (n, chunks, nbytes)
                in sorted(insight.totals.items())
            ],
            "nodes": sorted(insight.series, key=str),
            "samples_seen": dict(insight.samples_seen),
        }
    return doc


#: the text summary's tables: document key, (field, header) columns, and
#: the float format of its cells
_TABLES = (
    ("spans", (("span", "span"), ("count", "count"), ("total", "total s"),
               ("p50", "p50 s"), ("max", "max s")), "{:.4f}"),
    ("counters", (("experiment", "experiment"), ("counter", "counter"),
                  ("labels", "labels"), ("total", "total")), "{:.0f}"),
    ("gauges", (("experiment", "experiment"), ("gauge", "gauge"),
                ("labels", "labels"), ("value", "value")), "{:.4f}"),
    ("histograms", (("histogram", "histogram"), ("count", "n"), ("p50", "p50"),
                    ("p95", "p95"), ("p99", "p99")), "{:.3f}"),
)

def _print_table(title: str, columns, rows: List[dict], float_fmt: str) -> None:
    print()
    print(
        format_table(
            [header for _field, header in columns],
            [[row[field] for field, _header in columns] for row in rows],
            title=title,
            float_fmt=float_fmt,
        )
    )


def _print_summary(doc: dict) -> None:
    print(f"run {doc['run_id']!r}  ({doc['dir']})")
    if doc["meta"]:
        meta = ", ".join(f"{k}={v}" for k, v in sorted(doc["meta"].items()))
        print(f"  meta: {meta}")
    if doc["workers"]:
        print(f"  workers: {', '.join(doc['workers'])}")
    for key, columns, float_fmt in _TABLES:
        if doc[key]:
            _print_table(key, columns, doc[key], float_fmt)
    dropped = doc["dropped"]
    spans = sum(row["count"] for row in doc["spans"])
    print()
    print(
        f"  events: {doc['events']}  spans: {spans}  "
        f"dropped: {sum(dropped.values())} "
        f"(spans={dropped['spans']}, events={dropped['events']}, "
        f"obs={dropped['observations']})"
    )
    insight = doc.get("insight")
    if insight is not None:
        if insight["ledger"]:
            fields = ("kind", "cause", "src", "dst", "entries", "chunks", "bytes")
            columns = [(field, field) for field in fields]
            _print_table("migration ledger", columns, insight["ledger"], "{:.0f}")
        if insight["nodes"]:
            total = sum(insight["samples_seen"].values())
            print()
            print(f"  tier series: {len(insight['nodes'])} node(s) "
                  f"[{', '.join(insight['nodes'])}], {total} samples")
    print()


def _cmd_summary(args: argparse.Namespace) -> int:
    dirs = find_run_dirs(args.dir) or [args.dir]
    docs = [_summary_doc(run_dir, _load(run_dir)) for run_dir in dirs]
    if getattr(args, "json", False):
        json.dump(docs, sys.stdout, indent=2, sort_keys=True, default=str)
        print()
        return 0
    for doc in docs:
        _print_summary(doc)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    record = _load(args.dir)
    # re-emitting from a run dir that carries an insight record keeps its
    # counter tracks (tier occupancy/stall/temp) in the regenerated trace
    doc = to_chrome_trace(record, load_insight_record(args.dir))
    if args.check:
        problems = validate_chrome_trace(doc)
        if problems:
            for p in problems:
                print(f"trace invalid: {p}", file=sys.stderr)
            return 1
        print(f"trace OK: {len(doc['traceEvents'])} events")
    out = args.out or os.path.join(args.dir, TRACE_FILE)
    with open(out, "w") as fh:
        json.dump(doc, fh, default=str)
    print(f"wrote {out} — open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    record = _load(args.dir)
    rows = _span_rollup(record)[: args.n]
    if getattr(args, "json", False):
        doc = [
            {"span": name, "count": count, "total": total, "p50": p50, "max": mx}
            for name, count, total, p50, mx in rows
        ]
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    if not rows:
        print("(no spans recorded)")
        return 0
    print(
        format_table(
            ["span", "count", "total s", "p50 s", "max s"],
            rows,
            title=f"top {len(rows)} spans by total wall time",
            float_fmt="{:.4f}",
        )
    )
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    path = args.dir if args.dir.endswith(".ndjson") else os.path.join(args.dir, LIVE_FILE)
    if not os.path.isfile(path):
        raise SystemExit(
            f"no {LIVE_FILE} under {args.dir!r} — was this written by serve --live?"
        )
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    windows = lines[-args.n:] if args.n > 0 else lines
    if getattr(args, "json", False):
        for ln in windows:
            print(ln)
        return 0
    print(f"{path}: {len(lines)} window(s), showing last {len(windows)}")
    for ln in windows:
        try:
            payload = json.loads(ln)
        except json.JSONDecodeError:
            # a live stream's final line may still be mid-write; skip it
            continue
        print(format_live_window(payload))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Inspect telemetry run directories written by --telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_summary = sub.add_parser(
        "summary", help="span/counter/gauge/histogram rollups for a run dir tree"
    )
    p_summary.add_argument("dir", help="telemetry directory (searched recursively)")
    p_summary.add_argument(
        "--json", action="store_true", help="emit the rollups as a JSON document"
    )
    p_summary.set_defaults(fn=_cmd_summary)

    p_trace = sub.add_parser("trace", help="emit/validate Chrome trace_event JSON")
    p_trace.add_argument("dir", help="telemetry run directory")
    p_trace.add_argument("--out", default=None, help="output path (default: DIR/trace.json)")
    p_trace.add_argument(
        "--check", action="store_true", help="validate against the trace_event schema"
    )
    p_trace.set_defaults(fn=_cmd_trace)

    p_top = sub.add_parser("top", help="most expensive spans")
    p_top.add_argument("dir", help="telemetry run directory")
    p_top.add_argument("-n", type=int, default=15, help="how many rows (default 15)")
    p_top.add_argument(
        "--json", action="store_true", help="emit the rows as a JSON document"
    )
    p_top.set_defaults(fn=_cmd_top)

    p_tail = sub.add_parser(
        "tail", help="render the last windows of a live service stream"
    )
    p_tail.add_argument("dir", help="--live directory (or a live.ndjson path)")
    p_tail.add_argument(
        "-n", type=int, default=10, help="how many windows (default 10, 0 = all)"
    )
    p_tail.add_argument(
        "--json", action="store_true", help="echo the raw NDJSON payloads"
    )
    p_tail.set_defaults(fn=_cmd_tail)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
