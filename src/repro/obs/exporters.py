"""Write a run's records to a telemetry directory, and read them back.

One file per recording plane, plus the one view an outside tool needs
(``write_run_dir``):

``run.json``
    The :class:`~repro.obs.telemetry.TelemetryRecord`: spans, counters,
    gauges, histograms and sim-time events.  ``python -m repro obs``
    reads it back (``summary`` rolls up every counter, gauge and
    histogram; ``trace`` re-emits the Chrome trace from it).
``insight.json``
    The :class:`~repro.obs.insight.InsightRecord` (migration ledger and
    tier time-series), when the insight plane ran.
``trace.json``
    Chrome ``trace_event`` JSON — open it in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.  Wall-clock spans
    land on pid 1 with one thread per worker; simulated-time events land
    on pid 2 so the two timebases never share an axis.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Sequence

from .insight import TEMP_QUANTILES, TIER_LABELS, InsightRecord
from .telemetry import TelemetryRecord, split_label

__all__ = [
    "load_insight_record",
    "load_run_dir",
    "percentile",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_run_dir",
]

RUN_FILE = "run.json"
TRACE_FILE = "trace.json"
INSIGHT_FILE = "insight.json"

_MAIN_PID = 1       # wall-clock span track
_SIM_PID = 2        # simulated-time event track
_MAIN_THREAD = 0    # tid for spans recorded by the parent process


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile(values, q)`` (numpy's default ``linear`` method) of
    finite ``values``, ``0 <= q <= 100``, in pure Python and to the bit:
    the sorted values are interpolated at ``(n - 1) * q / 100`` as numpy's
    ``_lerp`` does it (from the upper end when ``t >= 0.5``).  Empty input
    reads 0.0.  The one percentile behind the latency tables, the service
    class latencies and the ``obs`` rollups.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    lo = math.floor(virtual)
    if virtual >= n - 1:  # numpy reads both neighbours at the last index
        lo = hi = -1
    else:
        hi = lo + 1
    a, b = float(ordered[lo]), float(ordered[hi])
    t = virtual - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


# --------------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------------- #

def to_chrome_trace(
    record: TelemetryRecord, insight: Optional[InsightRecord] = None
) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document.

    Spans become complete ("X") events in microseconds relative to the
    run epoch, one tid per worker; counters become a single "C" sample;
    sim-time events become instants ("i") on a dedicated pid whose
    timestamp is ``sim_time * 1e6`` (so 1 trace-second == 1 simulated
    second when viewed).  With an :class:`InsightRecord`, per-node tier
    occupancy / stall / temperature series become Perfetto counter
    tracks ("C") on the sim pid, timestamp-sorted so each track is
    monotonic even after fork-merge interleaves cell clocks.
    """
    events: List[Dict[str, Any]] = []
    tids = {"": _MAIN_THREAD}
    for w in record.workers:
        tids.setdefault(w, len(tids))
    for s in record.spans:
        tids.setdefault(s.worker, len(tids))

    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": _MAIN_PID,
            "tid": 0,
            "args": {"name": f"repro wall-clock ({record.run_id})"},
        }
    )
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": _SIM_PID,
            "tid": 0,
            "args": {"name": "repro simulated time"},
        }
    )
    for worker, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _MAIN_PID,
                "tid": tid,
                "args": {"name": worker or "main"},
            }
        )

    for s in record.spans:
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "pid": _MAIN_PID,
                "tid": tids[s.worker],
                "ts": s.start * 1e6,
                "dur": max(0.0, s.duration) * 1e6,
                "cat": s.name.split(".", 1)[0],
                "args": {str(k): v for k, v in s.attrs.items()},
            }
        )

    for key, value in sorted(record.counters.items()):
        name, labels = split_label(key)
        events.append(
            {
                "name": key,
                "ph": "C",
                "pid": _MAIN_PID,
                "tid": _MAIN_THREAD,
                "ts": 0,
                "args": {labels.get("exp", name): value},
            }
        )

    for ev in record.events:
        payload = {k: v for k, v in ev.items() if k not in ("t", "cat", "subj")}
        events.append(
            {
                "name": f"{ev.get('cat', 'event')}:{ev.get('subj', '')}",
                "ph": "i",
                "s": "g",
                "pid": _SIM_PID,
                "tid": 0,
                "ts": float(ev.get("t", 0.0)) * 1e6,
                "cat": str(ev.get("cat", "event")),
                "args": {str(k): v for k, v in payload.items()},
            }
        )

    if insight is not None:
        events.extend(_insight_counter_tracks(insight))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": record.run_id, **{str(k): str(v) for k, v in record.meta.items()}},
    }


def _insight_counter_tracks(insight: InsightRecord) -> List[Dict[str, Any]]:
    """Tier time-series as Perfetto counter tracks on the sim pid.

    Samples are sorted by timestamp per node before emission: a merged
    ``jobs=N`` record interleaves cell-local sim clocks, and Perfetto's
    counter renderer (and :func:`validate_chrome_trace`) require each
    track's timestamps to be non-decreasing.
    """
    out: List[Dict[str, Any]] = []
    for node in sorted(insight.series):
        s = insight.series[node]
        ts = s["t"]
        order = sorted(range(len(ts)), key=lambda i: float(ts[i]))
        for i in order:
            t_us = float(ts[i]) * 1e6
            out.append(
                {
                    "name": f"tier.occupancy.{node}",
                    "ph": "C",
                    "pid": _SIM_PID,
                    "tid": 0,
                    "ts": t_us,
                    "args": {
                        label: float(s["occupancy"][i][t])
                        for t, label in enumerate(TIER_LABELS)
                    },
                }
            )
            out.append(
                {
                    "name": f"tier.stall.{node}",
                    "ph": "C",
                    "pid": _SIM_PID,
                    "tid": 0,
                    "ts": t_us,
                    "args": {"stall": float(s["stall"][i])},
                }
            )
            out.append(
                {
                    "name": f"tier.temp.{node}",
                    "ph": "C",
                    "pid": _SIM_PID,
                    "tid": 0,
                    "ts": t_us,
                    "args": {
                        f"p{int(q * 100)}": float(s["temp_q"][i][j])
                        for j, q in enumerate(TEMP_QUANTILES)
                    },
                }
            )
    return out


_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "M": ("name", "pid", "args"),
    "C": ("name", "ts", "pid", "args"),
    "i": ("name", "ts", "pid", "s"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
}


def validate_chrome_trace(doc: Any) -> List[str]:
    """Structural validation against the trace_event format; returns a
    list of problems (empty == valid).  Used by the CI smoke job.

    Counter ("C") tracks get the checks Perfetto's counter renderer
    relies on: a non-empty ``args`` object of numeric samples, and
    non-decreasing timestamps per ``(pid, tid, name)`` track.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    counter_clock: Dict[tuple, float] = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event[{i}] is not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            problems.append(f"event[{i}] missing ph")
            continue
        for field in _REQUIRED_BY_PHASE.get(ph, ("name", "pid")):
            if field not in ev:
                problems.append(f"event[{i}] ({ph}) missing {field!r}")
        if "ts" in ev and not isinstance(ev["ts"], (int, float)):
            problems.append(f"event[{i}] ts is not numeric")
        if ph == "X" and isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
            problems.append(f"event[{i}] has negative dur")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"event[{i}] (C) args is not a non-empty object")
            else:
                for key, value in args.items():
                    if not isinstance(value, (int, float)) or isinstance(value, bool):
                        problems.append(
                            f"event[{i}] (C) sample {key!r} is not numeric"
                        )
            ts = ev.get("ts")
            if isinstance(ts, (int, float)):
                track = (ev.get("pid"), ev.get("tid"), ev.get("name"))
                last = counter_clock.get(track)
                if last is not None and ts < last:
                    problems.append(
                        f"event[{i}] (C) non-monotonic ts on track {track[2]!r}: "
                        f"{ts} after {last}"
                    )
                counter_clock[track] = float(ts)
    return problems


# --------------------------------------------------------------------------- #
# run directory
# --------------------------------------------------------------------------- #

def write_run_dir(
    record: TelemetryRecord,
    out_dir: str,
    insight: Optional[InsightRecord] = None,
) -> Dict[str, str]:
    """Write ``run.json`` and ``trace.json`` under ``out_dir``, plus
    ``insight.json`` and the trace's tier counter tracks when an
    :class:`InsightRecord` is given; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "run": os.path.join(out_dir, RUN_FILE),
        "trace": os.path.join(out_dir, TRACE_FILE),
    }
    # json.dumps, unlike json.dump, encodes in C
    with open(paths["run"], "w") as fh:
        fh.write(json.dumps(record.to_dict(), default=str))
    with open(paths["trace"], "w") as fh:
        fh.write(json.dumps(to_chrome_trace(record, insight), default=str))
    if insight is not None:
        paths["insight"] = os.path.join(out_dir, INSIGHT_FILE)
        with open(paths["insight"], "w") as fh:
            fh.write(json.dumps(insight.to_dict(), default=str))
    return paths


def load_run_dir(run_dir: str) -> TelemetryRecord:
    run_path = os.path.join(run_dir, RUN_FILE)
    if not os.path.exists(run_path) and os.path.basename(run_dir) == RUN_FILE:
        run_path = run_dir  # allow pointing directly at run.json
    with open(run_path) as fh:
        return TelemetryRecord.from_dict(json.load(fh))


def load_insight_record(run_dir: str) -> Optional[InsightRecord]:
    """The run directory's insight record, or ``None`` when the run was
    recorded without the introspection plane."""
    path = os.path.join(run_dir, INSIGHT_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return InsightRecord.from_dict(json.load(fh))


def find_run_dirs(root: str) -> List[str]:
    """All directories under ``root`` (inclusive) containing a run.json."""
    found: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        if RUN_FILE in filenames:
            found.append(dirpath)
    return sorted(found)


