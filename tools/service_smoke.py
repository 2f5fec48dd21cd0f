#!/usr/bin/env python
"""Service-mode smoke check for CI.

Runs one registered steady-state service scenario and validates the
report *schema*: every field a downstream consumer (CLI table,
experiment series, cache codec) reads must be present, typed, and
internally consistent, and the run must have actually admitted and
completed work.  Exit 0 on success, 1 with a
diagnostic otherwise.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [scenario-name]
"""

from __future__ import annotations

import math
import sys

from repro.cache.codec import decode, encode
from repro.scenarios import run_service
from repro.scenarios.registry import scenario
from repro.service import ClassLatency, ServiceReport, WindowRecord

DEFAULT = "ext-steady-state/IMME:0.10"


def check(cond: bool, what: str, failures: list) -> None:
    if not cond:
        failures.append(what)


def validate(report: ServiceReport) -> list:
    f: list = []
    check(isinstance(report, ServiceReport), "result is a ServiceReport", f)
    check(report.offered > 0, f"offered > 0 (got {report.offered})", f)
    check(report.admitted > 0, f"admitted > 0 (got {report.admitted})", f)
    check(report.completed > 0, f"completed > 0 (got {report.completed})", f)
    check(report.admitted + report.rejected == report.offered,
          "admitted + rejected == offered", f)
    check(report.duration > 0, "duration > 0", f)
    check(len(report.windows) > 0, "at least one window", f)
    check(0 <= report.warmup_windows <= len(report.windows),
          "warm-up cut within the window range", f)
    check(isinstance(report.converged, bool), "converged is a bool", f)
    for w in report.windows:
        check(isinstance(w, WindowRecord), f"window {w!r} typed", f)
        check(w.end > w.start, f"window {w.index} has positive span", f)
        check(0.0 <= w.utilization <= 1.0, f"window {w.index} utilization in [0,1]", f)
        check(w.arrivals == w.admitted + w.rejected,
              f"window {w.index} arrival split reconciles", f)
    check(sum(w.arrivals for w in report.windows) == report.offered,
          "window arrivals sum to offered", f)
    check(sum(w.completed for w in report.windows) == report.completed,
          "window completions sum to completed", f)
    check(0.0 <= report.steady_utilization <= 1.0, "steady utilization in [0,1]", f)
    check(report.steady_queue_depth >= 0.0, "steady queue depth >= 0", f)
    check(len(report.class_latency) > 0, "at least one class completed", f)
    for cl in report.class_latency:
        check(isinstance(cl, ClassLatency), f"class latency {cl!r} typed", f)
        check(cl.count > 0, f"{cl.wclass}: count > 0", f)
        check(math.isfinite(cl.mean), f"{cl.wclass}: finite mean", f)
        check(cl.p50 <= cl.p95 <= cl.p99, f"{cl.wclass}: ordered percentiles", f)
    check(decode(encode(report)) == report, "codec round-trip identity", f)
    return f


def main(argv: list) -> int:
    name = argv[1] if len(argv) > 1 else DEFAULT
    spec = scenario(name)
    if spec.service is None:
        print(f"FAIL: scenario {name!r} has no service section")
        return 1
    report = run_service(spec)
    failures = validate(report)
    print(report.to_table())
    if failures:
        print(f"\nFAIL: {len(failures)} schema violations in {name}:")
        for what in failures:
            print(f"  - {what}")
        return 1
    print(f"\nOK: {name} report schema valid "
          f"(admitted={report.admitted}, completed={report.completed})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
