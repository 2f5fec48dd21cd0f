"""Unified observability: telemetry, the insight plane, and the run context.

Emission points across the stack call the module-level dispatchers
(:func:`counter`, :func:`span`, :func:`event`, ...), which are no-ops
unless a run installs a :class:`Telemetry` through :func:`session`
(``run_all --telemetry DIR``, ``scenarios run --telemetry DIR``).
:func:`write_run_dir` records a run as one file per plane — ``run.json``
(telemetry) and ``insight.json`` (insight plane) — plus ``trace.json``
for Perfetto; :func:`load_run_dir` and :func:`load_insight_record` read
them back.  See ``docs/observability.md`` for the span taxonomy and the
run directory.

:func:`session` scopes one :class:`RunContext`: telemetry, the
memory-introspection plane (:mod:`repro.obs.insight` — migration ledger,
tier time-series, live service metrics) and the invariant checker.
``obs.insight`` is re-exported here as the submodule, with the main types
aliased for convenience (:class:`Insight`, :class:`InsightRecord`,
:class:`SignalView`, :class:`LiveMetricsWriter`).
"""

from . import insight
from .exporters import (
    load_insight_record,
    load_run_dir,
    percentile,
    to_chrome_trace,
    validate_chrome_trace,
    write_run_dir,
)
from .insight import (
    Insight,
    InsightRecord,
    LiveMetricsWriter,
    MigrationLedger,
    SignalView,
    TierSampler,
)
from .run import RunContext, current, session
from .telemetry import (
    NULL,
    NullTelemetry,
    SpanRecord,
    Telemetry,
    TelemetryRecord,
    active,
    counter,
    enabled,
    event,
    gauge,
    observe,
    span,
)

__all__ = [
    "Insight",
    "InsightRecord",
    "LiveMetricsWriter",
    "MigrationLedger",
    "NULL",
    "NullTelemetry",
    "RunContext",
    "SignalView",
    "SpanRecord",
    "Telemetry",
    "TelemetryRecord",
    "TierSampler",
    "active",
    "counter",
    "current",
    "enabled",
    "event",
    "gauge",
    "insight",
    "load_insight_record",
    "load_run_dir",
    "observe",
    "percentile",
    "session",
    "span",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_run_dir",
]
