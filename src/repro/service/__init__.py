"""Steady-state service mode: open-loop arrivals, windowed metrics,
warm-up detection, and admission control.

Batch scenarios answer "how long does this job set take?"; the service
layer answers the operational question — "what does the cluster look
like under sustained load?".  Arrivals are *open-loop* (the stream does
not wait for completions, so overload shows up as queue growth and shed
load rather than as a stretched makespan), the run is divided into fixed
report windows, an initial transient is truncated by MSER-5 or a
sliding-CV test, and a pluggable admission policy decides which arrivals
the cluster accepts.

Layering: this package sits *below* :mod:`repro.scenarios` (which embeds
a :class:`ServiceSpec` into :class:`ScenarioSpec`) and *above* the
engine/scheduler/envs stack it drives.
"""

from .admission import (
    AcceptAll,
    AdmissionPolicy,
    ClusterView,
    MemoryHeadroomGate,
    QueueDepthCap,
    build_admission,
)
from .arrivals import (
    arrival_process,
    burst_modulator,
    diurnal_modulator,
    load_trace,
    modulated_rate,
    poisson_process,
    trace_process,
    uniform_process,
)
from .metrics import ClassLatency, ServiceReport, WindowAccumulator, WindowRecord
from .run import ServiceRun, serve
from .spec import (
    ADMISSION_POLICIES,
    ARRIVAL_SOURCES,
    WARMUP_METHODS,
    WARMUP_METRICS,
    ServiceSpec,
)
from .stream import Arrival, TaskStream
from .warmup import detect_warmup, mser5, sliding_cv

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_SOURCES",
    "WARMUP_METHODS",
    "WARMUP_METRICS",
    "AcceptAll",
    "AdmissionPolicy",
    "Arrival",
    "ClassLatency",
    "ClusterView",
    "MemoryHeadroomGate",
    "QueueDepthCap",
    "ServiceReport",
    "ServiceRun",
    "ServiceSpec",
    "TaskStream",
    "WindowAccumulator",
    "WindowRecord",
    "arrival_process",
    "build_admission",
    "burst_modulator",
    "detect_warmup",
    "diurnal_modulator",
    "load_trace",
    "modulated_rate",
    "mser5",
    "poisson_process",
    "serve",
    "sliding_cv",
    "trace_process",
    "uniform_process",
]
