"""Service-mode benchmark — open-loop arrival throughput.

How fast the simulator pushes a saturated steady-state stream through
the scheduler: 10,000 offered arrivals against a queue-cap admission
policy (the validated acceptance recipe — most arrivals are shed at one
policy check each, so the measured cost is the service loop itself plus
the admitted tasks' simulation).  The gate is the run's cost per fired
engine event, against the cost of a bare engine event in the same run
(a chain of as many schedule+fire cycles as the service run fires).
``extra_info`` also records three rates over the median of the rounds:
``arrivals_per_sec`` (offered arrivals), and the work actually done —
``admitted_per_sec`` and ``events_per_sec`` (engine events fired).
"""

import gc

from repro.envs.environments import EnvKind, make_environment
from repro.service import ServiceSpec, serve
from repro.util.units import GiB, MiB

from bench_simulator_scale import bare_events

SCALE = 1.0 / 2048.0

#: the gate: the service run's cost per fired event, in bare engine
#: events (see docs/performance.md for the value on a 2-vCPU VM)
SERVICE_EVENT_BOUND = 65.0


def collected():
    """Free the previous round's environment (the gate times with the
    collector off, and an environment's object graph holds cycles)."""
    gc.collect()


def test_service_stream_throughput(benchmark, ratio_gate):
    """The 10k-arrival saturated service run."""

    spec = ServiceSpec(
        rate=50.0,
        max_arrivals=10_000,
        window=20.0,
        admission="queue-cap",
        queue_cap=32,
        classes=(("DM", 3), ("DC", 1)),
    )
    events_fired = []
    reports = []

    def run():
        env = make_environment(
            EnvKind.IMME, n_nodes=2, dram_capacity=GiB(2), chunk_size=MiB(16)
        )
        try:
            reports.append(serve(env, spec, scale=SCALE, seed=5))
        finally:
            events_fired.append(env.engine.events_fired)
            env.stop()

    run()  # untimed: lazy imports, and the event count the reference fires
    ratio_gate(run, bare_events(events_fired[0]), SERVICE_EVENT_BOUND, rounds=6,
               setup=collected)
    report = reports[-1]
    assert report.offered == 10_000
    assert report.admitted > 0 and report.completed == report.admitted
    assert report.converged
    assert len(set(events_fired)) == 1  # every round simulates the same run
    median = benchmark.stats.stats.median
    benchmark.extra_info["offered"] = report.offered
    benchmark.extra_info["admitted"] = report.admitted
    benchmark.extra_info["events_fired"] = events_fired[0]
    benchmark.extra_info["arrivals_per_sec"] = round(report.offered / median)
    benchmark.extra_info["admitted_per_sec"] = round(report.admitted / median)
    benchmark.extra_info["events_per_sec"] = round(events_fired[0] / median)
    print(
        f"{report.offered} arrivals: admitted {report.admitted}, "
        f"{events_fired[0]} events, util {report.steady_utilization:.2f}, "
        f"{len(report.windows)} windows"
    )
