"""Service-mode benchmark — open-loop arrival throughput.

How fast the simulator pushes a saturated steady-state stream through
the scheduler: 10,000 offered arrivals against a queue-cap admission
policy (the validated acceptance recipe — most arrivals are shed at one
policy check each, so the measured cost is the service loop itself plus
the admitted tasks' simulation).  ``extra_info`` records three rates over
the median of three rounds: ``arrivals_per_sec`` (offered arrivals,
tracked against BENCH_simulator.json by the same >10% CI regression gate
as the arena cells/sec numbers), and the work actually done —
``admitted_per_sec`` and ``events_per_sec`` (engine events fired).
"""

from repro.envs.environments import EnvKind, make_environment
from repro.service import ServiceSpec, serve
from repro.util.units import GiB, MiB

SCALE = 1.0 / 2048.0


def test_service_stream_throughput(benchmark, backend):
    """The 10k-arrival saturated service run, per simulation-core backend."""

    spec = ServiceSpec(
        rate=50.0,
        max_arrivals=10_000,
        window=20.0,
        admission="queue-cap",
        queue_cap=32,
        classes=(("DM", 3), ("DC", 1)),
    )
    events_fired = []

    def run():
        env = make_environment(
            EnvKind.IMME, n_nodes=2, dram_capacity=GiB(2), chunk_size=MiB(16)
        )
        try:
            return serve(env, spec, scale=SCALE, seed=5)
        finally:
            events_fired.append(env.engine.events_fired)
            env.stop()

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.offered == 10_000
    assert report.admitted > 0 and report.completed == report.admitted
    assert report.converged
    assert len(set(events_fired)) == 1  # every round simulates the same run
    median = benchmark.stats.stats.median
    if median > 0:
        benchmark.extra_info["offered"] = report.offered
        benchmark.extra_info["admitted"] = report.admitted
        benchmark.extra_info["events_fired"] = events_fired[0]
        benchmark.extra_info["arrivals_per_sec"] = round(report.offered / median)
        benchmark.extra_info["admitted_per_sec"] = round(report.admitted / median)
        benchmark.extra_info["events_per_sec"] = round(events_fired[0] / median)
    print(
        f"\n{report.offered} arrivals ({backend} core): admitted "
        f"{report.admitted}, {events_fired[0]} events, "
        f"util {report.steady_utilization:.2f}, {len(report.windows)} windows"
    )
