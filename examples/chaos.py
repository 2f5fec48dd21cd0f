#!/usr/bin/env python3
"""Chaos harness: a fault schedule against a memory-capped IMME cluster.

Builds the ``ext-resilience`` scenario by hand — a two-node IMME cluster
running a memory-capped scientific ensemble — then lets the
:class:`FaultInjector` replay the default chaos schedule (registry
outage, straggler, degraded PMem, node crash, CXL link flap) under an
``obs.session``, which records every injection and recovery along with
the node agents' own fault events.  The script prints the fault event
log followed by the survival scoreboard: completions, requeues, retries,
MTTR, and goodput.

Run:  python examples/chaos.py
"""

from dataclasses import replace

from repro import obs
from repro.envs import EnvKind, make_environment
from repro.experiments.ext_resilience import default_chaos_schedule
from repro.util.rng import RngFactory
from repro.util.units import MiB, bytes_to_human
from repro.workflows.ensembles import make_ensemble
from repro.workflows.library import scientific_task

SCALE = 1 / 64
INSTANCES = 4
N_NODES = 2
LIMIT_MARGIN = 0.05


def main() -> None:
    base = scientific_task(scale=SCALE, request_extra=True)
    members = [
        replace(m, memory_limit=int(m.footprint * (1.0 + LIMIT_MARGIN)))
        for m in make_ensemble(base, INSTANCES, rng_factory=RngFactory(0))
    ]
    total = sum(m.footprint for m in members)
    print(
        f"Launching {INSTANCES} SC instances ({bytes_to_human(total)} total, "
        f"limits at footprint +{LIMIT_MARGIN:.0%}) on {N_NODES} IMME nodes\n"
    )

    env = make_environment(
        EnvKind.IMME,
        n_nodes=N_NODES,
        dram_capacity=int(total * 1.2 / N_NODES),
        chunk_size=MiB(1),
    )
    tel = obs.Telemetry("chaos")
    schedule = default_chaos_schedule(N_NODES)
    env.inject_faults(schedule, seed=7)
    with obs.session(tel):
        metrics = env.run_batch(members, max_time=1e7)

    print("=== Fault log ===")
    for ev in tel.events("fault"):
        extra = ", ".join(f"{k}={v}" for k, v in ev.items() if k not in ("t", "cat", "subj"))
        print(f"  t={ev['t']:7.1f}s  {ev['subj']:18s}  {extra}")

    f = metrics.faults
    print("\n=== Survival scoreboard ===")
    print(f"  completed        {len(metrics.completed())}/{INSTANCES}")
    print(f"  failed           {len(metrics.failed())}")
    print(f"  faults injected  {f.total_injected}")
    print(f"  job requeues     {f.job_requeues}")
    print(f"  task retries     {metrics.total_retries()}")
    print(f"  pull retries     {f.pull_retries} (+{f.pull_fallbacks} CXL->network fallbacks)")
    print(f"  tier evacuations {f.tier_evacuations} ({bytes_to_human(f.evacuated_bytes)})")
    print(f"  MTTR             {f.mttr:.1f} s")
    print(f"  goodput          {metrics.goodput():.2f} workflows/sim-hour")
    print(
        "\nEvery fault either recovers (requeue with backoff, tier "
        "evacuation, pull retry/fallback) or is a recorded failed job; "
        "IMME's uncharged CXL expansions also ride out the memory cap."
    )
    env.stop()


if __name__ == "__main__":
    main()
