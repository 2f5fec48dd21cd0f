#!/usr/bin/env python3
"""Observability: tracing and memory-utilisation timelines.

Records an IMME node's sim-time events through an ``obs.session`` and
attaches a :class:`UtilizationSampler`, runs a colocated workload, and
prints (1) the task/phase event log and (2) an ASCII
utilisation-over-time strip per memory tier — the data a real deployment
would ship to its monitoring stack.

Run:  python examples/observability.py
"""

from repro import obs
from repro.envs import EnvKind, EnvironmentConfig, Environment
from repro.memory import CXL, DRAM, TierKind
from repro.metrics import UtilizationSampler
from repro.util.units import MiB, bytes_to_human
from repro.workflows import paper_workload_suite

SCALE = 1 / 128


def sparkline(values, width=48) -> str:
    blocks = " .:-=+*#%@"
    if not len(values):
        return ""
    step = max(1, len(values) // width)
    sampled = values[::step][:width]
    top = max(float(v) for v in sampled) or 1.0
    return "".join(blocks[min(9, int(9 * float(v) / top))] for v in sampled)


def main() -> None:
    suite = paper_workload_suite(SCALE)
    specs = [s for s in suite.values()]
    total = sum(s.footprint for s in specs)

    config = EnvironmentConfig(
        kind=EnvKind.IMME,
        dram_capacity=int(total * 0.3),
        pmem_capacity=int(total * 0.6),
        cxl_capacity=total * 8,
        chunk_size=MiB(1),
    )
    env = Environment(config)
    tel = obs.Telemetry("observability")
    sampler = UtilizationSampler(env.engine, env.topology.nodes, interval=2.0)
    sampler.start()

    with obs.session(tel):
        env.run_batch(specs)
    sampler.stop()

    events = [ev for ev in tel.events() if ev["cat"] in ("task", "phase")]
    print("=== Event log (first 12 events) ===")
    for ev in events[:12]:
        extra = ", ".join(f"{k}={v}" for k, v in ev.items() if k not in ("t", "cat", "subj"))
        print(f"  t={ev['t']:8.2f}s  {ev['cat']:5s}  {ev['subj']:4s}  {extra}")
    print(f"  ... {len(events)} events total\n")

    print("=== Memory residency over time ===")
    for tier in (DRAM, TierKind.PMEM, CXL):
        series = sampler.cluster_series(tier)
        peak = sampler.peak(tier)
        print(
            f"  {tier.name:5s} |{sparkline(series)}| "
            f"peak {bytes_to_human(peak)}, mean util "
            f"{100 * sampler.mean_utilization(tier):.0f}%"
        )
    print(
        "\nIMME keeps DRAM hot-set-sized while the CXL strip absorbs the "
        "cold footprint — the §III-C4 proactive-swap signature."
    )
    env.stop()


if __name__ == "__main__":
    main()
