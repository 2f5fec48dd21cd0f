"""Tests of the end-to-end benchmark itself (run: ``python3 -m pytest benchmarks/e2e``).

Every workload runs at a reduced ``size`` so the file finishes in about a
minute; the checks are the same ones a benchmark run makes.
"""

import json
import re

import pytest

import layers
import run
import workloads

run.bootstrap()

SMALL = 0.1


def layer_values(tracer: layers.LayerTracer, instances: int) -> dict:
    return layers.layer_metrics(
        tracer.totals,
        instances,
        untraced_s=1.0,
        setup=dict.fromkeys(("import_s", "workload_s", "env_s"), 0.0),
        replay_s=0.0,
    )


def layer_counts(tracer: layers.LayerTracer, instances: int) -> dict:
    values = layer_values(tracer, instances)
    return {name: values[name] for name in layers.COUNT_METRICS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_checks_under_the_invariant_checker(name):
    from repro.resilience import InvariantChecker, invariants

    workload = workloads.load(name, size=SMALL)
    with invariants.session(InvariantChecker()):
        outcome = workload.prepare(workloads.instance_seed(0, 0)).execute()
    assert outcome.problems == []
    assert outcome.attempted > 0
    assert outcome.completed == outcome.attempted and outcome.failed == 0


def test_tracing_keeps_statistics_and_repeats_layer_counts():
    workload = workloads.load("batch-imme", size=SMALL)
    first, plain, traced = run.trace_instances(workload, 7)
    second, _, _ = run.trace_instances(workload, 7)
    assert [o.stats for o in traced] == [r.outcome.stats for r in plain]
    assert layer_counts(first, run.TRACED_INSTANCES) == layer_counts(second, run.TRACED_INSTANCES)
    assert first.missing == []
    values = layer_values(first, run.TRACED_INSTANCES)
    assert values["rates.calls"] > 0
    # self times partition the traced wall: nothing counted twice, little missed
    shares = ("sim.share", "rates.share", "heatmap.share", "policy.tick_share", "scheduler.share")
    assert 0.0 <= values["trace.unattributed_share"] < 0.10
    assert 0.9 < sum(values[name] for name in shares) <= 1.0


def test_sweep_counts_merged_from_workers_equal_in_process_counts():
    counts = {}
    for jobs in (1, 2):
        workload = workloads.load("sweep-fig10", size=SMALL, jobs=jobs)
        tracer, _, outcomes = run.trace_instances(workload, 0)
        assert all(o.problems == [] for o in outcomes)
        counts[jobs] = layer_counts(tracer, len(outcomes))
    assert counts[2] == counts[1]
    assert counts[2]["parallel.cells"] == 8
    assert counts[2]["sim.events_fired"] > 0


def test_every_declared_metric_is_emitted_with_its_unit():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.measure("svc-gated", 0, 0.0, trace, size=SMALL)
        assert result["correct"]
        emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in bench[section]}
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in bench[section]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
