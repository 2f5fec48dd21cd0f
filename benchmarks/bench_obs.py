"""Telemetry overhead: the instrumented stack must be free when nobody
records.

Three measurements:

* the raw cost of disabled emissions through the module dispatchers
  (one function call + one no-op method call each),
* the cost of the same emissions into a live ``Telemetry`` context,
* the budget proof: count every emission an instrumented reference run
  makes, multiply by the measured per-call null-dispatch cost, and
  assert the product stays under 2 % of the run's disabled wall time.

The insight plane (migration ledger + tier sampler) repeats the same
discipline with its own legs: the disabled probe (one ``active()`` call
plus an ``enabled`` attribute read, the exact hot-path pattern the
movement kernels use), the enabled recording cost, and a two-sided
budget proof — disabled probes under 2 %, enabled recording under 5 %
of the reference run's disabled wall time.
"""

import time

import numpy as np

from repro import obs
from repro.obs import insight as _insight
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import REGISTRY, _ensure_catalog

#: emission pairs (counter + span) per timed round
N_DISPATCH = 20_000

#: the run-level overhead ceiling the disabled path must stay under
OVERHEAD_BUDGET = 0.02

#: insight-plane ceilings: disabled probes / enabled recording
INSIGHT_DISABLED_BUDGET = 0.02
INSIGHT_ENABLED_BUDGET = 0.05


def _null_emissions(n=N_DISPATCH):
    counter = obs.counter
    span = obs.span
    for i in range(n):
        counter("bench.counter", 1, tier="dram")
        with span("bench.span"):
            pass


def test_null_dispatch_cost(benchmark):
    """20k disabled counter+span emissions (the hot-path tax when off)."""
    assert not obs.enabled()
    benchmark(_null_emissions)


def test_enabled_emission_cost(benchmark):
    """The same 20k emissions into a live context (what --telemetry pays)."""

    def setup():
        return (obs.Telemetry("bench", max_spans=2 * N_DISPATCH),), {}

    def emit(tel):
        with obs.session(tel):
            _null_emissions()

    benchmark.pedantic(emit, setup=setup, rounds=3, iterations=1)


class _CountingTelemetry(obs.Telemetry):
    """Counts every dispatcher call an instrumented run makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def counter(self, *a, **kw):
        self.calls += 1
        super().counter(*a, **kw)

    def gauge(self, *a, **kw):
        self.calls += 1
        super().gauge(*a, **kw)

    def observe(self, *a, **kw):
        self.calls += 1
        super().observe(*a, **kw)

    def event(self, *a, **kw):
        self.calls += 1
        super().event(*a, **kw)

    def span(self, *a, **kw):
        self.calls += 1
        return super().span(*a, **kw)


def test_disabled_overhead_budget(benchmark):
    """emissions x null-dispatch cost must be < 2 % of the disabled run.

    The emission count comes from an *enabled* run of the same scenario
    (a superset of what the disabled run dispatches, since e.g. the env
    export only fires when enabled), so the bound is conservative.

    The arena's kernel span/counter emissions (cells advanced per tick,
    kernel time per node) sit behind the same ``obs.enabled()`` guard and
    must fit the same budget — even against the arena's *smaller*
    disabled wall time.
    """
    _ensure_catalog()
    spec = REGISTRY.scenario("cold-pages")

    tel = _CountingTelemetry("bench-count")
    with obs.session(tel):
        run_scenario(spec)
    emissions = tel.calls
    assert emissions > 50, "reference run emitted almost nothing"

    t0 = time.perf_counter()
    _null_emissions()
    per_call = (time.perf_counter() - t0) / (2 * N_DISPATCH)

    assert not obs.enabled()
    benchmark.pedantic(lambda: run_scenario(spec), rounds=3, iterations=1)
    disabled_s = benchmark.stats.stats.median

    overhead = emissions * per_call
    ratio = overhead / disabled_s
    print(
        f"\n{emissions} emissions x {per_call * 1e9:.0f} ns null dispatch = "
        f"{overhead * 1e3:.3f} ms over a {disabled_s * 1e3:.0f} ms run "
        f"({ratio:.4%} of wall time, budget {OVERHEAD_BUDGET:.0%})"
    )
    assert ratio < OVERHEAD_BUDGET


# --------------------------------------------------------------------------- #
# insight plane: ledger + sampler legs
# --------------------------------------------------------------------------- #

def _null_insight_probes(n=N_DISPATCH):
    """The disabled hot-path pattern at every placement emission point:
    fetch the active context, read its ``enabled`` flag, do nothing."""
    active = _insight.active
    for _ in range(n):
        ins = active()
        if ins.enabled:  # pragma: no cover - the disabled leg never enters
            ins.migration(0.0, "n0", "t", 2, 0, 1, 4096)


def test_insight_null_probe_cost(benchmark):
    """20k disabled ledger probes (the movement kernels' tax when off)."""
    assert not _insight.enabled()
    benchmark(_null_insight_probes)


def test_insight_enabled_recording_cost(benchmark):
    """20k ledger records + 2k tier samples into a live context (what a
    run with the plane active pays per emission)."""
    occ = np.array([100, 50, 25, 0], dtype=np.int64)
    free = np.array([900, 950, 975, 1000], dtype=np.int64)
    temp_q = [0.1, 0.5, 0.9]

    def setup():
        return (_insight.Insight("bench", max_ledger_entries=2 * N_DISPATCH),), {}

    def emit(ins):
        with obs.session(insight=ins), ins.cause("reactive"):
            for i in range(N_DISPATCH):
                ins.migration(float(i), "n0", "t", 2, 0, 1, 4096)
                if i % 10 == 0:
                    ins.sample(float(i), "n0", occ, free, 0.1, temp_q)

    benchmark.pedantic(emit, setup=setup, rounds=3, iterations=1)


class _CountingInsight(_insight.Insight):
    """Counts every recording call an instrumented run makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def migration(self, *a, **kw):
        self.calls += 1
        super().migration(*a, **kw)

    def ledger_event(self, *a, **kw):
        self.calls += 1
        super().ledger_event(*a, **kw)

    def sample(self, *a, **kw):
        self.calls += 1
        super().sample(*a, **kw)


def test_insight_overhead_budget(benchmark):
    """Two-sided proof against a movement-heavy reference scenario.

    Disabled: emissions x the measured null-probe cost must stay under
    2 % of the disabled run's wall time (same shape as the telemetry
    budget, same conservative over-count — the enabled run's emission
    tally bounds the disabled run's probe count).

    Enabled: emissions x the measured per-record live cost must stay
    under 5 % — recording into the bounded ledger/rings is cheap enough
    that turning the plane on does not distort what it observes.
    """
    _ensure_catalog()
    spec = REGISTRY.scenario("ext-resilience/IMME")

    ins = _CountingInsight("bench-count")
    with obs.session(insight=ins):
        run_scenario(spec)
    emissions = ins.calls
    assert emissions > 50, "reference run recorded almost nothing"

    t0 = time.perf_counter()
    _null_insight_probes()
    per_probe = (time.perf_counter() - t0) / N_DISPATCH

    live = _insight.Insight("bench-live", max_ledger_entries=2 * N_DISPATCH)
    with obs.session(insight=live), live.cause("reactive"):
        t0 = time.perf_counter()
        for i in range(N_DISPATCH):
            live.migration(float(i), "n0", "t", 2, 0, 1, 4096)
        per_record = (time.perf_counter() - t0) / N_DISPATCH

    assert not _insight.enabled()
    benchmark.pedantic(lambda: run_scenario(spec), rounds=3, iterations=1)
    disabled_s = benchmark.stats.stats.median

    for label, per_call, budget in (
        ("disabled", per_probe, INSIGHT_DISABLED_BUDGET),
        ("enabled", per_record, INSIGHT_ENABLED_BUDGET),
    ):
        overhead = emissions * per_call
        ratio = overhead / disabled_s
        print(
            f"\n[{label}] {emissions} emissions x {per_call * 1e9:.0f} ns = "
            f"{overhead * 1e3:.3f} ms over a {disabled_s * 1e3:.0f} ms run "
            f"({ratio:.4%}, budget {budget:.0%})"
        )
        assert ratio < budget
