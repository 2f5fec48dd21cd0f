"""Supervision overhead: resilience must be free when nobody asks for it.

Three measurements, mirroring ``bench_obs.py``:

* the raw cost of disabled invariant checks through the module
  dispatcher (one function call + one no-op method call each),
* the budget proof for ``--check-invariants``: count every check an
  enabled reference run makes, multiply by the measured null-dispatch
  cost, and assert the product stays under 2 % of the run's disabled
  wall time,
* the supervision tax: per-cell overhead of the supervised in-process
  loop over a plain ``[fn(x) for x]`` — asserted under 2 % of one real
  scenario cell's runtime (the granularity sweeps dispatch at).

Plus the journal's fsync cost, measured so regressions in the durable
append path are visible in the trajectory artifact.
"""

import time

from repro import obs
from repro.resilience import RetryPolicy, RunJournal, supervised_map
from repro.resilience import invariants
from repro.resilience.invariants import InvariantChecker
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import REGISTRY, _ensure_catalog

#: conservation + memory check pairs per timed round
N_DISPATCH = 20_000

#: cells for the supervision-tax measurement
N_CELLS = 2_000

#: journal records per timed round (each is a write + flush + fsync)
N_RECORDS = 200

#: the run-level overhead ceiling the disabled paths must stay under
OVERHEAD_BUDGET = 0.02


def _null_checks(n=N_DISPATCH):
    active = invariants.active
    for _ in range(n):
        checker = active()
        if checker.enabled:
            checker.conservation("bench", 0, 0, op="bench")
        checker = active()
        if checker.enabled:
            checker.memory(None)


def test_null_invariant_dispatch_cost(benchmark):
    """20k disabled check sites (the hot-path tax when checking is off)."""
    assert not invariants.enabled()
    benchmark(_null_checks)


class _CountingChecker(InvariantChecker):
    """Counts checks without doing them: isolates dispatch frequency."""

    def __init__(self):
        super().__init__(strict=True)

    def memory(self, mem):
        self.checks += 1

    def conservation(self, where, before, after, *, op, delta=0):
        self.checks += 1

    def engine(self, engine):
        self.checks += 1

    def scheduler(self, sched):
        self.checks += 1

    def metrics(self, metrics):
        self.checks += 1


def test_disabled_invariant_budget(benchmark):
    """check sites x null-dispatch cost must be < 2 % of the disabled run."""
    _ensure_catalog()
    spec = REGISTRY.scenario("ext-resilience/IMME")  # fault-heavy: most sites

    counting = _CountingChecker()
    with obs.session(checker=counting):
        run_scenario(spec)
    sites = counting.checks
    assert sites > 10, "reference run hit almost no check sites"

    t0 = time.perf_counter()
    _null_checks()
    per_call = (time.perf_counter() - t0) / (2 * N_DISPATCH)

    assert not invariants.enabled()
    benchmark.pedantic(lambda: run_scenario(spec), rounds=3, iterations=1)
    disabled_s = benchmark.stats.stats.median

    overhead = sites * per_call
    ratio = overhead / disabled_s
    print(
        f"\n{sites} check sites x {per_call * 1e9:.0f} ns null dispatch = "
        f"{overhead * 1e3:.3f} ms over a {disabled_s * 1e3:.0f} ms run "
        f"({ratio:.4%} of wall time, budget {OVERHEAD_BUDGET:.0%})"
    )
    assert ratio < OVERHEAD_BUDGET


def _busy_cell(x):
    total = 0
    for i in range(50):
        total += i * x
    return total


def test_supervision_tax_per_cell(benchmark):
    """Per-cell cost of the supervised loop over a plain comprehension,
    bounded against one real scenario cell's runtime."""
    items = list(range(N_CELLS))

    t0 = time.perf_counter()
    plain = [_busy_cell(x) for x in items]
    plain_s = time.perf_counter() - t0

    retry = RetryPolicy(max_attempts=1)
    sup = benchmark.pedantic(
        lambda: supervised_map(_busy_cell, items, jobs=None, retry=retry),
        rounds=3, iterations=1,
    )
    assert sup.ok and sup.results == plain
    per_cell = max(0.0, benchmark.stats.stats.median - plain_s) / N_CELLS

    _ensure_catalog()
    t0 = time.perf_counter()
    run_scenario(REGISTRY.scenario("cold-pages"))
    cell_s = time.perf_counter() - t0

    ratio = per_cell / cell_s
    print(
        f"\nsupervision tax {per_cell * 1e6:.2f} us/cell against a "
        f"{cell_s * 1e3:.0f} ms reference cell "
        f"({ratio:.4%} of cell time, budget {OVERHEAD_BUDGET:.0%})"
    )
    assert ratio < OVERHEAD_BUDGET


def test_journal_append_cost(benchmark, tmp_path):
    """200 durable appends (write + flush + fsync each) per round."""

    def append(journal):
        for i in range(N_RECORDS):
            journal.cell_committed(f"cell{i}")

    def setup():
        return (RunJournal(tmp_path / f"j{time.monotonic_ns()}.jsonl"),), {}

    benchmark.pedantic(append, setup=setup, rounds=3, iterations=1)
