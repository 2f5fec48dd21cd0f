"""Outside-in per-layer timing for the end-to-end benchmark.

:class:`LayerTracer` wraps the public entry points of each ``repro`` layer
with ``perf_counter`` timers, from the benchmark's own files: a method is
patched on the class that defines it, a module-level function at the
module its caller looks it up in.  Nothing on disk changes and every patch
is undone when :meth:`LayerTracer.installed` exits.

Self time is kept with a call stack: each wrapper charges its *slot* with
its duration minus the time spent in nested wrappers, so nested layers
are never counted twice and the slots plus the root's own time add up to
the traced wall time.  The root's own time is what no probe saw
(``trace.unattributed_share``).

Forked pool workers start from an empty stack (``os.register_at_fork``)
and, after every sweep cell, rewrite their cumulative totals to
``<spool>/<pid>.json``, so a worker its pool tears down loses nothing it
finished.  :meth:`LayerTracer.collect` folds those files into the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (slot, "module:Class.attr" or "module:function") of every timed entry
#: point.  ``scheduler.all_done`` is a property; ``SweepCell.run`` is the
#: unit a pool worker executes, after which it writes its spool file.
PROBES: Tuple[Tuple[str, str], ...] = (
    ("sim", "repro.sim.engine:SimulationEngine.step"),
    ("rates", "repro.runtime.node_agent:NodeAgent.recompute_rates"),
    ("heatmap", "repro.core.heatmap:PageHeatmap.advance_node"),
    ("runtime", "repro.runtime.node_agent:NodeAgent.start_task"),
    ("runtime", "repro.runtime.node_agent:NodeAgent.task_finished"),
    ("scheduler", "repro.scheduler.slurm:SlurmScheduler.submit"),
    ("scheduler", "repro.scheduler.slurm:SlurmScheduler.try_submit"),
    ("scheduler", "repro.scheduler.slurm:SlurmScheduler.all_done"),
    ("scheduler", "repro.scheduler.slurm:SlurmScheduler.run_to_completion"),
    ("scheduler", "repro.scheduler.slurm:SlurmScheduler._pump"),
    ("containers", "repro.containers.runtime:ContainerRuntime.prepare"),
    ("service.stream", "repro.service.stream:TaskStream.task"),
    ("service.assemble", "repro.service.metrics:WindowAccumulator.assemble"),
    ("service.run", "repro.service.run:ServiceRun.execute"),
    ("scenarios.execute", "repro.scenarios.build:RealizedScenario.execute"),
    ("scenarios.realize", "repro.experiments.fig10_scalability:realize"),
    ("parallel.map", "repro.experiments.common:map_ordered"),
    ("parallel.cell", "repro.experiments.common:SweepCell.run"),
    ("cache.get", "repro.cache.store:ResultCache.get"),
    ("cache.put", "repro.cache.store:ResultCache.put"),
    ("cache.keys", "repro.cache.keys:cell_keys"),
    ("resilience.journal", "repro.resilience.journal:RunJournal.record"),
    ("resilience.supervise", "repro.experiments.runner:supervised_map"),
    ("obs.merge", "repro.obs.telemetry:Telemetry.merge"),
    ("obs.write", "repro.obs:write_run_dir"),
)

#: (slot, base class, method): the method is timed on every subclass that
#: defines it, so each policy class in use is covered
FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("policy.tick", "repro.policies.base:MemoryPolicy", "tick"),
    ("policy.place", "repro.policies.base:MemoryPolicy", "place"),
    ("service.admit", "repro.service.admission:AdmissionPolicy", "admit"),
)

#: modules imported before FAMILIES are walked, so their subclasses exist
FAMILY_MODULES = ("repro.core.manager", "repro.policies", "repro.service.admission")

#: classes whose instances are remembered until :meth:`LayerTracer.settle`
#: reads their counters (engine event counts, node migration bytes)
TRACKED = (
    ("engines", "repro.sim.engine:SimulationEngine"),
    ("agents", "repro.runtime.node_agent:NodeAgent"),
)

#: per-layer metrics: name -> unit.  Times and counts are per traced
#: instance; a ``share`` is of the host time all processes spent in the
#: instance.  A metric reads 0 on a workload that does not use its layer.
METRICS: Dict[str, str] = {
    "sim.self_s": "s",
    "sim.share": "ratio",
    "sim.events_fired": "count",
    "sim.events_scheduled": "count",
    "sim.cancelled_share": "ratio",
    "rates.calls": "count",
    "rates.tasks_rated": "count",
    "rates.self_s": "s",
    "rates.share": "ratio",
    "rates.us_per_task": "us",
    "rates.calls_per_event": "calls/event",
    "heatmap.calls": "count",
    "heatmap.self_s": "s",
    "heatmap.share": "ratio",
    "policy.tick_calls": "count",
    "policy.tick_self_s": "s",
    "policy.tick_share": "ratio",
    "policy.place_calls": "count",
    "policy.place_self_s": "s",
    "policy.migrated_bytes": "bytes",
    "runtime.lifecycle_self_s": "s",
    "scheduler.submits": "count",
    "scheduler.all_done_calls": "count",
    "scheduler.self_s": "s",
    "scheduler.share": "ratio",
    "containers.prepares": "count",
    "containers.self_s": "s",
    "service.stream_calls": "count",
    "service.stream_self_s": "s",
    "service.stream_share": "ratio",
    "service.admitted_ratio": "ratio",
    "service.wasted_builds": "count",
    "service.admit_self_s": "s",
    "service.assemble_s": "s",
    "service.run_self_s": "s",
    "setup.import_s": "s",
    "setup.workload_s": "s",
    "setup.env_s": "s",
    "scenarios.execute_self_s": "s",
    "scenarios.realize_s": "s",
    "parallel.cells": "count",
    "parallel.map_s": "s",
    "parallel.utilization": "ratio",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    "cache.keys_s": "s",
    "cache.replay_s": "s",
    "resilience.journal_s": "s",
    "resilience.supervise_self_s": "s",
    "obs.merge_s": "s",
    "obs.write_s": "s",
    "obs.events_recorded": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead": "ratio",
}

#: metrics that are counts of simulated or sweep work: identical for the
#: same inputs, whatever the timing, the tracing or the worker count
COUNT_METRICS = (
    "sim.events_fired",
    "sim.events_scheduled",
    "rates.calls",
    "rates.tasks_rated",
    "heatmap.calls",
    "policy.tick_calls",
    "policy.place_calls",
    "policy.migrated_bytes",
    "scheduler.submits",
    "scheduler.all_done_calls",
    "containers.prepares",
    "service.stream_calls",
    "service.wasted_builds",
    "parallel.cells",
    "cache.hits",
    "cache.misses",
    "obs.events_recorded",
)


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module, _, path = target.partition(":")
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, each once."""
    out = [cls]
    for c in out:
        out.extend(sub for sub in c.__subclasses__() if sub not in out)
    return out


class Totals:
    """What one process accumulated: self and inclusive seconds, calls,
    and named counts."""

    PARTS = ("self_s", "incl_s", "calls", "counts")

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, other: "Totals") -> None:
        for part in self.PARTS:
            getattr(self, part).update(getattr(other, part))

    def to_json(self) -> str:
        return json.dumps({part: getattr(self, part) for part in self.PARTS})

    @classmethod
    def from_json(cls, text: str) -> "Totals":
        data = json.loads(text)
        out = cls()
        for part in cls.PARTS:
            getattr(out, part).update(data[part])
        return out


#: the tracer installed in this process, reset in forked children
_ACTIVE: Optional["LayerTracer"] = None
_FORK_HOOK = False


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._start_worker()


class LayerTracer:
    """Times ``repro``'s layers from outside; see the module docstring."""

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.totals = Totals()
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._tracked: Dict[str, list] = {kind: [] for kind, _ in TRACKED}
        self._undo: List[Tuple[Any, str, Any]] = []
        self._worker = False

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        global _ACTIVE, _FORK_HOOK
        self.spool.mkdir(parents=True, exist_ok=True)
        self.missing = []
        for slot, target in PROBES:
            found = self._lookup(target)
            if found:
                self._patch(*found, slot, probe=target)
        for module in FAMILY_MODULES:
            try:
                importlib.import_module(module)
            except ImportError:
                self.missing.append(module)
        for slot, base, method in FAMILIES:
            found = self._lookup(base)
            for cls in _subclasses(found[2]) if found else ():
                if method in vars(cls):
                    self._patch(cls, method, vars(cls)[method], slot, probe=slot)
        for kind, target in TRACKED:
            found = self._lookup(target)
            if found:
                self._patch_init(found[2], self._tracked[kind])
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK = True
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = None
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _lookup(self, target: str) -> Optional[Tuple[Any, str, Any]]:
        """(owner, attribute name, value) of ``target``, importing its
        module; ``None`` when the owner no longer defines it.  A renamed
        entry point leaves its metrics at 0 instead of breaking the
        benchmark, and the run lists it under ``missing_probes``."""
        try:
            owner, attr = _resolve(target)
            return owner, attr, vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return None

    def _patch(self, owner: Any, attr: str, original: Any, slot: str, probe: str) -> None:
        pre, post = _HOOKS.get(probe, (None, None))
        if isinstance(original, property):
            wrapped: Any = property(self._timed(original.fget, slot, probe, pre, post))
        else:
            wrapped = self._timed(original, slot, probe, pre, post)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def _patch_init(self, cls: type, instances: list) -> None:
        original = vars(cls)["__init__"]

        @functools.wraps(original)
        def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            instances.append(obj)

        cls.__init__ = __init__  # type: ignore[misc]
        self._undo.append((cls, "__init__", original))

    def _timed(
        self,
        fn: Callable,
        slot: str,
        probe: str,
        pre: Optional[Callable],
        post: Optional[Callable],
    ) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack
            totals = tracer.totals
            if pre is not None:
                pre(tracer, args)
            outer = not stack or stack[-1][0] != probe
            frame = [probe, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                totals.self_s[slot] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if outer:
                    totals.calls[probe] += 1
                    totals.incl_s[probe] += dt
            if post is not None:
                post(tracer, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # measuring
    # ------------------------------------------------------------------ #
    def root(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``fn`` as the outermost frame; returns (result, wall)."""
        frame = ["root", 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            self._stack.pop()
            self.totals.counts["root.wall_s"] += wall
            self.totals.counts["root.self_s"] += wall - frame[1]
        self.settle()
        self.collect()
        return result, wall

    def settle(self) -> None:
        """Fold the tracked engines' and agents' counters into the totals."""
        counts = self.totals.counts
        for engine in self._tracked["engines"]:
            counts["sim.events_fired"] += engine.events_fired
            counts["sim.events_cancelled"] += engine.events_cancelled
            counts["sim.events_scheduled"] += (
                engine.events_fired + engine.events_cancelled + engine.pending()
            )
        for agent in self._tracked["agents"]:
            counts["policy.migrated_bytes"] += agent.memory.stats.total_migrated_bytes
        for instances in self._tracked.values():
            instances.clear()

    def collect(self) -> None:
        """Fold the workers' spool files into the totals and remove them."""
        for path in sorted(self.spool.glob("*.json")):
            self.totals.add(Totals.from_json(path.read_text()))
            self.totals.counts["parallel.workers"] += 1
            path.unlink()

    def _start_worker(self) -> None:
        self.totals = Totals()
        self._stack = []
        for instances in self._tracked.values():
            instances.clear()
        self._worker = True

    def _spool_cell(self) -> None:
        if not self._worker:
            return
        self.settle()
        path = self.spool / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(self.totals.to_json())
        os.replace(tmp, path)


def _count(name: str, amount: Callable[[Any], float]) -> Callable:
    def hook(tracer: LayerTracer, value: Any) -> None:
        tracer.totals.counts[name] += amount(value)

    return hook


#: probe -> (pre hook on the call's args, post hook on its result)
_HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "repro.runtime.node_agent:NodeAgent.recompute_rates": (
        _count("rates.tasks_rated", lambda args: len(args[0].running)),
        None,
    ),
    "repro.scheduler.slurm:SlurmScheduler.try_submit": (
        None,
        _count("service.admitted", lambda job: job is not None),
    ),
    "repro.cache.store:ResultCache.get": (
        None,
        lambda tracer, hit: tracer.totals.counts.update(
            ["cache.hits" if hit[0] else "cache.misses"]
        ),
    ),
    "repro.obs:write_run_dir": (
        _count("obs.events_recorded", lambda args: len(args[0].events)),
        None,
    ),
    "repro.experiments.common:SweepCell.run": (
        None,
        lambda tracer, _result: tracer._spool_cell(),
    ),
}


def layer_metrics(
    totals: Totals,
    instances: int,
    *,
    untraced_s: float,
    setup: Dict[str, float],
    replay_s: float,
) -> Dict[str, float]:
    """Derive :data:`METRICS` from ``instances`` traced instances' totals.

    ``untraced_s`` is the same instances' host time without tracing
    (for ``trace.overhead``), ``setup`` the run's import time and its
    instances' median input-generation and environment-build times, and
    ``replay_s`` the sweep's warm-replay host time per instance.
    """
    s, incl, calls, c = totals.self_s, totals.incl_s, totals.calls, totals.counts
    n = max(1, instances)

    def probe_calls(slot: str, attr: str = "") -> float:
        return sum(v for p, v in calls.items() if _slot_of(p) == slot and p.endswith(attr))

    def probe_incl(slot: str) -> float:
        return sum(v for p, v in incl.items() if _slot_of(p) == slot)

    host = sum(s.values()) + c["root.self_s"]

    def share(slot: str) -> float:
        return s[slot] / host if host else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    events = c["sim.events_fired"]
    rates_calls = probe_calls("rates")
    stream_calls = probe_calls("service.stream")
    offered = probe_calls("scheduler", ".try_submit")
    workers = max(1.0, c["parallel.workers"] / n)
    return {
        "sim.self_s": s["sim"] / n,
        "sim.share": share("sim"),
        "sim.events_fired": events / n,
        "sim.events_scheduled": c["sim.events_scheduled"] / n,
        "sim.cancelled_share": ratio(c["sim.events_cancelled"], c["sim.events_scheduled"]),
        "rates.calls": rates_calls / n,
        "rates.tasks_rated": c["rates.tasks_rated"] / n,
        "rates.self_s": s["rates"] / n,
        "rates.share": share("rates"),
        "rates.us_per_task": ratio(s["rates"], c["rates.tasks_rated"]) * 1e6,
        "rates.calls_per_event": ratio(rates_calls, events),
        "heatmap.calls": probe_calls("heatmap") / n,
        "heatmap.self_s": s["heatmap"] / n,
        "heatmap.share": share("heatmap"),
        "policy.tick_calls": calls["policy.tick"] / n,
        "policy.tick_self_s": s["policy.tick"] / n,
        "policy.tick_share": share("policy.tick"),
        "policy.place_calls": calls["policy.place"] / n,
        "policy.place_self_s": s["policy.place"] / n,
        "policy.migrated_bytes": c["policy.migrated_bytes"] / n,
        "runtime.lifecycle_self_s": s["runtime"] / n,
        "scheduler.submits": probe_calls("scheduler", ".submit") / n,
        "scheduler.all_done_calls": probe_calls("scheduler", ".all_done") / n,
        "scheduler.self_s": s["scheduler"] / n,
        "scheduler.share": share("scheduler"),
        "containers.prepares": probe_calls("containers") / n,
        "containers.self_s": s["containers"] / n,
        "service.stream_calls": stream_calls / n,
        "service.stream_self_s": s["service.stream"] / n,
        "service.stream_share": share("service.stream"),
        "service.admitted_ratio": ratio(c["service.admitted"], offered),
        "service.wasted_builds": (stream_calls - c["service.admitted"]) / n,
        "service.admit_self_s": s["service.admit"] / n,
        "service.assemble_s": probe_incl("service.assemble") / n,
        "service.run_self_s": s["service.run"] / n,
        "setup.import_s": setup["import_s"],
        "setup.workload_s": setup["workload_s"],
        "setup.env_s": setup["env_s"],
        "scenarios.execute_self_s": s["scenarios.execute"] / n,
        "scenarios.realize_s": probe_incl("scenarios.realize") / n,
        "parallel.cells": probe_calls("parallel.cell") / n,
        "parallel.map_s": probe_incl("parallel.map") / n,
        "parallel.utilization": ratio(
            probe_incl("parallel.cell"), workers * probe_incl("parallel.map")
        ),
        "cache.hits": c["cache.hits"] / n,
        "cache.misses": c["cache.misses"] / n,
        "cache.get_s": probe_incl("cache.get") / n,
        "cache.put_s": probe_incl("cache.put") / n,
        "cache.keys_s": probe_incl("cache.keys") / n,
        "cache.replay_s": replay_s,
        "resilience.journal_s": probe_incl("resilience.journal") / n,
        "resilience.supervise_self_s": s["resilience.supervise"] / n,
        "obs.merge_s": probe_incl("obs.merge") / n,
        "obs.write_s": probe_incl("obs.write") / n,
        "obs.events_recorded": c["obs.events_recorded"] / n,
        "trace.unattributed_share": ratio(c["root.self_s"], c["root.wall_s"]),
        "trace.overhead": ratio(c["root.wall_s"], untraced_s) - 1.0,
    }


def _slot_of(probe: str) -> str:
    """The slot a probe key belongs to (family probes are their slot)."""
    return _PROBE_SLOT.get(probe, probe)


_PROBE_SLOT = {target: slot for slot, target in PROBES}
