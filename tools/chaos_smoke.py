#!/usr/bin/env python
"""Chaos smoke test: SIGKILL a sweep mid-run, re-run the same command,
compare bytes; then SIGKILL one pool worker and require the run to heal
itself.

The end-to-end proof that a killed run resumes by running it again:

1. run a small experiment subset to completion in a pristine cache and
   keep its markdown report as the reference,
2. start the same subset in a second pristine cache, wait until the
   journal shows at least one committed cell, and SIGKILL the whole
   process group (supervisor and workers alike — no cleanup handlers
   get to run),
3. re-run the same command with ``--cache-stats``: every experiment the
   journal showed committed before the kill must report at least one
   cache hit and no miss (served from the cache, not re-executed), the
   rest must compute, every experiment must end up journaled as
   committed, and the report must be byte-identical to the reference.

The worker-kill phase then runs ``fig10 --jobs 2 --no-cache`` (a single
experiment, so ``jobs`` fans out its inner sweep) once as a reference,
and again while SIGKILLing one of the run's fork-pool workers with cells
in flight.  The inner map must fail instead of hanging, ``run_all``'s
default retry must rerun the experiment, and the run must exit 0 with a
report byte-identical to the reference.

Exits non-zero on any deviation.  Used by the ``chaos-smoke`` CI job and
runnable locally: ``PYTHONPATH=src python tools/chaos_smoke.py``.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

SUBSET = ["validation", "cold-pages", "fig01", "fig09"]
COMMIT_WAIT_S = 120
RESUME_TIMEOUT_S = 600

#: the worker-kill phase's run: one experiment, its inner sweep at jobs=2
WORKER_KILL_ARGS = ["fig10", "--quiet", "--jobs", "2", "--no-cache"]


def log(msg):
    print(f"chaos-smoke: {msg}", flush=True)


def run_cmd(args, env, **kw):
    cmd = [sys.executable, "-m", "repro.experiments", *args]
    return subprocess.run(cmd, env=env, **kw)


def journal_committed(path):
    """Committed cells per the journal, tolerating a torn trailing line."""
    cells = set()
    if not os.path.exists(path):
        return cells
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if entry.get("ev") == "cell-committed":
                cells.add(entry["cell"])
    return cells


def cache_stats(stdout):
    """``{experiment: (hits, misses)}`` from a ``--cache-stats`` table."""
    stats = {}
    lines = stdout.splitlines()
    start = next(
        (i for i, line in enumerate(lines) if line.startswith("result cache (")),
        len(lines),
    )
    for line in lines[start + 1:]:
        fields = line.split()
        if len(fields) != 10 or fields[0] == "total":
            break
        stats[fields[0]] = (int(fields[1]), int(fields[3]))
    return stats


def child_pids(pid):
    """Live children of ``pid`` (Linux ``/proc``): a run's pool workers."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: ppid is 2 fields past its ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


def worker_kill_phase(tmp, env):
    """SIGKILL one fork-pool worker mid-sweep; the run must still exit 0
    with the reference report.  Returns a process exit code."""
    ref_report = os.path.join(tmp, "fig10-reference.md")
    out_report = os.path.join(tmp, "fig10-worker-killed.md")
    telemetry = os.path.join(tmp, "fig10-telemetry")
    log("worker-kill: reference run")
    proc = run_cmd(
        [*WORKER_KILL_ARGS, "--out", ref_report], env, timeout=RESUME_TIMEOUT_S
    )
    if proc.returncode != 0:
        log(f"FAIL: worker-kill reference run exited {proc.returncode}")
        return 1

    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *WORKER_KILL_ARGS,
         "--out", out_report, "--telemetry", telemetry],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        workers = []
        deadline = time.monotonic() + COMMIT_WAIT_S
        while not workers and time.monotonic() < deadline and victim.poll() is None:
            workers = child_pids(victim.pid)
            time.sleep(0.01)
        if not workers:
            log("FAIL: no pool worker appeared")
            return 1
        time.sleep(0.2)  # let the workers pick up their first cells
        os.kill(workers[0], signal.SIGKILL)
        log(f"worker-kill: SIGKILLed pool worker {workers[0]}")
        try:
            victim.wait(timeout=RESUME_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("FAIL: the run hung after losing a worker")
            return 1
    finally:
        if victim.poll() is None:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
    if victim.returncode != 0:
        log(f"FAIL: worker-kill run exited {victim.returncode}")
        return 1
    with open(os.path.join(telemetry, "run.json"), encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    if not any(key.startswith("resilience.retries") for key in counters):
        log("WARN: the kill hit no busy worker; nothing was retried")
    with open(ref_report, "rb") as a, open(out_report, "rb") as b:
        if a.read() != b.read():
            log("FAIL: worker-kill report differs from the reference")
            return 1
    log("OK: the run survived a killed worker, byte-identical to the reference")
    return 0


def main():
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        ref_report = os.path.join(tmp, "reference.md")
        rerun_report = os.path.join(tmp, "rerun.md")

        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache-reference")
        log(f"reference run: {' '.join(SUBSET)}")
        proc = run_cmd(
            [*SUBSET, "--quiet", "--jobs", "4", "--out", ref_report],
            env, timeout=RESUME_TIMEOUT_S,
        )
        if proc.returncode != 0:
            log(f"FAIL: reference run exited {proc.returncode}")
            return 1

        chaos_cache = os.path.join(tmp, "cache-chaos")
        journal = os.path.join(chaos_cache, "journal.jsonl")
        env["REPRO_CACHE_DIR"] = chaos_cache
        log("chaos run: SIGKILL after the first committed cell")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", *SUBSET,
             "--quiet", "--jobs", "2"],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        committed = set()
        deadline = time.monotonic() + COMMIT_WAIT_S
        try:
            while time.monotonic() < deadline:
                committed = journal_committed(journal)
                if committed or victim.poll() is not None:
                    break
                time.sleep(0.01)
        finally:
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        # read after the kill: the journal may have gained commits since
        committed = journal_committed(journal)
        if victim.returncode == 0:
            log("WARN: the run finished before the kill landed; "
                "the re-run will be a pure cache replay")
        elif not committed:
            log("FAIL: nothing committed before the kill")
            return 1
        log(f"killed with {sorted(committed)} committed")

        log("re-run: the same command")
        t0 = time.monotonic()
        proc = run_cmd(
            [*SUBSET, "--quiet", "--jobs", "2", "--cache-stats",
             "--out", rerun_report],
            env, timeout=RESUME_TIMEOUT_S, capture_output=True, text=True,
        )
        log(f"re-run took {time.monotonic() - t0:.1f}s")
        if proc.returncode != 0:
            log(f"FAIL: re-run exited {proc.returncode}")
            sys.stderr.write(proc.stderr)
            return 1
        stats = cache_stats(proc.stdout)
        for name in sorted(committed):
            hits, misses = stats.get(name, (0, -1))
            if hits < 1 or misses != 0:
                log(f"FAIL: {name} committed before the kill but re-ran "
                    f"({hits} hits, {misses} misses)")
                return 1
        rerun_committed = journal_committed(journal)
        if not set(SUBSET) <= rerun_committed:
            log(f"FAIL: journal missing commits: "
                f"{set(SUBSET) - rerun_committed}")
            return 1

        with open(ref_report, "rb") as a, open(rerun_report, "rb") as b:
            if a.read() != b.read():
                log("FAIL: re-run report differs from the reference")
                return 1
        log(f"OK: {sorted(committed)} served from the cache; the re-run "
            "is byte-identical to the reference")
        return worker_kill_phase(tmp, env)


if __name__ == "__main__":
    sys.exit(main())
