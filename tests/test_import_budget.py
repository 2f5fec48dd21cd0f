"""Start-up imports: a batch or service run loads only what it runs.

Every CLI run, benchmark run and multirun cell starts a fresh interpreter
and pays for each module it imports.  The sweep machinery (the supervisor
and its :mod:`multiprocessing` pool, the result cache's fingerprints and
store) loads on first use, and workflow DAGs need no networkx, so a plain
batch or service run imports none of them.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

#: modules only a sweep (or nothing at all) uses
SWEEP_ONLY = (
    "networkx",
    "multiprocessing",
    "repro.resilience.supervisor",
    "repro.cache.fingerprint",
    "repro.cache.store",
)

#: the imports of the e2e benchmark's batch and service workloads
RUN_IMPORTS = {
    "batch": (
        "from repro.envs.environments import EnvKind\n"
        "from repro.scenarios import build, spec, workloads\n"
    ),
    "service": (
        "from repro.envs.environments import EnvKind, make_environment\n"
        "from repro.service import ServiceSpec, serve\n"
    ),
}


def loaded_modules(code: str) -> set:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    script = code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("run", sorted(RUN_IMPORTS))
def test_run_imports_no_sweep_module(run):
    modules = loaded_modules(RUN_IMPORTS[run])
    assert "repro.envs.environments" in modules
    assert sorted(modules & set(SWEEP_ONLY)) == []


@pytest.mark.parametrize("package", ["repro.cache", "repro.resilience"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope
