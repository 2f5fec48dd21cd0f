"""Content-addressed result cache for sweep cells.

PR 2 made every sweep cell hermetic and seed-deterministic, so a cell's
result is a pure function of (code, kwargs, seed).  This package turns
that into incremental recompute: results persist on disk keyed by a
digest of exactly those inputs, re-runs serve hits without dispatching
workers, and editing a source module invalidates only the cells whose
import closure contains it.

* :mod:`~repro.cache.fingerprint` — static import-closure code digests.
* :mod:`~repro.cache.keys` — cell-id / content-key derivation.
* :mod:`~repro.cache.codec` — exact, versioned result serialization.
* :mod:`~repro.cache.store` — atomic disk store with hit/miss stats.

Wired through :func:`repro.parallel.map_ordered`,
:func:`repro.experiments.common.sweep`, and the experiment runner
(``python -m repro.experiments --cache-dir/--no-cache/--cache-stats``).

Only :mod:`~repro.cache.codec` loads with the package, as scenario
serialization uses it; the fingerprint, keys and store modules load when
a sweep first asks for one of their names.
"""

from .codec import CODEC_VERSION, CodecError, decode, encode

__all__ = [
    "CODEC_VERSION",
    "CacheKey",
    "CacheKeyError",
    "CacheStats",
    "CodecError",
    "ResultCache",
    "canonicalize",
    "cell_keys",
    "clear_fingerprint_caches",
    "closure_fingerprint",
    "decode",
    "default_cache_dir",
    "encode",
    "import_closure",
    "module_fingerprint",
]


def __getattr__(name: str):
    # PEP 562.  One literal import per group, so the static import closure
    # (repro.cache.fingerprint) still sees every submodule.  Submodule names
    # are not mapped: ``from . import store`` would land back here.
    if name in (
        "clear_fingerprint_caches",
        "closure_fingerprint",
        "import_closure",
        "module_fingerprint",
    ):
        from .fingerprint import (
            clear_fingerprint_caches,
            closure_fingerprint,
            import_closure,
            module_fingerprint,
        )
    elif name in ("CacheKey", "CacheKeyError", "canonicalize", "cell_keys"):
        from .keys import CacheKey, CacheKeyError, canonicalize, cell_keys
    elif name in ("CacheStats", "ResultCache", "default_cache_dir"):
        from .store import CacheStats, ResultCache, default_cache_dir
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return locals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
