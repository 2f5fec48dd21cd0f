"""Code fingerprints: the source a sweep cell's result depends on.

A cell's result is a pure function of its kwargs, its seed, *and the code
that computes it*.  The code is the whole ``repro`` package: one sha256
over every ``.py`` file under it, each entered as its package-relative
POSIX path and the sha256 of its source.  A cell defined outside the
package (in a test or a benchmark) adds its own module's name and source.

Editing any package module, ``__init__`` modules and modules a cell only
reaches at run time included, changes every fingerprint, so a key never
serves a result computed by other code.  Only source bytes are read (no
mtimes, absolute paths or ``__pycache__``), so a moved checkout keeps its
keys.  The interpreter and numpy versions are separate key parts
(:func:`~repro.cache.keys.cell_keys`).

The package digest is memoized per root and per process (source does not
change under a running sweep); tests that edit it call
:func:`clear_fingerprint_caches`.
"""

from __future__ import annotations

import hashlib
import os
from importlib import util as importlib_util
from typing import Optional

__all__ = ["ROOT_PACKAGE", "clear_fingerprint_caches", "code_fingerprint"]

#: the package whose source every fingerprint digests
ROOT_PACKAGE = "repro"

#: root package -> digest of its source, or None when it has none readable
_PACKAGE_DIGESTS: dict[str, Optional[str]] = {}


def clear_fingerprint_caches() -> None:
    """Drop the memoized package digests (tests edit files)."""
    _PACKAGE_DIGESTS.clear()


def _find_spec(modname: str):
    try:
        return importlib_util.find_spec(modname)
    except (ImportError, ValueError):  # unimportable parent, spec-less __main__
        return None


def _source_sha(path: Optional[str]) -> Optional[str]:
    """sha256 of a ``.py`` file's bytes; None when it is no readable one."""
    if not path or not path.endswith(".py"):
        return None
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _package_digest(root: str) -> Optional[str]:
    """sha256 over the sorted (relative path, source sha256) entries of
    every ``.py`` file under ``root``; None when there is none."""
    entries = []
    for location in sorted(getattr(_find_spec(root), "submodule_search_locations", None) or ()):
        for dirpath, dirnames, filenames in os.walk(location):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                path = os.path.join(dirpath, name)
                sha = _source_sha(path)
                if sha is not None:
                    relative = os.path.relpath(path, location).replace(os.sep, "/")
                    entries.append(f"{relative}\0{sha}\n")
    if not entries:
        return None
    return hashlib.sha256("".join(sorted(entries)).encode()).hexdigest()


def code_fingerprint(modname: str, root: str = ROOT_PACKAGE) -> Optional[str]:
    """The code digest of a cell defined in ``modname``: the ``root``
    package's source, plus ``modname``'s own when it lies outside ``root``
    (its name alone when it has no source, as ``__main__``).  ``None`` when
    ``root`` has no readable ``.py`` source."""
    if root not in _PACKAGE_DIGESTS:
        _PACKAGE_DIGESTS[root] = _package_digest(root)
    package = _PACKAGE_DIGESTS[root]
    if package is None or modname == root or modname.startswith(root + "."):
        return package
    spec = _find_spec(modname)
    own = _source_sha(spec.origin if spec is not None else None) or "?"
    return hashlib.sha256(f"{package}\0{modname}\0{own}".encode()).hexdigest()
