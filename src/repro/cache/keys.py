"""Cache-key derivation for sweep cells.

Two digests identify a cached result:

* the **cell id** — *what* was asked for: the cell function's qualified
  name, its canonicalized kwargs, the derived seed, and any extra
  addressing context (sweep name, cell key).  This names the cache file,
  so one logical cell occupies one slot and recomputes overwrite their
  stale predecessor instead of accumulating garbage.
* the **content key** — *what the answer depends on*: the cell id plus
  the code fingerprint (:func:`~repro.cache.fingerprint.code_fingerprint`:
  the digest of the whole repro package's source, and of the cell's own
  module when it lies outside the package), the repro version, the numpy
  version and the interpreter's major.minor, and the scenario digest when
  there is one.  It is stored inside the file and compared on read; a
  mismatch is an *invalidation* (the code moved underneath the result),
  served as a miss.

Canonicalization is deliberately strict: values without an obviously
stable textual form raise :class:`CacheKeyError`, as does a package with
no readable source, and the sweep simply runs that cell uncached rather
than risk a false hit.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .fingerprint import ROOT_PACKAGE, code_fingerprint

__all__ = ["CacheKey", "CacheKeyError", "canonicalize", "cell_keys"]


class CacheKeyError(ValueError):
    """Raised for inputs that have no canonical (stable) encoding."""


@dataclass(frozen=True)
class CacheKey:
    """Addressing pair for one sweep cell (see module docstring)."""

    cell_id: str
    content_key: str


def canonicalize(value: Any) -> str:
    """Deterministic textual form of a kwargs value.

    Stable across processes and Python versions for the plain-data types
    hermetic cells are built from; anything else raises
    :class:`CacheKeyError` (never fall back to ``repr`` of an object —
    addresses must not contain ``id()``s).
    """
    # numpy scalars before primitives: np.float64 subclasses float, and its
    # canonical form must stay dtype-qualified and numpy-version-independent
    if isinstance(value, np.generic):
        return f"npv:{value.dtype.str}:{value.tobytes().hex()}"
    if value is None or isinstance(value, (bool, int)):
        return repr(value)
    if isinstance(value, float):
        # repr is the shortest round-trip form; distinguishes 1 from 1.0
        return repr(value)
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, bytes):
        return f"bytes:{hashlib.sha256(value).hexdigest()}"
    if isinstance(value, enum.Enum):
        cls = type(value)
        return f"enum:{cls.__module__}.{cls.__qualname__}.{value.name}"
    if isinstance(value, np.ndarray):
        return (
            f"nd:{value.dtype.str}:{value.shape}:"
            f"{hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}"
        )
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ",".join(canonicalize(v) for v in value) + close
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonicalize(v) for v in value)) + "}"
    if isinstance(value, Mapping):
        items = sorted(
            (canonicalize(k), canonicalize(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        fields = ",".join(
            f"{f.name}={canonicalize(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
        )
        return f"dc:{cls.__module__}.{cls.__qualname__}({fields})"
    raise CacheKeyError(
        f"no canonical form for {type(value).__name__} value {value!r:.80}"
    )


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1e")  # record separator: no concatenation ambiguity
    return h.hexdigest()


def cell_keys(
    fn: Callable[..., Any],
    kwargs: Mapping[str, Any],
    *,
    seed: Optional[int] = None,
    extra: Any = None,
    scenario: Any = None,
    root: str = ROOT_PACKAGE,
) -> CacheKey:
    """Derive the :class:`CacheKey` for one cell invocation.

    ``seed`` is the cell's *derived* seed (``SweepSpec.cell_seed``), kept
    separate from kwargs so sweeps that inject it and sweeps that pass it
    explicitly address the same way.  ``extra`` carries additional
    identity (sweep name, cell key) and must canonicalize like kwargs.
    ``scenario`` is anything with a stable ``digest()`` (a
    :class:`~repro.scenarios.ScenarioSpec`); its digest is folded into the
    *content* key, so editing any scenario field invalidates exactly the
    cells that scenario describes.  Raises :class:`CacheKeyError` when any
    input has no stable form or ``root`` has no readable source.
    """
    cell_id = _digest(
        "cell-id",
        f"{fn.__module__}.{fn.__qualname__}",
        canonicalize(dict(kwargs)),
        canonicalize(seed),
        canonicalize(extra),
    )
    code = code_fingerprint(fn.__module__, root=root)
    if code is None:
        raise CacheKeyError(f"package {root!r} has no readable source to fingerprint")
    from .. import __version__

    content_parts = [
        "content",
        cell_id,
        code,
        __version__,
        f"numpy:{np.__version__}",
        f"python:{sys.version_info[0]}.{sys.version_info[1]}",
    ]
    if scenario is not None:
        content_parts.append(f"scenario:{scenario.digest()}")
    content_key = _digest(*content_parts)
    return CacheKey(cell_id=cell_id, content_key=content_key)
