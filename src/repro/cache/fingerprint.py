"""Code fingerprints: which source does a sweep cell actually depend on?

A cell's result is a pure function of its kwargs, its seed, *and the code
that computes it*.  The first two are easy to digest; this module handles
the third.  We fingerprint the **import closure** of the cell function's
module inside the repro package: starting from the module, every
``import``/``from ... import`` statement is resolved (including relative
imports), edges leaving the package are dropped, and the reachable set is
collected transitively.  The closure fingerprint is a digest over the
sorted ``(module name, source sha256)`` pairs of that set.

Editing any module in the closure therefore changes the fingerprint — and
with it every cache key built on top — while editing a module the cell
never imports leaves it untouched.  Resolution is static (AST, not
``sys.modules``), so conditional and ``TYPE_CHECKING``-only imports count
toward the closure; that errs on the side of invalidating, never on the
side of serving stale results.

Fingerprints are memoized per process (source files do not change under a
running sweep); tests that rewrite modules on disk call
:func:`clear_fingerprint_caches` between edits.
"""

from __future__ import annotations

import ast
import hashlib
from importlib import util as importlib_util
from typing import Iterator, Optional

__all__ = [
    "ROOT_PACKAGE",
    "clear_fingerprint_caches",
    "closure_fingerprint",
    "import_closure",
    "module_fingerprint",
]

#: modules outside this package never participate in fingerprints — the
#: interpreter and third-party versions are covered by the repro version
#: component of the cache key instead.
ROOT_PACKAGE = "repro"

#: module name -> (origin path, source bytes sha256, source bytes), or None
#: when the module has no readable .py source (namespace pkg, extension,
#: missing).
_SOURCE_CACHE: dict[str, Optional[tuple[str, str, bytes]]] = {}
#: (module name, root package) -> transitive in-package import closure
_CLOSURE_CACHE: dict[tuple[str, str], frozenset[str]] = {}


def clear_fingerprint_caches() -> None:
    """Drop all memoized source hashes and closures (tests edit files)."""
    _SOURCE_CACHE.clear()
    _CLOSURE_CACHE.clear()


def _find_source(modname: str) -> Optional[tuple[str, bytes]]:
    """Locate ``modname``'s .py file and read it; None when impossible."""
    try:
        spec = importlib_util.find_spec(modname)
    except Exception:
        # unimportable parents, names that are attributes not modules, ...
        return None
    if spec is None or spec.origin is None or not spec.origin.endswith(".py"):
        return None
    try:
        with open(spec.origin, "rb") as fh:
            return spec.origin, fh.read()
    except OSError:
        return None


def _source_entry(modname: str) -> Optional[tuple[str, str, bytes]]:
    if modname not in _SOURCE_CACHE:
        found = _find_source(modname)
        if found is None:
            _SOURCE_CACHE[modname] = None
        else:
            path, source = found
            _SOURCE_CACHE[modname] = (path, hashlib.sha256(source).hexdigest(), source)
    return _SOURCE_CACHE[modname]


def module_fingerprint(modname: str) -> Optional[str]:
    """sha256 of one module's source bytes (None if unreadable)."""
    entry = _source_entry(modname)
    return None if entry is None else entry[1]


def _is_package(modname: str) -> bool:
    entry = _source_entry(modname)
    return entry is not None and entry[0].endswith("__init__.py")


def _statements(body: list) -> Iterator[ast.AST]:
    """Every statement in ``body`` and in the blocks nested in it.

    Imports are statements, so this finds every one ``ast.walk`` would,
    without visiting a single expression node."""
    for node in body:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers", "cases"):
            nested = getattr(node, block, None)
            if nested:
                yield from _statements(nested)


def _direct_imports(modname: str, root: str) -> set[str]:
    """Modules under ``root`` imported directly by ``modname``'s source."""
    entry = _source_entry(modname)
    if entry is None:
        return set()
    path, _, source = entry
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        return set()
    prefix = root + "."
    out: set[str] = set()

    def keep(name: str) -> None:
        if name == root or name.startswith(prefix):
            if _source_entry(name) is not None:
                out.add(name)

    # the package anchor relative imports resolve against
    package = modname if _is_package(modname) else modname.rpartition(".")[0]
    for node in _statements(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                keep(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if not package:
                    continue
                try:
                    base = importlib_util.resolve_name(
                        "." * node.level + (node.module or ""), package
                    )
                except ImportError:
                    continue
            else:
                base = node.module or ""
            if not base:
                continue
            keep(base)
            # ``from pkg import sub`` pulls in submodules, not just names
            for alias in node.names:
                if alias.name != "*":
                    keep(f"{base}.{alias.name}")
    out.discard(modname)
    return out


def import_closure(modname: str, root: str = ROOT_PACKAGE) -> frozenset[str]:
    """``modname`` plus every module it transitively imports under ``root``."""
    cached = _CLOSURE_CACHE.get((modname, root))
    if cached is not None:
        return cached
    seen: set[str] = set()
    frontier = [modname]
    while frontier:
        mod = frontier.pop()
        if mod in seen:
            continue
        seen.add(mod)
        frontier.extend(_direct_imports(mod, root) - seen)
    closure = frozenset(seen)
    _CLOSURE_CACHE[(modname, root)] = closure
    return closure


def closure_fingerprint(modname: str, root: str = ROOT_PACKAGE) -> str:
    """One digest over the sorted (name, source hash) pairs of the closure.

    Modules without readable source contribute their name only, so a
    module that *loses* its source still perturbs the fingerprint.
    """
    digest = hashlib.sha256()
    for name in sorted(import_closure(modname, root)):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        fp = module_fingerprint(name)
        digest.update(b"?" if fp is None else fp.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()
