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

Parsing whole modules is most of a cold closure's cost, so one compiled
lexer finds every ``import`` keyword outside strings and comments and only
the statements holding one are parsed.  A module where such a statement
does not stand alone on its own lines (a backslash-continued head, a
one-line ``try:``) is parsed whole instead.

Fingerprints are memoized per process (source files do not change under a
running sweep); tests that rewrite modules on disk call
:func:`clear_fingerprint_caches` between edits.
"""

from __future__ import annotations

import ast
import hashlib
import re
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


#: one pass over a module's source.  Strings and comments are matched
#: whole, so an ``import`` inside one is never seen (a string's prefix
#: letters do not change where it ends); ``statement`` is an import
#: statement alone on its line, whose parenthesized names may span lines;
#: ``keyword`` is any other ``import`` keyword.
_LEXER = re.compile(
    rb"""
    (?P<string>\'\'\'[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*\'\'\'
      |\"\"\"[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*\"\"\"
      |'[^'\\\n]*(?:\\.[^'\\\n]*)*'
      |"[^"\\\n]*(?:\\.[^"\\\n]*)*")
    |(?P<comment>\#[^\n]*)
    |(?P<statement>^[ \t]*(?:from[ \t]+[\w.]+[ \t]+)?import\b
        (?:[^\n\#;\\()'"]|\((?:[^()'"\#]|\#[^\n]*\n)*\))*
        (?=[ \t]*(?:\#[^\n]*)?$))
    |(?P<keyword>\bimport\b)
    """,
    re.MULTILINE | re.VERBOSE | re.DOTALL,
)


def _continued(source: bytes, line_start: int) -> bool:
    """Whether the physical line before ``line_start`` ends in a backslash."""
    return source[max(0, line_start - 3):line_start].rstrip(b"\r\n").endswith(b"\\")


def _import_statements(source: bytes) -> Optional[bytes]:
    """The statements of ``source`` that hold an ``import``, one per line,
    or ``None`` when one of them does not stand alone."""
    lines: list[bytes] = []
    string_end = line_start = line_end = -1
    for match in _LEXER.finditer(source):
        kind = match.lastgroup
        if kind == "string":
            if match.start() < line_end < match.end():
                return None  # a string opened on a kept line runs past it
            string_end = match.end()
        elif kind == "statement":
            if _continued(source, match.start()):
                return None
            lines.append(match.group().lstrip())
        elif kind == "keyword":
            # ``x = 1; import y``, ``if TYPE_CHECKING: import x``: keep the
            # physical line, which must parse alone
            start = source.rfind(b"\n", 0, match.start()) + 1
            if start == line_start:
                continue
            if start < string_end or _continued(source, start):
                return None
            end = source.find(b"\n", match.end())
            line_start, line_end = start, len(source) if end < 0 else end
            lines.append(source[start:line_end].lstrip())
    return b"\n".join(lines)


def _parse_imports(source: bytes, path: str) -> Optional[ast.Module]:
    """A module holding every import statement of ``source`` (None when the
    source does not parse)."""
    statements = _import_statements(source)
    if statements is not None:
        try:
            return ast.parse(statements, filename=path)
        except SyntaxError:
            pass
    try:
        return ast.parse(source, filename=path)
    except SyntaxError:
        return None


def _direct_imports(modname: str, root: str) -> set[str]:
    """Modules under ``root`` imported directly by ``modname``'s source."""
    entry = _source_entry(modname)
    if entry is None:
        return set()
    path, _, source = entry
    tree = _parse_imports(source, path)
    if tree is None:
        return set()
    prefix = root + "."
    out: set[str] = set()

    def keep(name: str) -> bool:
        if name == root or name.startswith(prefix):
            if _source_entry(name) is not None:
                out.add(name)
                return True
        return False

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
            if keep(base) and not _is_package(base):
                continue  # a plain module has no submodules
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
