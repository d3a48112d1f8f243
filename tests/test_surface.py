"""The package defines nothing that only the tests use.

Every module-level function, class and constant of `src/icui` must be
referenced somewhere in the package outside its own definition (a loaded
name, an attribute, or a name imported by another module, which includes
the exports of `icui/__init__.py`).  Dunder names are exempt.  References
and test-only helpers live under tests/: the oracles in `*_oracle.py`, the
model serializer in conftest.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "icui"


def _defined(stmt) -> list[str]:
    """Names a module-level statement defines as a function, class or constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt) -> set[str]:
    """Names a statement loads, reads as attributes, or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def unused_definitions() -> list[str]:
    """`module.name` of every definition nothing else in the package references."""
    stmts = []  # (module, statement, names it references)
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            stmts.append((path.stem, stmt, _referenced(stmt)))
    unused = []
    for module, stmt, _ in stmts:
        for name in _defined(stmt):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in refs for _, other, refs in stmts if other is not stmt):
                unused.append(f"{module}.{name}")
    return unused


def test_every_definition_is_used_or_exported():
    assert unused_definitions() == []
