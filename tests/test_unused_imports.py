"""Every imported name is used by the module that imports it, and every
name the package exports exists.

A name counts as used when the module reads it anywhere, annotations
included, or lists it in ``__all__``.
``from __future__`` imports are exempt.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos")
                 for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    """(bound name, line) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_exported_names_resolve():
    # a name left in __all__ after its definition is gone passes the check
    # above, since __all__ counts as a use, and breaks star-imports
    import cliquesep
    missing = [name for name in cliquesep.__all__
               if not hasattr(cliquesep, name)]
    assert missing == []
    assert len(set(cliquesep.__all__)) == len(cliquesep.__all__)
