"""Tier-1 guard: no module imports a name it never uses.

A stdlib ``ast`` pass over ``src``, ``tests`` and ``examples``.  A name
counts as used when it appears as a bare name anywhere in the module,
inside a string annotation included, or when the module lists it in
``__all__`` (the package ``__init__`` re-exports).  ``__future__``
imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TREES = ("src", "tests", "examples")


def _imported(tree):
    """name bound by an import -> line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("NodeRuntime", "Optional[Packet]").
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source):
    """Sorted ``(line, name)`` of every import ``source`` never uses."""
    tree = ast.parse(source)
    keep = _used(tree) | _exported(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in keep)


def test_every_import_is_used():
    findings = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert findings == []


def test_the_check_sees_what_it_must():
    source = (
        "from typing import TYPE_CHECKING, Optional\n"
        "import os.path\n"
        "from a import b, c\n"
        "__all__ = ['c']\n"
        "if TYPE_CHECKING:\n    from x import Packet\n"
        "def f(p: 'Packet') -> None:\n    return None\n"
    )
    assert unused_imports(source) == [(1, "Optional"), (2, "os"), (3, "b")]
