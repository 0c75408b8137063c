"""No definition in ``src/binpick`` exists only for the tests.

An ``ast`` census: every function, method and class defined in the package
(dunders excepted) is loaded by name, by attribute or by ``from`` import
somewhere in ``src/binpick`` or ``perfbench/*.py``, or is named by a string
constant there (the benchmark's probe table looks functions up by string).
What ``binpick/__init__.py`` exports counts through its ``from`` imports. A
name that only a test reads is dead weight: the test computes what it needs
itself, or through ``tests/oracles.py``.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "binpick"


def _definitions(node: ast.AST, prefix: str):
    """(qualified name, name) of every def and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child.name
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_definition_is_used_outside_the_tests():
    sources = sorted(_PACKAGE.glob("*.py")) + sorted((_ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    dead = [qualified
            for path, tree in trees.items() if path.parent == _PACKAGE
            for qualified, name in _definitions(tree, path.stem)
            if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert not dead, f"read only by the tests: {', '.join(dead)}"
