"""The package holds only what its own modules, the benchmark or its users call.

Every public top-level name of ``src/cousr/*.py`` must be used beyond its own
definition somewhere in ``src/cousr/`` or ``perfbench/`` (the benchmark wraps
some layers by name, as strings), or be exported in ``cousr.__all__``. Every
public method or property of a package class must be used the same way; an
export does not excuse a member.
References that only the tests need live in ``tests/reference.py``, and each
of its public top-level names must be used by some ``tests/test_*.py``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import cousr

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "cousr").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
REFERENCE = ROOT / "tests" / "reference.py"
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def _uses(node: ast.AST) -> Counter:
    """Names the node uses: loaded names, attributes, imported names, strings."""
    found: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            found[child.value] += 1
    return found


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def test_every_public_name_is_used_or_exported():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for node in trees[path].body
        for name in _defined(node)
        if not name.startswith("_")
        and name not in cousr.__all__
        and uses[name] <= _uses(node)[name]
    ]
    assert unused == []


def test_every_public_class_member_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.name}: {node.name}.{member.name}"
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and uses[member.name] <= _uses(member)[member.name]
    ]
    assert unused == []


def test_every_public_reference_name_is_used_by_a_test():
    uses = sum((_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in TESTS), Counter())
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    unused = [
        name
        for node in tree.body
        for name in _defined(node)
        if not name.startswith("_") and not uses[name]
    ]
    assert unused == []
