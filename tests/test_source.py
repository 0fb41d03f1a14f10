"""Checks on the package source itself."""

import ast
from pathlib import Path

import zeonmarkov

SOURCE = Path(zeonmarkov.__file__).parent


def _private_definitions(tree):
    """Top-level private functions and private methods of top-level classes."""
    for node in tree.body:
        for member in node.body if isinstance(node, ast.ClassDef) else [node]:
            if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and member.name.startswith("_") and not member.name.endswith("__")):
                yield member


def _references(node, skip):
    """Names and attribute names used under ``node``, outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def test_every_private_function_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    definitions = [(name, d) for name, tree in trees.items() for d in _private_definitions(tree)]
    assert len(definitions) >= 10
    unused = [f"{name}:{d.lineno} {d.name}" for name, d in definitions
              if not any(d.name in _references(tree, d) for tree in trees.values())]
    assert unused == []
