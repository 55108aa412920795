"""Checks over the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import afscreen


def test_every_private_definition_is_used_in_the_package():
    # A module-level _private function or class that no code in the
    # package loads, by name or as an attribute, serves only the tests
    # and should go.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(afscreen.__file__).parent.glob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    private = [(name, node.name) for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    assert len(private) > 0
    assert [p for p in private if p[1] not in loaded] == []
