"""Checks over the package source itself."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def imported_modules(tree: ast.Module) -> set[str]:
    """The afscreen modules a module imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "afscreen":
                continue
            module = module.removeprefix("afscreen").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("afscreen."))
    return names


def test_only_the_pipeline_imports_the_detectors():
    # The record layer, the features, the forest and the statistics need
    # no filter; only the pipeline runs the detectors.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(afscreen.__file__).parent.glob("*.py")}
    assert [name for name, tree in trees.items()
            if "qrs" in imported_modules(tree)] == ["pipeline"]
    assert [name for name, tree in trees.items()
            for node in ast.walk(tree)
            if (isinstance(node, ast.alias)
                and node.name == "TYPE_CHECKING")
            or (isinstance(node, ast.Attribute)
                and node.attr == "TYPE_CHECKING")] == []


def test_modules_that_filter_no_signal_load_no_scipy():
    modules = ["record_io", "quality", "features", "forest", "stats",
               "synth"]
    code = (f"import sys\n"
            f"for m in {modules!r}:\n"
            f"    __import__('afscreen.' + m)\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] "
            f"== 'scipy'))\n")
    src = str(Path(afscreen.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
