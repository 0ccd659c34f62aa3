"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path

import dbrg

SOURCES = sorted(Path(dbrg.__file__).parent.glob("*.py"))


def test_no_assert_in_package():
    # `python -O` strips assert statements, and AssertionError is not a
    # documented error type: invariants raise ValueError or RuntimeError
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert statement")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raises AssertionError")
    assert found == []


def test_all_names_exist():
    # a name deleted from a module but left in its __all__ breaks `import *`
    missing = []
    for path in SOURCES:
        module = importlib.import_module("dbrg" if path.stem == "__init__" else f"dbrg.{path.stem}")
        missing += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
