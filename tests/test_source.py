"""Static checks on the package source."""

import ast
import importlib
import re
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


def test_gfcore_alone_knows_ids_and_bitsets():
    # no module imports another module's private name; outside gfcore no
    # module spells the vector-id weights, adds ids digit-wise (an ``add``
    # with a digit count) or reads bitset words and bits
    found = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [f"{path.name}:{node.lineno}: imports {a.name}" for a in node.names
                          if a.name.startswith("_")]
            if path.stem == "gfcore" or not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "add" and (len(node.args) > 2 or node.keywords):
                found.append(f"{path.name}:{node.lineno}: digit-wise add")
        if path.stem != "gfcore":
            for pattern in (r"\*\*\s*np\.arange", r">>\s*6\b", r"&\s*63\b"):
                found += [f"{path.name}: {m.group()}" for m in re.finditer(pattern, text)]
    assert found == []


def test_family_bases_cross_to_the_kernels_in_one_place():
    # member bases are stacked only by ``SpaceFamily.bases``; stacked rows
    # become Subspace values only in gfcore (``subspaces``), since the
    # Subspace constructor trusts its rows to be a canonical echelon basis
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.stem == "geometry":
            allowed = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "bases"
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("array", "asarray", "stack") and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "basis"
                    for arg in node.args for sub in ast.walk(arg)):
                found.append(f"{path.name}:{node.lineno}: stacks member bases")
            if name == "Subspace" and path.stem != "gfcore":
                found.append(f"{path.name}:{node.lineno}: builds a Subspace")
    assert found == []
