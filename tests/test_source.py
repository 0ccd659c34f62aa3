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


def test_every_public_name_has_one_home():
    # each __all__ name is defined in its own module, by a top-level def,
    # class or assignment: no module re-exports a name it imports
    strays = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound |= {t.id for t in targets if isinstance(t, ast.Name)}
        module = importlib.import_module("dbrg" if path.stem == "__init__" else f"dbrg.{path.stem}")
        strays += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                   if name not in bound]
    assert strays == []


FIELD_LAYERS = ("gfint", "gfcore")  # the scalar and the stacked field layer


def test_gfcore_keeps_no_second_vector_set_or_point_layer():
    # vector sets, the listing of points and hyperplane counts are gfint's
    # Python-int work; gfcore defines the coset and inclusion graph kernels
    # and none of its former array copies of them; its one coset kernel is
    # coset_index, with no listing of each coset's vectors beside it
    tree = ast.parse((Path(dbrg.__file__).parent / "gfcore.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert defined & {"dot", "hyperplane_counts", "projective_points", "vector_bitsets",
                      "bitset_contains", "subspaces", "coset_ids"} == set()


def test_gfint_reads_digits_one_way():
    # the field bootstrap, vector ids and vector literals read base-b digits
    # through one routine and reduce polynomials through one remainder, with
    # no polynomial list helper, least-irreducible search or literal-digit
    # routine beside them
    tree = ast.parse((Path(dbrg.__file__).parent / "gfint.py").read_text())
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"_poly_trim", "_poly_mul", "_poly_mod", "_int_to_poly", "_poly_to_int",
                      "_least_irreducible", "_digits"} == set()
    assert {"_base_digits", "_remainder"} <= defined


def test_one_path_from_a_subspace_to_its_bitset():
    # a subspace's vector set is the AND of hyperplanes (gfint.subspace_bitset
    # and echelon_bitsets); no module lists its ids and packs them apart
    found = [f"{path.name}: {name}" for path in SOURCES for name in ("span_ids", "id_bitset")
             if name in path.read_text()]
    assert found == []


def _results(tree, fn):
    """The names bound to a call of ``fn`` (``x = fn(...)`` or
    ``x, y = fn(...), ...``) anywhere in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and isinstance(v, ast.Call) and getattr(v.func, "id", None) == fn}
    return names


def test_no_loop_over_the_points_takes_each_hyperplane_bitset():
    # arcs, two-intersection sets and perp duals count hyperplanes with
    # gfint.hyperplane_counts, one pass over the points of each space's perp;
    # no loop over the points of PG(n-1, q) calls a hyperplane_bitsets map,
    # and only gfint enumerates the points of a subspace
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        points, maps = _results(tree, "point_vectors"), _results(tree, "hyperplane_bitsets")

        def over_points(it):
            return getattr(it, "id", None) in points or (
                isinstance(it, ast.Call) and getattr(it.func, "id", None) == "point_vectors")

        def takes_a_hyperplane(node):
            return isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) in maps
                or isinstance(node.func, ast.Call)
                and getattr(node.func.func, "id", None) == "hyperplane_bitsets")

        for loop in ast.walk(tree):
            if isinstance(loop, ast.For) and over_points(loop.iter):
                body = loop.body
            elif (isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp))
                  and any(over_points(gen.iter) for gen in loop.generators)):
                body = [loop]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: a hyperplane bitset per point"
                      for stmt in body for node in ast.walk(stmt) if takes_a_hyperplane(node)]
        if path.stem != "gfint":
            found += [f"{path.name}:{node.lineno}: defines {node.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name in ("hyperplane_counts", "_points")]
    assert found == []
    gfint = ast.parse((Path(dbrg.__file__).parent / "gfint.py").read_text())
    assert {"hyperplane_counts", "_points"} <= {node.name for node in gfint.body
                                               if isinstance(node, ast.FunctionDef)}


def test_field_layers_alone_know_ids_and_bitsets():
    # no module imports another module's private name; outside the field
    # layers no module spells the vector-id weights, adds ids digit-wise (an
    # ``add`` with a digit count) or reads bitset words and bits
    found = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found += [f"{path.name}:{node.lineno}: imports {a.name}" for a in node.names
                          if a.name.startswith("_")]
            if path.stem in FIELD_LAYERS or not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "add" and (len(node.args) > 2 or node.keywords):
                found.append(f"{path.name}:{node.lineno}: digit-wise add")
        if path.stem not in FIELD_LAYERS:
            for pattern in (r"\*\*\s*np\.arange", r">>\s*[36]\b", r"&\s*(63|7)\b"):
                found += [f"{path.name}: {m.group()}" for m in re.finditer(pattern, text)]
    assert found == []


def test_family_bases_cross_to_the_kernels_in_one_place():
    # member bases are stacked only by ``gfcore.stack_bases``; stacked rows
    # become Subspace values only in the field layers
    # (``gfcore.enumerate_subspaces`` and ``gfint.subspace_make``), since the
    # Subspace constructor trusts its rows to be a canonical echelon basis
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.stem == "gfcore":
            allowed = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, ast.FunctionDef) and fn.name == "stack_bases"
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("array", "asarray", "stack") and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "basis"
                    for arg in node.args for sub in ast.walk(arg)):
                found.append(f"{path.name}:{node.lineno}: stacks member bases")
            if name == "Subspace" and path.stem not in FIELD_LAYERS:
                found.append(f"{path.name}:{node.lineno}: builds a Subspace")
    assert found == []


def _imports(path):
    """(package modules, other modules) imported anywhere in a file; ``from a
    import b`` counts as both ``a`` and ``a.b``, since b may be a submodule."""
    local, other = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            other |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            local |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            other |= {node.module} | {f"{node.module}.{a.name}" for a in node.names}
    return local, other


def _start_up_cost(name):
    # numpy, and dataclasses (which imports inspect, dis and ast), each cost
    # more than a feasibility command's integer work; so does
    # importlib.resources where no site hook has loaded it
    return name.split(".")[0] in ("numpy", "dataclasses") or name.startswith("importlib.resources")


def test_integer_layer_imports_no_numpy():
    # params and feasibility, the scalar field layer gfint, the geometry
    # families and the perp systems perpsys, and every package module they
    # import (so not gfcore), are integer and Fraction work with NamedTuple
    # records, plain classes and a plain read of the catalog file; cli.py
    # itself imports no layer (see below)
    package = Path(dbrg.__file__).parent
    todo = ["geometry", "params", "feasibility", "gfint", "perpsys"]
    seen, found = set(), []
    while todo:
        stem = todo.pop()
        if stem in seen:
            continue
        seen.add(stem)
        local, other = _imports(package / f"{stem}.py")
        todo += local
        found += [f"{stem}.py imports {name}" for name in sorted(other) if _start_up_cost(name)]
        # nor can a module of the layer reach numpy by a dynamic import
        found += [f"{stem}.py imports {name}" for name in sorted(other)
                  if name.split(".")[0] == "importlib"]
        found += [f"{stem}.py calls __import__" for node in ast.walk(
            ast.parse((package / f"{stem}.py").read_text())) if getattr(node, "id", None) == "__import__"]
    found += [f"cli.py imports {name}" for name in sorted(_imports(package / "cli.py")[1])
              if _start_up_cost(name)]
    assert found == []


def test_no_module_imports_dataclasses():
    # records are NamedTuples and the families plain classes: building a
    # frozen dataclass execs generated code in every process that imports
    # it, and importing dataclasses loads inspect, dis and ast
    found = [f"{path.name} imports {name}" for path in SOURCES
             for name in sorted(_imports(path)[1]) if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_no_module_needs_the_interpreter_teardown():
    # every command ends by os._exit, which runs no exit handler and no
    # finalizer: a module that registered one would lose its work
    found = [f"{path.name} imports atexit" for path in SOURCES
             if "atexit" in {name.split(".")[0] for name in _imports(path)[1]}]
    found += [f"{path.name}:{node.lineno}: defines __del__" for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__"]
    assert found == []


def test_every_command_ends_through_run():
    # python -m dbrg.cli and the dbrg console script both call cli.run
    package = Path(dbrg.__file__).parent
    pyproject = package.parents[1] / "pyproject.toml"
    assert re.search(r'^dbrg = "dbrg\.cli:run"$', pyproject.read_text(), re.M)
    last = ast.parse((package / "cli.py").read_text()).body[-1]
    assert ast.unparse(last) == "if __name__ == '__main__':\n    run()"


def test_cli_imports_no_layer_at_module_level():
    # each command imports the layers it calls, so `import dbrg.cli` is cheap
    path = Path(dbrg.__file__).parent / "cli.py"
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.level == 0 else ["dbrg"]
        else:
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        found += [f"cli.py:{node.lineno}: imports {name} at module level"
                  for name in names if name.split(".")[0] == "dbrg"]
    assert found == []


# Public names that no package module uses, each with its reason to stay;
# the list may only shrink
UNUSED_PUBLIC = {
    "feasibility.evaluate": "the benchmark reads it",
    "gfcore.enumerate_subspaces": "the benchmark reads it",
    "geometry.arc_check": "an arc command is planned",
    "geometry.denniston_arc": "an arc command is planned",
    "params.perp_srg_params": "one of the paper's objects, with tests",
    "perpsys.perp_dualize": "one of the paper's objects, with tests",
    "perpsys.two_intersection_set": "one of the paper's objects, with tests",
}


def test_every_unused_public_name_is_pinned():
    # an __all__ name counts as used where a package module names it (as a
    # name or an attribute) outside the top-level statement that defines it
    used = set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), str(path)).body:
            own = {getattr(stmt, "name", None)} | {
                t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
            used |= {getattr(node, "id", getattr(node, "attr", None))
                     for node in ast.walk(stmt)} - own
    unused = []
    for path in SOURCES:
        module = importlib.import_module("dbrg" if path.stem == "__init__" else f"dbrg.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ())
                   if name not in used]
    assert sorted(unused) == sorted(UNUSED_PUBLIC)
