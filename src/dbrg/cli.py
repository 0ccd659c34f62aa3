"""Command-line front end.

Every subcommand is a thin composition of library calls: builders from
:mod:`dbrg.constructions`, checks from :mod:`dbrg.bigraph`, the perp
systems of :mod:`dbrg.perpsys`, and the feasibility enumeration.  Each
command imports only the layers it calls, so importing this module loads
none of them.  ``feas enumerate`` and ``catalog`` run on the integer
layer alone; ``perp verify``, ``roundtrip`` of a perp file and
``perp search`` on the integer, field and perp layers
(:mod:`dbrg.params`, :mod:`dbrg.gfint` and :mod:`dbrg.perpsys`).  None of these imports
numpy, and the perp commands load no :mod:`fractions` either.  No
command loads :mod:`dataclasses`: every record is a NamedTuple or a
plain class, as importing it (with :mod:`inspect`) and building frozen
dataclasses costs more than a feasibility command's enumeration, and
about 10 ms of each graph or perp command.
Identical invocations produce byte-identical artifacts; the last stdout
line of each command is a compact JSON summary.

Exit codes separate mathematical verdicts from operational failures:

* 0   success (verified / feasible / found)
* 2   negative mathematical verdict (not distance-biregular, perp
      violation, hypothesis failure, completed-empty search, catalog
      conflict)
* 3   search budget exhausted before completion
* 64  usage error (unknown command, malformed invocation)
* 65  invalid parameters or file contents, including inputs whose
      arrays do not fit in memory (``invalid input: too large: ...``)
* 66  file I/O failure, also of stdout or stderr (a full disk, a closed
      pipe)

``python -m dbrg.cli`` and ``dbrg`` end through :func:`run`: it flushes
stdout and stderr and calls ``os._exit``, skipping interpreter and numpy
teardown; every file written is closed before :func:`main` returns, and
no module registers an exit handler or a finalizer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_VERDICT = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _summary(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)


def _array_payload(arr) -> str | None:
    return None if arr is None else str(arr)


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _gen_delorme(c, args):
    from . import perpsys

    res = perpsys.perp_verify(*perpsys.parse_perp(Path(args.perp).read_text()))
    if isinstance(res, perpsys.PerpViolation):
        raise _Verdict(f"perp file does not verify: {res.kind}: {res.detail}")
    return c.gen_delorme_graph(res)


# family -> (required options, builder of (dbrg.constructions, args))
_FAMILIES = {
    "complete-bipartite": (("k", "l"), lambda c, a: c.complete_bipartite(a.k, a.l)),
    "bi-johnson": (("n", "k"), lambda c, a: c.bi_johnson(a.n, a.k)),
    "bi-grassmann": (("n", "k", "q"), lambda c, a: c.bi_grassmann(a.n, a.k, a.q)),
    "gen-delorme": (("perp",), _gen_delorme),
    "cone": (("q",), lambda c, a: c.cone_graph(a.q)),
    "hyperoval-affine": (("q",), lambda c, a: c.hyperoval_affine_graph(a.q)),
}


class _Verdict(Exception):
    """Negative mathematical result (exit code 2)."""


def _emit(built, out: str, keys: dict) -> int:
    """Check a built :class:`dbrg.constructions.ConstructionResult`, write
    ``out``.graph and ``out``.json, print the summary: ``keys`` plus the
    sizes and the predicted and measured arrays.  Exit 0 if the graph
    verifies with the predicted array, else 2.  The check uses the
    automorphisms the builder claims, after checking each of them."""
    from . import bigraph

    res = bigraph.dbrg_check(built.graph, built.automorphisms)
    with open(out + ".graph", "w") as fh:
        bigraph.write_graph(built.graph, fh)
    payload = {
        **keys,
        "nB": built.graph.nB,
        "nC": built.graph.nC,
        "predicted": _array_payload(built.predicted),
        "measured": _array_payload(res.array),
        "verified": bool(res.ok and res.array == built.predicted),
        "graph_file": out + ".graph",
    }
    _write(out + ".json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _summary(payload)
    return EXIT_OK if payload["verified"] else EXIT_VERDICT


def cmd_construct(args) -> int:
    from . import constructions

    required, build = _FAMILIES[args.family]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        print(f"usage error: construct {args.family} requires {' '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE
    built = build(constructions, args)
    return _emit(built, args.out, {"command": "construct", "family": args.family,
                                   "params": built.params, "provenance": built.provenance})


def cmd_verify(args) -> int:
    from . import bigraph

    with open(args.graphfile) as lines:
        g = bigraph.parse_graph(lines)
    res = bigraph.dbrg_check(g)
    payload = {
        "command": "verify",
        "file": args.graphfile,
        "nB": g.nB,
        "nC": g.nC,
        "distance_biregular": res.ok,
        "regular": res.regular,
        "array": _array_payload(res.array),
        "witness": None if res.witness is None else list(res.witness),
    }
    _summary(payload)
    return EXIT_OK if res.ok else EXIT_VERDICT


def cmd_derive(args) -> int:
    from . import bigraph, constructions, params

    with open(args.graphfile) as lines:
        g = bigraph.parse_graph(lines)
    side, _, idx = args.vertex.partition(":")
    if side not in ("B", "C") or not (idx.isascii() and idx.isdigit()):
        raise ValueError(f"--vertex must look like B:3 or C:17, got {args.vertex!r}")
    try:
        built = constructions.derived_local_graph(g, side, int(idx))
    except params.DerivedGraphError as exc:
        _summary({"command": "derive", "ok": False, "condition": exc.condition,
                  "detail": str(exc)})
        return EXIT_VERDICT
    return _emit(built, args.out, {"command": "derive", "vertex": args.vertex,
                                   "gamma3": built.params["gamma3"]})


# ---------------------------------------------------------------------------
# perp
# ---------------------------------------------------------------------------

def cmd_perp_verify(args) -> int:
    from . import perpsys

    res = perpsys.perp_verify(*perpsys.parse_perp(Path(args.perpfile).read_text()))
    if isinstance(res, perpsys.PerpViolation):
        _summary({"command": "perp-verify", "ok": False, "kind": res.kind,
                  "detail": res.detail})
        return EXIT_VERDICT
    payload = {"command": "perp-verify", "ok": True, "n": res.n, "k": res.k,
               "q": res.ctx.q, "d": res.d, "s": res.s}
    _summary(payload)
    return EXIT_OK


def cmd_perp_search(args) -> int:
    from . import perpsys

    out = perpsys.perp_search(
        args.n, args.k, args.q, args.d,
        budget_nodes=args.budget_nodes,
        budget_seconds=args.budget_seconds,
        count_all=args.count_all,
    )
    payload = {
        "command": "perp-search",
        "status": out.status,
        "nodes": out.nodes,
        "complete": out.complete,
        "solutions": out.solutions,
    }
    if out.system is not None and args.out:
        _write(args.out, perpsys.serialize_perp(out.system))
        payload["perp_file"] = args.out
        payload["d"] = out.system.d
        payload["s"] = out.system.s
    _summary(payload)
    if out.status == "found":
        return EXIT_OK
    return EXIT_BUDGET if out.status == "budget" else EXIT_VERDICT


# ---------------------------------------------------------------------------
# feas / catalog
# ---------------------------------------------------------------------------

def cmd_feas_enumerate(args) -> int:
    from . import feasibility

    rows = feasibility.enumerate_feasible(args.max_side)
    if args.out:
        _write(args.out, feasibility.rows_to_csv(rows))
    if args.json:
        _write(args.json, feasibility.rows_to_json(rows))
    payload = {
        "command": "feas-enumerate",
        "max_side": args.max_side,
        "rows": len(rows),
        "feasible": sum(r.status == "feasible" for r in rows),
        "flagged": sum(r.status == "flagged" for r in rows),
        "infeasible": sum(r.status == "infeasible" for r in rows),
    }
    if args.out:
        payload["csv"] = args.out
    _summary(payload)
    return EXIT_OK


def cmd_catalog(args) -> int:
    from . import feasibility

    rows = feasibility.enumerate_feasible(args.max_side)
    ref = feasibility.reference_table(args.catalog)
    try:
        annotated = feasibility.catalog_annotate(rows, ref)
    except ValueError as exc:
        _summary({"command": "catalog", "ok": False, "conflict": str(exc)})
        return EXIT_VERDICT
    matched, extras, missing = feasibility.compare_with_reference(rows, ref)
    doc = {
        "rows": annotated,
        "extras": [str(r.array) for r in extras],
        "missing": missing,
    }
    if args.out:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _summary({
        "command": "catalog",
        "ok": True,
        "matched": len(matched),
        "extras": len(extras),
        "missing": len(missing),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# roundtrip
# ---------------------------------------------------------------------------

def cmd_roundtrip(args) -> int:
    text = Path(args.file).read_text()
    head = text.splitlines()[0] if text else ""
    if head.startswith("B="):
        from . import bigraph

        again = bigraph.serialize_graph(bigraph.parse_graph(text))
    elif head.startswith("q="):
        from . import perpsys

        res = perpsys.perp_verify(*perpsys.parse_perp(text))
        if isinstance(res, perpsys.PerpViolation):
            _summary({"command": "roundtrip", "ok": False, "detail": res.detail})
            return EXIT_VERDICT
        again = perpsys.serialize_perp(res)
    else:
        raise ValueError(f"unrecognized file header {head!r}")
    identical = again == text
    _summary({"command": "roundtrip", "file": args.file, "identical": identical})
    return EXIT_OK if identical else EXIT_VERDICT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _make_parser() -> _Parser:
    p = _Parser(prog="dbrg", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a graph family and verify it")
    c.add_argument("family", choices=list(_FAMILIES))
    c.add_argument("--k", type=int)
    c.add_argument("--l", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--perp", help="perp-system file for gen-delorme")
    c.add_argument("--out", required=True, help="output prefix")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="distance-biregularity check of a graph file")
    v.add_argument("graphfile")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("derive", help="local derived graph at a vertex")
    d.add_argument("graphfile")
    d.add_argument("--vertex", required=True, help="side:index, e.g. B:0")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_derive)

    pp = sub.add_parser("perp", help="perp-system operations")
    psub = pp.add_subparsers(dest="perp_command", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("perpfile")
    pv.set_defaults(func=cmd_perp_verify)
    ps = psub.add_parser("search")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--q", type=int, required=True)
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--budget-nodes", type=int)
    ps.add_argument("--budget-seconds", type=float)
    ps.add_argument("--count-all", action="store_true")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_perp_search)

    f = sub.add_parser("feas", help="intersection-array feasibility")
    fsub = f.add_subparsers(dest="feas_command", required=True)
    fe = fsub.add_parser("enumerate")
    fe.add_argument("--max-side", type=int, required=True)
    fe.add_argument("--out", help="CSV path")
    fe.add_argument("--json", help="JSON path")
    fe.set_defaults(func=cmd_feas_enumerate)

    cat = sub.add_parser("catalog", help="annotate the enumeration with curated statuses")
    cat.add_argument("--max-side", type=int, default=1300)
    cat.add_argument("--catalog", help="catalog JSON (default: bundled table)")
    cat.add_argument("--out")
    cat.set_defaults(func=cmd_catalog)

    r = sub.add_parser("roundtrip", help="parse and re-serialize a graph or perp file")
    r.add_argument("file")
    r.set_defaults(func=cmd_roundtrip)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except _Verdict as exc:
        _summary({"command": args.command, "ok": False, "detail": str(exc)})
        return EXIT_VERDICT
    except (OSError, IOError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"invalid input: too large: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Exit with the code of :func:`main` once stdout and stderr are flushed:
    66 if writing to either fails, with a message while stderr takes one."""
    try:
        code = main()
    except OSError:  # a handler's message to a failed stderr
        code = EXIT_IO
    for stream in filter(None, (sys.stdout, sys.stderr)):  # None if its fd was closed
        try:
            stream.flush()
        except OSError as exc:  # a full disk or a closed pipe, buffered or not
            code = EXIT_IO
            try:
                print(f"I/O error: {exc}", file=sys.stderr)
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
