#!/usr/bin/env python3
"""Parent-versus-change measurements of dbrg, written as one ``BENCH_<n>.json`` record.

Run from anywhere, with two checkouts of the repository (each holding
``src/`` and ``bench/``), such as a ``git archive`` of the parent commit
and a copy of the change:

    python3 tools/bench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --out BENCH_34.json --cases perp graphs reader fields

The seeds are 10n + 1 ... 10n + 10 for ``--out BENCH_<n>.json`` (341 to
350 for ``BENCH_34.json``); any other ``--out`` name exits 64.  The case
sets ``--cases`` names:

* ``perp``: in-process, the (6,2,3,3) search to 20 000 nodes, the
  (7,3,2,2) probe to one node, and ``perp_verify`` of 21 4-spaces of
  F_3^6, of the dual hyperovals of PG(2,16) and PG(2,32) and of the dual
  Denniston (32,4) arc, and ``perp_dualize`` and ``two_intersection_set``
  of the last two (median of 15 calls after a warm-up); and ``perp
  verify``, ``roundtrip`` and ``construct gen-delorme`` of the q=8 file;
* ``graphs``: the dual Denniston (32,4) arc's Delorme graph built and
  checked with its translations, ``construct cone --q 4`` then a bare
  ``verify`` of its file, ``construct hyperoval-affine --q 32``, and the
  peak ``tracemalloc`` bytes per edge of ``bi_johnson(20, 5)``;
* ``reader``: ``parse_graph`` of the cone q=3 text relabelled by seed 1
  and of the q=32 affine hyperoval text, from a str and from a file
  (median of 7 calls after a warm-up; sha256 of the edge arrays); and
  ``construct cone --q 3``, the relabelling of its file, ``verify`` of
  that, and ``feas enumerate --max-side 100``;
* ``fields``: ``FieldContext`` of GF(2^16), GF(3^10) and GF(65521), and
  the 657 fields CI hashes (t >= 2 up to 2^16, primes below 4096).

It runs, with ``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=<tree>/src``
and no other ``PYTHON*`` variable, and no ``__pycache__`` in either tree,
so every process compiles what it imports, 10 pairs of parent and change
of ``bench/run.py --workload w --seed s --seconds 30 --trace 0`` for
each workload (one seed per pair), and of each chosen case: its steps
in order, each a fresh ``python`` process with the tree as cwd, in one
fresh temporary directory.  Round i runs the parent first when i is odd.
A step gives its wall seconds ``wall_s``, peak RSS ``peak_rss_mb`` (from
``os.wait4``) and the keys of a JSON object on its last stdout line, the
temporary directory written ``{tmp}``.  Float values are compared
(``statistics.median``, and ``statistics.quantiles`` by the exclusive
method; higher is better for a name ending in ``_per_s``); any other
value, None where a run lacks the key, is kept with whether every run of
both sides gave it.  Every run is kept in the output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

PAIRS = 10
METRICS = ("norm_wall_s", "norm_cmd_geomean_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("cone", "perp", "feas")
ENVIRONMENT = "PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=<tree>/src, no other PYTHON* variable"


def environment(tree: Path) -> dict[str, str]:
    """The caller's environment with :data:`ENVIRONMENT` for its ``PYTHON*``
    variables, so that no record depends on the shell it was run from."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    return dict(env, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))


def step(tree: Path, argv: list[str], tmp: str) -> dict:
    """``python argv`` with ``tree`` as cwd, ``{tmp}`` in ``argv`` naming
    ``tmp``: wall seconds, peak RSS (MB) and the keys of a JSON object on
    the last stdout line, if there is one.  RuntimeError unless it exits 0."""
    argv = [sys.executable, *(a.replace("{tmp}", tmp) for a in argv)]
    t = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=tree, env=environment(tree), stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:4]} exited {proc.returncode} in {tree}")
    got = {"wall_s": seconds, "peak_rss_mb": usage.ru_maxrss / 1024}
    last = out.replace(tmp, "{tmp}").strip().rpartition("\n")[2]
    if last.startswith("{"):
        got.update(json.loads(last))
    return got


def pairs(trees: dict[str, Path], run: Callable[[Path, int], dict]) -> dict[str, list[dict]]:
    """``run(tree, i)`` for rounds i = 1 .. PAIRS in both ``trees``, the
    parent first when i is odd: each side's results in round order."""
    got = {"parent": [], "change": []}
    for i in range(1, PAIRS + 1):
        for side in (("parent", "change") if i % 2 else ("change", "parent")):
            got[side].append(run(trees[side], i))
    return got


def medians(compared: dict) -> tuple[float, float]:
    return compared["parent"]["median"], compared["change"]["median"]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def compare(name: str, parent: list[float], change: list[float]) -> dict:
    """Both sides' summaries and runs, and the pairs the change won; a
    ``name`` ending in ``_per_s`` is higher-is-better, any other lower."""
    higher = name.endswith("_per_s")
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change),
           "change_better": f"{wins}/{len(parent)}",
           "runs": {"parent": [round(x, 4) for x in parent],
                    "change": [round(x, 4) for x in change]}}
    out["change_vs_parent"] = round(out["change"]["median"] / out["parent"]["median"] - 1, 4)
    return out


def aggregate(runs: dict[str, list[dict]]) -> dict:
    """Per key of any run: a float in every run compared between the sides,
    any other value (a count, a verdict, a digest, None where a run lacks
    the key) with whether every run of both sides gave the first parent's."""
    out = {}
    for key in dict.fromkeys(k for got in runs.values() for r in got for k in r):
        column = {side: [r.get(key) for r in got] for side, got in runs.items()}
        values = column["parent"] + column["change"]
        if all(isinstance(v, float) for v in values):
            out[key] = compare(key, column["parent"], column["change"])
        else:
            same = values.count(values[0]) == len(values)
            out[key] = {"value": values[0], "same_in_every_run": same}
    return out


def seeds(out: Path) -> list[int]:
    """10n + 1 .. 10n + PAIRS for ``BENCH_<n>.json``; ValueError for any other name."""
    record = re.fullmatch(r"BENCH_([0-9]+)\.json", out.name)
    if record is None:
        raise ValueError(f"--out must be named BENCH_<n>.json, got {out.name!r}")
    return [10 * int(record[1]) + i for i in range(1, PAIRS + 1)]


def workload_pairs(trees: dict[str, Path], plan: list[int]) -> dict:
    """Per workload: the seeds ``plan``, whether every run was correct with
    none failed, and each metric of :data:`METRICS` aggregated."""
    workloads = {}
    for workload in WORKLOADS:
        def bench_run(tree: Path, i: int) -> dict:
            argv = ["bench/run.py", "--workload", workload, "--seed", str(plan[i - 1]),
                    "--seconds", "30", "--trace", "0"]
            with tempfile.TemporaryDirectory() as tmp:
                last = step(tree, argv, tmp)
            return {"correct": last["correct"] and not last["failed"],
                    **{m: float(last["metrics"][m]["value"]) for m in METRICS}}
        runs = pairs(trees, bench_run)
        workloads[workload] = {"seeds": plan, "all_correct": all(
            r["correct"] for got in runs.values() for r in got), **aggregate(
            {side: [{m: r[m] for m in METRICS} for r in got] for side, got in runs.items()})}
        print(workload, medians(workloads[workload]["norm_wall_s"]), flush=True)
    return workloads


def cli(line: str) -> list[str]:
    return ["-m", "dbrg.cli", *line.split()]


def code(src: str) -> list[str]:
    """``python -c`` of ``src``, printing the ``result`` it defines as JSON."""
    return ["-c", src + "import json\nprint(json.dumps(result))\n", "{tmp}"]


def _timed(setup: str, call: str, verdict: str) -> str:
    """Code timing ``call`` after ``setup``: the median of 15 calls after
    one warm-up, with ``verdict`` read from the last result ``got``."""
    return (setup + "import statistics, time\n"
            f"{call}\n"
            "times = []\n"
            "for _ in range(15):\n"
            "    t = time.perf_counter()\n"
            f"    got = {call}\n"
            "    times.append(time.perf_counter() - t)\n"
            f"result = {{'ms': statistics.median(times) * 1e3, 'verdict': {verdict}}}\n")


def _verify(setup: str) -> str:
    return _timed(setup + "from dbrg.perpsys import perp_verify\n",
                  "perp_verify(ctx, n, k, members)", "getattr(got, 'kind', 'system')")


def _system(family: str) -> str:
    return ("from dbrg.geometry import denniston_arc, dualize, hyperoval\n"
            "from dbrg.perpsys import perp_dualize, perp_verify, two_intersection_set\n"
            f"fam = dualize({family})\n"
            "system = perp_verify(fam.ctx, 3, 1, fam.members)\n")


DUAL_ARCS = (("dual_hyperoval_32", "hyperoval(32)"),
             ("dual_denniston_32_4", "denniston_arc(32, 4)"))
PERP_FILE = "bench/data/dual_hyperoval_q8.perp"

PERP = {
    "search_6_2_3_3_20000": (
        "from dbrg.perpsys import perp_search\n"
        "out = perp_search(6, 2, 3, 3, budget_nodes=20000)\n"
        "result = {'setup_s': out.setup_seconds, 'nodes': out.nodes,\n"
        "          'nodes_per_s': out.nodes / (out.elapsed - out.setup_seconds)}\n"),
    "probe_7_3_2_2": (
        "from dbrg.perpsys import perp_search\n"
        "out = perp_search(7, 3, 2, 2, budget_nodes=1)\n"
        "result = {'setup_s': out.setup_seconds, 'total_s': out.elapsed, 'nodes': out.nodes}\n"),
    "perp_verify_f3_6_21": _verify(
        "import itertools\n"
        "from dbrg.gfcore import enumerate_subspaces\n"
        "from dbrg.gfint import field\n"
        "ctx, n, k = field(3), 6, 2\n"
        "members = list(itertools.islice(enumerate_subspaces(ctx, 6, 4), 21))\n"),
    **{f"perp_verify_{name}": _verify(
        "from dbrg.geometry import denniston_arc, dualize, hyperoval\n"
        f"fam = dualize({family})\n"
        "ctx, n, k, members = fam.ctx, 3, 1, fam.members\n")
       for name, family in (("dual_hyperoval_16", "hyperoval(16)"), *DUAL_ARCS)},
    **{f"perp_dualize_{name}": _timed(_system(family), "perp_dualize(system)", "len(got)")
       for name, family in DUAL_ARCS},
    **{f"two_intersection_set_{name}": _timed(_system(family), "two_intersection_set(system)",
                                              "list(got[1:])")
       for name, family in DUAL_ARCS},
}

DENNISTON = """
from dbrg.bigraph import dbrg_check
from dbrg.constructions import gen_delorme_graph
from dbrg.geometry import denniston_arc, dualize
from dbrg.perpsys import perp_verify
fam = dualize(denniston_arc(32, 4))
built = gen_delorme_graph(perp_verify(fam.ctx, 3, 1, fam.members))
res = dbrg_check(built.graph, built.automorphisms)
assert len(built.graph.eb) == 3276800 and res.ok and res.array == built.predicted
result = {"edges": len(built.graph.eb), "ok": res.ok, "as_predicted": res.array == built.predicted}
"""

BI_JOHNSON = """
import tracemalloc
from dbrg.constructions import bi_johnson
tracemalloc.start()
built = bi_johnson(20, 5)
result = {"bytes_per_edge": tracemalloc.get_traced_memory()[1] / len(built.graph.eb)}
"""

PARSE = """
import hashlib, statistics, sys, time
sys.path.insert(0, "bench")
from run import relabel_graph_text
from dbrg import bigraph
from dbrg.constructions import cone_graph, hyperoval_affine_graph
texts = {
    "cone_q3_relabelled": relabel_graph_text(bigraph.serialize_graph(cone_graph(3).graph), 1),
    "hyperoval_affine_q32": bigraph.serialize_graph(hyperoval_affine_graph(32).graph),
}
result = {}
for name, text in texts.items():
    path = f"{sys.argv[1]}/{name}.graph"
    with open(path, "w") as fh:
        fh.write(text)
    for source in ("str", "file"):
        times = []
        for _ in range(8):
            t = time.perf_counter()
            if source == "str":
                g = bigraph.parse_graph(text)
            else:
                with open(path) as fh:
                    g = bigraph.parse_graph(fh)
            times.append(time.perf_counter() - t)
        result[f"{name}_{source}_ms"] = statistics.median(times[1:]) * 1e3
    result[f"{name}_edges"] = len(g.eb)
    result[f"{name}_edges_sha256"] = hashlib.sha256(g.eb.tobytes() + g.ec.tobytes()).hexdigest()
"""

RELABEL = """
import sys
sys.path.insert(0, "bench")
from run import relabel_graph_text
with open(sys.argv[1] + "/cone.graph") as fh:
    text = relabel_graph_text(fh.read(), 1)
with open(sys.argv[1] + "/cone_relabelled.graph", "w") as fh:
    fh.write(text)
"""

FIELDS = """
import hashlib, time
from dbrg.gfint import FieldContext
from dbrg.params import prime_power
result = {}
for p, t in ((2, 16), (3, 10), (65521, 1)):
    start = time.perf_counter()
    FieldContext(p, t)
    result[f"gf_{p}_{t}_s"] = time.perf_counter() - start
digest, count, start = hashlib.sha256(), 0, time.perf_counter()
for q in range(2, 2**16 + 1):
    try:
        p, t = prime_power(q)
    except ValueError:
        continue
    if t >= 2 or q < 4096:
        ctx = FieldContext(p, t)
        digest.update(f"{p} {t} {','.join(map(str, ctx.modulus))} {ctx.generator} "
                      f"{','.join(map(str, ctx._exp[:q - 1]))}\\n".encode())
        count += 1
result["fields_657_s"] = time.perf_counter() - start
result["fields"], result["sha256"] = count, digest.hexdigest()
"""

# set -> case -> its steps, each (name, argv after ``python``)
CASES = {
    "perp": {
        **{name: [("python", code(src))] for name, src in PERP.items()},
        "perp_file_q8": [("perp_verify", cli(f"perp verify {PERP_FILE}")),
                         ("roundtrip", cli(f"roundtrip {PERP_FILE}")),
                         ("gen_delorme", cli(f"construct gen-delorme --perp {PERP_FILE} "
                                             "--out {tmp}/gd"))],
    },
    "graphs": {
        "denniston_32_4": [("build_and_check", code(DENNISTON))],
        "cone_q4": [("construct", cli("construct cone --q 4 --out {tmp}/cone4")),
                    ("verify", cli("verify {tmp}/cone4.graph"))],
        "hyperoval_affine_q32": [("construct",
                                  cli("construct hyperoval-affine --q 32 --out {tmp}/ho32"))],
        "bi_johnson_20_5": [("traced", code(BI_JOHNSON))],
    },
    "reader": {
        "parse_graph": [("python", code(PARSE))],
        "cone_q3": [("construct", cli("construct cone --q 3 --out {tmp}/cone")),
                    ("relabel", ["-c", RELABEL, "{tmp}"]),
                    ("verify_relabelled", cli("verify {tmp}/cone_relabelled.graph"))],
        "feas_enumerate_100": [("feas_enumerate", cli("feas enumerate --max-side 100"))],
    },
    "fields": {"fields": [("python", code(FIELDS))]},
}


def run_case(tree: Path, steps: list[tuple[str, list[str]]]) -> dict[str, dict]:
    """Each of ``steps`` in ``tree``, in order, in one fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: step(tree, argv, tmp) for name, argv in steps}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json")
    ap.add_argument("--cases", nargs="+", choices=CASES, required=True, metavar="SET")
    args = ap.parse_args(argv)
    try:
        plan = seeds(args.out)
    except ValueError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 64  # EX_USAGE
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for cache in (c for tree in trees.values() for c in tree.rglob("__pycache__")):
        shutil.rmtree(cache)

    workloads = workload_pairs(trees, plan)
    cases = {}
    for name, steps in {n: st for s in args.cases for n, st in CASES[s].items()}.items():
        runs = pairs(trees, lambda tree, i: run_case(tree, steps))
        cases[name] = {s: aggregate({side: [r[s] for r in got] for side, got in runs.items()})
                       for s, _ in steps}
        print(name, {s: medians(got["wall_s"]) for s, got in cases[name].items()}, flush=True)

    record = {
        "machine": f"{os.cpu_count()} CPUs, {platform.platform()}, "
                   f"Python {platform.python_version()}",
        "environment": ENVIRONMENT,
        "method": __doc__.split("It runs,", 1)[1].strip(),
        "sets": args.cases,
        "workloads": workloads,
        "cases": cases,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
